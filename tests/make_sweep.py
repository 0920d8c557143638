"""Regenerate ``sweep.json``, the pinned outcome of the byte-identity sweep.

    python3 tests/make_sweep.py [OUT]

Each command of ``COMMANDS`` runs as ``python3 -m pezzo.cli --cache-dir cache
...`` in a fresh process whose working directory is a fresh temporary
directory, with the package imported from ``src/``.  For each, the file
records the exit code, the sha256 of stdout, stderr whole and the sha256 of
every file left in the cache directory.  The ``ingest`` commands read the
files of ``INGEST_CSVS``, written to that directory first.  Every printed
number must stay the same, so the file only changes with the list.
``test_sweep.py`` rebuilds it and compares the bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

COMMANDS = [
    # the four cold commands of the benchmark
    "table gw-deg6 --max-sum 28",
    "table w-deg6 --max-sum 13",
    "table w-deg7 --max-d 9",
    "w2 --surface qx2 --class 5,5,2,3",
    # the four tables at their defaults, in both formats
    "table gw-deg6 --format md",
    "table gw-deg6 --format csv",
    "table w-deg7 --format md",
    "table w-deg7 --format csv",
    "table w-deg6 --format md",
    "table w-deg6 --format csv",
    "table w-deg6t --format md",
    "table w-deg6t --format csv",
    # the two large real tables
    "table w-deg7 --max-d 11",
    "table w-deg6 --max-sum 17",
    # diagram dumps, complex and real
    "w2 --surface qx2 --class 5,5,3,4 --dump-diagrams",
    "gw2 --surface p2 --class 6 --dump-diagrams",
    "w2 --surface p2 --class 6 --dump-diagrams",
    "w2 --surface qx1 --class 4,5,2 --dump-diagrams",
    "w2 --surface q --class 3,6 --dump-diagrams",
    "gw2 --surface p2 --class 7 --dump-diagrams",
    # a threefold count whose members were never ingested: exit 2
    "w3 --family deg7 --class 5,0 --pairs 2",
    "ingest --surface qx2 --file rows.csv",
    # a twisted class is counted as its untwisted class, and the complex-count token
    "ingest --surface qx2t --file qx2t.csv",
    "ingest --surface deg6t --file deg6t.csv",
    "ingest --surface deg6-gw --file gw.csv",
    # complex counts whose recursion reaches classes with a multiplicity 1
    "gw2 --surface p2x3 --class 13,6,1,1",
    "gw2 --surface p2x2 --class 12,1,1",
    "gw3 --family deg6 --class 9,8,7",
]

INGEST_CSVS = {
    # GW(qx2; 3, 3, 1, 2) = 620 with pair bound 4, GW(qx2; 2, 2, 1, 1) = 12
    "rows.csv": """\
# rows that ingest keeps, merges and rejects
space,c1,c2,c3,c4,l,value
qx2,3,3,1,2,1,+100
qx2,3,3,2,1,1,100
qx2,3,3,1,2,2,1_02
qx2,3,3,2,1,2,98
qx2,2,2,1,1,0,-1_0
qx2,2,2,1,1,1,+0
qx2,3,3,1,2,5,0
qx2,3,3,1,2,3,7
qx2,3,3,1,2,4,-6_20
""",
    # qx2t (a, alpha, beta) is qx2 (a, a; alpha, beta): (3, 1, 2) has pair bound 4
    # and GW 620, (2, 1, 1) GW 12, (1, 0, 1) pair bound 1 and GW 1
    "qx2t.csv": """\
space,c1,c2,c3,l,value
qx2t,3,1,2,1,100
qx2t,3,2,1,1,100
qx2t,3,1,2,5,0
qx2t,2,1,1,0,11
qx2t,1,0,1,1,1
""",
    # deg6t (a, c) is deg6 (a, a, c): (3, 3) has GW 728, (2, 1) pair bound 2
    # and (2, 3) GW 12
    "deg6t.csv": """\
space,c1,c2,l,value
deg6t,3,3,2,100
deg6t,2,1,3,1
deg6t,2,3,0,13
""",
    # GW(deg6; 3, 3, 3) = 728, GW(deg6; 2, 2, 1) = 1, GW(deg6; 3, 2, 1) = 0
    "gw.csv": """\
space,c1,c2,c3,l,value
deg6-gw,3,3,3,0,728
deg6-gw,2,2,1,0,2
deg6-gw,3,2,1,0,0
""",
}


def run(command: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PEZZO_CACHE_DIR", None)
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in INGEST_CSVS.items():
            with open(os.path.join(cwd, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        proc = subprocess.run([sys.executable, "-m", "pezzo.cli", "--cache-dir", "cache",
                               *command.split()], cwd=cwd, env=env, capture_output=True,
                              timeout=300, check=False)
        cache = os.path.join(cwd, "cache")
        names = sorted(os.listdir(cache)) if os.path.isdir(cache) else []
        files = {}
        for name in names:
            with open(os.path.join(cache, name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": proc.returncode, "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr": proc.stderr.decode(), "cache_files": files}


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, "sweep.json")
    with ThreadPoolExecutor(max_workers=3) as pool:  # three commands at a time
        results = dict(zip(COMMANDS, pool.map(run, COMMANDS)))
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(results, indent=1) + "\n")


if __name__ == "__main__":
    main()
