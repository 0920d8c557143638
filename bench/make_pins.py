"""Regenerate ``pins.json`` from the program in ``src/``.

    PYTHONPATH=src python3 bench/make_pins.py

The pins are the reference the benchmark checks against: exit code and
stdout digest of each cold command, the complex counts that make the
synthetic warm-store rows valid, the totally real surface values the
warm-store write phase ingests, and the answer of every query the read phase
may ask.  ``run.py`` cross-checks the answers against ``tests/golden.py``.
Every printed number must stay the same across versions, so the pins only
change with the benchmark itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP = os.path.join(ROOT, ".bench_tmp")


def command_pins(env) -> dict:
    out = {}
    for argv in [a for cmds in wl.COLD.values() for a in cmds]:
        with tempfile.TemporaryDirectory(dir=TMP) as cache:
            proc = subprocess.run([sys.executable, "-m", "pezzo.cli", "--cache-dir", cache] + argv,
                                  cwd=ROOT, env=env, capture_output=True, text=True, check=False)
        out[" ".join(argv)] = {"exit": proc.returncode,
                               "sha256": hashlib.sha256(proc.stdout.encode()).hexdigest()}
    return out


def main() -> None:
    import pezzo

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    env.pop("PEZZO_CACHE_DIR", None)
    os.makedirs(TMP, exist_ok=True)
    pins = {"commands": command_pins(env)}
    pins["p2x3_gw"] = [list(c) + [g] for c in wl.p2x3_classes()
                       if (g := pezzo.gw_surface("p2x3", c)) > 0]
    pins["qx2t_gw"] = [[a, alpha, beta, top, g] for (a, alpha, beta), top in wl.qx2t_keys()
                       if (g := pezzo.gw_surface("qx2", (a, a, alpha, beta))) > 0]

    _, qx2t = wl.universe_values(pins)
    with tempfile.TemporaryDirectory(dir=TMP) as cache:
        store = pezzo.Store(cache_dir=cache)
        for (cls, l), value in qx2t.items():
            store.insert(pezzo.InvariantKey("W", "qx2t", cls, l), value, persist=False)
        answers = []
        for q in wl.w3_universe():
            try:
                answer = pezzo.w_threefold(pezzo.WelschingerQuery(q[1], q[2], q[3]), store)
            except pezzo.DataUnavailableError:
                answer = None
            answers.append([q, answer])
        answers += [[q, pezzo.gw_threefold(q[1], q[2])] for q in wl.gw3_universe()]
        pins["answers"] = answers
        # the totally real values the w3 queries computed, persisted by the store
        true_l0 = {}
        for space in ("q", "qx1", "qx2"):
            with open(os.path.join(cache, f"{space}.store"), encoding="utf-8") as fh:
                rows = [[int(x) for x in line.split(",")[1:]] for line in fh]
            true_l0[space] = sorted(r[:-2] + [r[-1]] for r in rows if r[-2] == 0)
        pins["true_l0"] = true_l0

    lines = ["{"]
    for i, (key, value) in enumerate(pins.items()):
        sep = "," if i < len(pins) - 1 else ""
        if isinstance(value, list):
            body = ",\n".join("  " + json.dumps(v) for v in value)
            lines.append(f"{json.dumps(key)}: [\n{body}\n]{sep}")
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value, indent=1, sort_keys=True)}{sep}")
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
