"""The byte-identity sweep: each command of ``make_sweep.py`` run cold in a
fresh process must leave the exit code, stdout digest, stderr and cache files
pinned in ``sweep.json``, and the script must rebuild that file byte for byte."""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "sweep.json")


def _pinned() -> dict:
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)


def test_sweep_rebuilds_the_pins(tmp_path):
    out = tmp_path / "sweep.json"
    proc = subprocess.run([sys.executable, os.path.join(HERE, "make_sweep.py"), str(out)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(out.read_text(encoding="utf-8"))
    for command, want in _pinned().items():
        assert got.get(command) == want, command
    with open(PINNED, "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_sweep_pins_match_the_recorded_sweeps():
    # the pins reproduce the sweeps recorded against their parents by hand
    pinned = _pinned()
    for name in ("BENCH_25.json", "BENCH_26.json"):
        with open(os.path.join(HERE, os.pardir, name), encoding="utf-8") as fh:
            recorded = json.load(fh)["byte_identical"]
        shared = [command for command in pinned if command in recorded]
        assert len(shared) == 21, name
        for command in shared:
            assert {field: recorded[command][field] for field in pinned[command]} \
                == pinned[command], (name, command)
