"""The benchmark's tracer (``bench/layers.py``) rebinds pezzo functions by
name.  Installing it fails once one of those names is gone from ``src/``,
so this test catches a refactor that would break traced bench runs."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_bench_tracer_installs():
    path = os.pathsep.join(os.path.join(ROOT, sub) for sub in ("src", "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", "import layers; layers.install(layers.Tracer('t'))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
