import os
import pathlib
import subprocess
import sys

import pezzo


def test_every_export_resolves():
    missing = [name for name in pezzo.__all__ if not hasattr(pezzo, name)]
    assert missing == []
    assert len(set(pezzo.__all__)) == len(pezzo.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from pezzo import *", namespace)
    assert set(pezzo.__all__) <= set(namespace)


def test_bench_tracer_finds_every_binding():
    # bench/layers.py wraps pezzo functions by name and fails on a lost binding
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    env.pop("PEZZO_CACHE_DIR", None)
    code = "import layers; layers.install(layers.Tracer('check'))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
