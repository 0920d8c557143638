"""The benchmark's tracer (``bench/layers.py``) rebinds pezzo functions by
name.  Installing it fails once one of those names is gone from ``src/``,
so this test catches a refactor that would break traced bench runs.  A
traced floor count must also show the spans and the diagram count that the
real-tables bench requires of every traced run, and a traced complex table
the spans the complex-sweep bench requires.  Two traced commands must make
the calls pinned here, layer by layer, so a call that moves below a traced
function shows as a changed count.  ``bench/make_pins.py``,
run on a copy of ``bench/``, must rebuild ``bench/pins.json`` byte for byte."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_bench_tracer_installs():
    path = os.pathsep.join(os.path.join(ROOT, sub) for sub in ("src", "bench"))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PEZZO_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", "import layers; layers.install(layers.Tracer('t'))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


_TRACED_FLOOR = """
import json, layers
from pezzo import floor
pc = floor.polygon_of("qx2", (3, 3, 1, 2))
expected = sum(1 for _ in floor.enumerate_diagrams(pc, real=True))
tracer = layers.Tracer("t")
layers.install(tracer)
floor.fd_count_real_l0(pc)
print(json.dumps({"expected": expected, "spans": [s[0] for s in tracer.spans],
                  "diagrams": tracer.counts.get("floor.diagrams")}))
"""


def test_traced_floor_count_reports_its_diagrams():
    # the real-tables bench requires these two from every traced run
    path = os.pathsep.join(os.path.join(ROOT, sub) for sub in ("src", "bench"))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_FLOOR],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["spans"] == ["floor.fd_count", "floor.enumerate_diagrams"]
    assert seen["diagrams"] == seen["expected"] > 0


_TRACED_TABLE = """
import collections, io, json, sys, layers
from pezzo import cli
tracer = layers.Tracer("t")
layers.install(tracer)
code = cli.main(sys.argv[1:], out=io.StringIO())
spans = tracer.spans
# as run.py counts them: no span inside the fixture load of store.init
under = []
for name, _start, _end, parent, *_ in spans:
    under.append(parent >= 0 and (spans[parent][0] == "store.init" or under[parent]))
kept = [s for s, u in zip(spans, under) if not u]
print(json.dumps({"code": code,
                  "spans": [[s[0], spans[s[3]][0] if s[3] >= 0 else None] for s in kept],
                  "calls": collections.Counter(s[0] for s in kept),
                  "counts": tracer.counts}))
"""


def _traced(argv):
    path = os.pathsep.join(os.path.join(ROOT, sub) for sub in ("src", "bench"))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PEZZO_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", _TRACED_TABLE, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_complex_table_shows_the_complex_sweep_spans():
    # the complex-sweep bench requires these spans of its traced gw-deg6 run;
    # the table functions are reached only through their TABLES binding
    seen = _traced(["table", "gw-deg6", "--max-sum", "4"])
    assert seen["code"] == 0
    names = {name for name, _ in seen["spans"]}
    assert {"tables", "combine.gw_threefold", "lattice.fiber", "gw.gw_surface",
            "store.init"} <= names
    assert ["lattice.fiber", "combine.gw_threefold"] in seen["spans"]


# the traced calls of each layer, outside the fixture load, as the bench
# counts them (gw.gw_surface.calls, lattice.fiber.calls, ...): a call moved
# below a traced function, or one more made through it, changes them
TRACED_CALLS = {
    "table gw-deg6 --max-sum 4": (
        {"combine.gw_threefold": 2, "gw.gw_surface": 4, "lattice.fiber": 4,
         "store.init": 1, "tables": 1}, {}),
    "w3 --family deg7 --class 7,2": (
        {"combine.w_threefold": 1, "floor.enumerate_diagrams": 2, "floor.fd_count": 2,
         "gw.gw_surface": 6, "store.get_or_compute": 2, "store.init": 1},
        {"floor.diagrams": 51, "store.get_or_compute.misses": 2}),
}


@pytest.mark.parametrize("command", sorted(TRACED_CALLS))
def test_traced_call_counts_are_pinned(command):
    seen = _traced(command.split())
    assert seen["code"] == 0
    assert (seen["calls"], seen["counts"]) == TRACED_CALLS[command]


def test_make_pins_rebuilds_the_pins(tmp_path):
    # a copy of bench/ next to a link to src/: make_pins.py writes only there.
    # Equal bytes mean no pinned number moved and every name it calls exists.
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.abspath(os.path.join(ROOT, "src")), tmp_path / "src")
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    env.pop("PEZZO_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "make_pins.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "bench", "pins.json"), "rb") as fh:
        assert (tmp_path / "bench" / "pins.json").read_bytes() == fh.read()
