import os
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



def test_import_leaves_out_dataclasses_and_inspect():
    # each CLI command is a fresh process: these two would cost it ~10 ms of start-up
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    probe = ("import sys; before = set(sys.modules); import pezzo, pezzo.cli; pezzo.Store(); "
             "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "\n"), proc.stderr


def test_floor_loads_on_first_use():
    # a command that counts no floor diagram does not compile floor.py; its
    # names still resolve through the package, and then floor is loaded
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    probe = ("import sys; import pezzo.cli; pezzo.Store(); a = 'pezzo.floor' in sys.modules; "
             "from pezzo import polygon_of; "
             "print(a, 'pezzo.floor' in sys.modules, polygon_of is pezzo.floor.polygon_of)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False True True\n"), proc.stderr


def test_no_floor_for_a_space_without_polygons():
    # an unstored l = 0 key of a space with no Newton polygon is unavailable
    # before floor.py is loaded: the store asks lattice.POLYGON_SURFACES
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    probe = ("import sys, pezzo\n"
             "store = pezzo.Store(load_fixtures=False)\n"
             "for key in (('qx2t', (1, 0, 1)), ('p2x3', (4, 1, 1, 1))):\n"
             "    try:\n"
             "        store.get_or_compute(pezzo.InvariantKey('W', *key))\n"
             "    except pezzo.DataUnavailableError as exc:\n"
             "        print(*exc.keys)\n"
             "print('pezzo.floor' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("(W qx2t (1,0,1) l=0)\n(W p2x3 (4,1,1,1) l=0)\nFalse\n")
