"""The records' public contract: immutable, hashable tuples of their fields
that keep their repr, their constructors' checks and their pickling."""

import copy
import pickle
import re

import pytest

from pezzo.combine import WelschingerQuery
from pezzo.errors import DomainError, RankMismatchError, WQueryError
from pezzo.floor import FloorDiagram, PolygonClass
from pezzo.lattice import SURFACES, SurfaceLattice, ThreefoldFamily
from pezzo.store import InvariantKey


def _line(d):
    return None


# record type, positional arguments, the same record by keyword with every
# default left out, and its repr (a function field shows without its address)
RECORDS = [
    (FloorDiagram, (2, (1, 1), ((0, 1, 1),), (2, 0), (0, 0), 1, 1),
     dict(floors=2, divergences=(1, 1), edges=((0, 1, 1),), down=(2, 0), up=(0, 0), markings=1),
     "FloorDiagram(floors=2, divergences=(1, 1), edges=((0, 1, 1),), down=(2, 0), up=(0, 0), "
     "markings=1, decorations=1)"),
    (PolygonClass, ("p2", (3,), ((0, 1),) * 3, 3, 0),
     dict(surface_id="p2", class_vec=(3,), slabs=((0, 1),) * 3, d_b=3, d_t=0),
     "PolygonClass(surface_id='p2', class_vec=(3,), slabs=((0, 1), (0, 1), (0, 1)), d_b=3, d_t=0)"),
    (InvariantKey, ("W", "qx2", (5, 5, 2, 3), 0),
     dict(kind="W", space="qx2", cls=[5, 5, 3, 2]),
     "InvariantKey(kind='W', space='qx2', cls=(5, 5, 2, 3), pairs=0)"),
    (WelschingerQuery, ("deg8", (5,), 0),
     dict(family_id="deg8", cls=5, pairs=0),
     "WelschingerQuery(family_id='deg8', cls=(5,), pairs=0)"),
    (SurfaceLattice, ("q", 2, "q", None),
     dict(id="q", rank=2, side="q"),
     "SurfaceLattice(id='q', rank=2, side='q', vanishing_cycle=None, canonical=(-2, -2), "
     "anticanonical=(2, 2), blowups=0)"),
    (ThreefoldFamily, ("deg8", 1, SURFACES["q"], ((1, 1),), (4,), "q", _line),
     dict(id="deg8", rank=1, surface=SURFACES["q"], psi_matrix=((1, 1),), c1_row=(4,),
          member_space="q", line=_line),
     "ThreefoldFamily(id='deg8', rank=1, surface=" + repr(SURFACES["q"]) + ", psi_matrix=((1, 1),), "
     "c1_row=(4,), member_space='q', line=<function _line>)"),
]

# invalid input, with the error type it raises and its message (None: any message)
INVALID = [
    (lambda: InvariantKey("X", "p2", (3,)), DomainError, "bad kind 'X'"),
    (lambda: InvariantKey("GW", "p2", (3,), 1), DomainError, "GW keys carry pairs = 0"),
    (lambda: InvariantKey("W", "p2", (3,), -1), DomainError, "pairs must be nonnegative"),
    (lambda: InvariantKey("W", "p2", (3, 1)), DomainError,
     "space p2: class (3, 1) has length 2, want 1"),
    (lambda: InvariantKey("W", "nope", (3,)), DomainError, "unknown space token 'nope'"),
    (lambda: WelschingerQuery("nope", (1,), 0), DomainError, "unknown family 'nope'"),
    (lambda: WelschingerQuery("deg7", (9, 2, 1), 0), RankMismatchError,
     "deg7: expected rank 2, got vector of length 3"),
    (lambda: WelschingerQuery("deg7", (9, 2), 99), WQueryError,
     "deg7(9, 2): pairs 99 outside 0..7 (at least one real point is required)"),
    (lambda: SurfaceLattice("q", 2, "q", None, (-2, -2)), TypeError, None),
    (lambda: SurfaceLattice("q", 2, "q", canonical=(-2, -2)), TypeError, None),
    (lambda: PolygonClass("p2", (3,)), TypeError, None),
    (lambda: FloorDiagram(1, (0,), (), (1,), (1,)), TypeError, None),
    (lambda: ThreefoldFamily("deg8", 1), TypeError, None),
]


def test_records_keep_their_public_contract():
    for record, args, kwargs, text in RECORDS:
        rec = record(*args)
        assert record(**kwargs) == rec and type(record(**kwargs)) is record, record
        twin = record(*args)
        assert twin == rec and hash(twin) == hash(rec) and len({rec, twin}) == 1, record
        assert re.sub(r" at 0x[0-9a-f]+", "", repr(rec)) == text
        assert tuple(rec) == rec[:] and rec._asdict()[rec._fields[0]] == rec[0], record
        for name in (rec._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 1)
        if record is not ThreefoldFamily:  # its ``line`` is a lambda for the shipped families
            for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
                assert clone == rec and type(clone) is record, record
    for build, error, message in INVALID:
        with pytest.raises(error) as info:
            build()
        assert message is None or str(info.value) == message


def test_replace_checks_and_recomputes_fields():
    key = InvariantKey("W", "qx2", (5, 5, 2, 3))
    assert key._replace(cls=(6, 6, 4, 3)).cls == (6, 6, 3, 4)  # canonical again
    with pytest.raises(DomainError, match="bad kind"):
        key._replace(kind="X")
    with pytest.raises(WQueryError):
        WelschingerQuery("deg7", (9, 2), 0)._replace(pairs=99)
    qx1 = SURFACES["qx2"]._replace(id="qx1", rank=3, vanishing_cycle=(1, -1, 0))
    assert qx1 == SURFACES["qx1"] and qx1.blowups == 1
