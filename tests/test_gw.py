import itertools
import json
import os
import random
import subprocess
import sys
from math import comb
from operator import mul, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from golden import TABLE2
from oracles import gw_blowup_oracle, gw_p2
from pezzo import gw
from pezzo.errors import DegeneratePolygonError, DomainError
from pezzo.floor import fd_count_real_l0, polygon_of
from pezzo.gw import gw_blowup_p2, gw_surface
from pezzo.lattice import SURFACES, cremona, monodromy, plane_to_quadric, quadric_to_plane

# first plane counts, regenerated by the recursion in test_plane_recursion
PLANE_COUNTS = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}


def test_plane_recursion():
    # recompute the leading values directly from the quadratic recursion
    values = {1: 1}
    for d in range(2, 7):
        total = 0
        for d1 in range(1, d):
            d2 = d - d1
            total += values[d1] * values[d2] * (
                d1 * d1 * d2 * d2 * comb(3 * d - 4, 3 * d1 - 2)
                - d1 ** 3 * d2 * comb(3 * d - 4, 3 * d1 - 1)
            )
        values[d] = total
    assert values == PLANE_COUNTS
    for d, want in PLANE_COUNTS.items():
        assert gw_p2(d) == want


def test_plane_domain_error():
    with pytest.raises(DomainError):
        gw_p2(0)


def test_blowup_examples():
    assert gw_blowup_p2(5, 2, 2, 2) == 620
    assert gw_blowup_p2(7, 3, 3, 3) == 87304
    assert gw_blowup_p2(2, 1, 2, 0) == 0


def test_blowup_exceptional_and_degenerate():
    assert gw_blowup_p2(0, -1, 0, 0) == 1
    assert gw_blowup_p2(0, 0, -1, 0) == 1
    assert gw_blowup_p2(0, 0, 0, 0) == 0
    assert gw_blowup_p2(-1, 0, 0, 0) == 0
    assert gw_blowup_p2(2, -1, 0, 0) == 0
    assert gw_blowup_p2(0, -2, 0, 0) == 0


def test_vanishing_class_is_answered_by_the_memo(monkeypatch):
    # the first ask runs the zero tests once and stores the 0, the second
    # is one lookup, as for a nonzero count
    calls = []

    def spy(*key):
        calls.append(key)
        return reduce(*key)

    reduce = gw._reduce
    for key in ((5, 6, 0, 0), (4, 2, 2, 5), (0, 0, 0, 0)):
        monkeypatch.delitem(gw._BLOWUP_MEMO, key, raising=False)
    monkeypatch.setattr(gw, "_reduce", spy)
    for key in ((5, 6, 0, 0), (4, 2, 2, 5), (0, 0, 0, 0)):
        calls.clear()
        assert gw_blowup_p2(*key) == 0 and gw_blowup_p2(*key) == 0
        assert calls == [key]
    calls.clear()
    assert gw_surface("p2x1", [5, 6]) == 0 and calls == []


def test_blowup_rejects_non_integral_entries():
    assert gw_blowup_p2(True, 0, 0, 0) == gw_blowup_p2(1) == 1
    for bad in ((2.9,), (3, 1.5), (4, 2, 2, 2.0), ("3",)):
        with pytest.raises(DomainError, match=r"^p2x3: class .* is not a vector of integers$"):
            gw_blowup_p2(*bad)


def test_blowup_vanishing_rule_exact():
    # a pair of multiplicities exceeding the degree kills the count, except
    # for the three line classes through two of the points
    for d in range(1, 6):
        for m in itertools.product(range(d + 2), repeat=3):
            if all(mi + mj <= d for mi, mj in itertools.combinations(m, 2)):
                continue
            want = 1 if (d, tuple(sorted(m))) == (1, (0, 1, 1)) else 0
            assert gw_blowup_p2(d, *m) == want, (d, m)


def test_blowup_permutation_symmetry():
    rng = random.Random(5)
    for _ in range(100):
        d = rng.randrange(1, 7)
        m = [rng.randrange(0, d + 1) for _ in range(3)]
        base = gw_blowup_p2(d, *m)
        for perm in itertools.permutations(m):
            assert gw_blowup_p2(d, *perm) == base


def test_blowup_recursion_stays_shallow():
    # lower degrees are filled first, so the stack does not grow with d
    code = ("import sys; sys.setrecursionlimit(120)\n"
            "from pezzo.gw import gw_blowup_p2\n"
            "print(gw_blowup_p2(100, 0, 0, 0), gw_blowup_p2(64, 1, 1, 1))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # multiplicity one at a point is one more point condition
    assert proc.stdout.split() == [str(gw_p2(100)), str(gw_p2(64))]


def test_blowup_half_left_out_of_the_fill():
    # in a fresh process, one half of a splitting of (9; 3, 3, 3) is not in
    # the memo when _gw_blowup reaches it, so it is counted through _blowup
    code = "from pezzo.gw import gw_blowup_p2\nprint(gw_blowup_p2(9, 3, 3, 3))"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{gw_blowup_oracle(9, 3, 3, 3)}\n" == "977333748480\n"


_FILL_PROBE = """
import json, sys
import oracles
from pezzo import gw
visits, blowup = [], gw._gw_blowup
def record(*m):
    visits.append(m)
    return blowup(*m)
gw._gw_blowup = record
fill = oracles.gw_blowup_box_scan if sys.argv[1] == "scan" else gw.gw_blowup_p2
print(json.dumps([fill(13, 6, 4, 2), visits, sorted(gw._BLOWUP_MEMO)]))
"""


def test_fill_computes_what_the_box_scan_computes():
    # in a fresh process each: the fill over the reduced candidates calls
    # _gw_blowup on the classes of the old scan of the whole box, in the same
    # order, and leaves the memo with the same keys
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((os.path.join(here, os.pardir, "src"), here)))
    runs = []
    for fill in ("reduced", "scan"):
        proc = subprocess.run([sys.executable, "-c", _FILL_PROBE, fill], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    value, visits, keys = json.loads(runs[0])
    assert value == gw_blowup_oracle(13, 6, 4, 2) and len(visits) > 100 and len(keys) > len(visits)
    # an entry 1 is reduced to 0, so no class with one is computed
    assert not any(1 in m[1:] for m in visits)


def test_oracle_equality():
    for d in range(1, 7):
        assert gw_blowup_p2(d, 1, 1, 0) == gw_p2(d)


def test_multiplicity_one_absorbs_into_points():
    for d in range(1, 6):
        assert gw_blowup_p2(d, 1, 0, 0) == gw_p2(d)
    # the degree-1 class with three assigned points is empty, so start at 2
    for d in range(2, 6):
        assert gw_blowup_p2(d, 1, 1, 1) == gw_p2(d)


def test_multiplicity_one_is_a_point_condition():
    # N(d; a1, a2, 1) = N(d; a1, a2, 0) against the oracle, which does not
    # reduce, on every class with a point condition left for the third point
    classes = nonzero = 0
    for d in range(1, 13):
        for a1 in range(d + 2):
            for a2 in range(min(a1, 3 * d - 2 - a1) + 1):
                want = gw_blowup_oracle(d, a1, a2, 0)
                classes, nonzero = classes + 1, nonzero + (want != 0)
                for perm in set(itertools.permutations((a1, a2, 1))):
                    assert gw_blowup_p2(d, *perm) == want, (d, perm)
    assert (classes, nonzero) == (549, 240)


def _cremona(d, m):
    # the quadratic Cremona map, an automorphism of the thrice-blown plane
    return (2 * d - sum(m), d - m[1] - m[2], d - m[0] - m[2], d - m[0] - m[1])


def test_cremona_symmetry():
    # reflection in the lattice, checked on the oracle, which does not use it
    for d in range(1, 8):
        for m in itertools.product(range(4), repeat=3):
            image = _cremona(d, m)
            if image[0] < 0 or any(x < 0 for x in image[1:]):
                continue
            want = gw_blowup_oracle(d, *m)
            assert gw_blowup_oracle(*image) == want, (d, m)
            assert gw_blowup_p2(d, *m) == want, (d, m)


def test_blowup_equals_oracle():
    # every class with d <= 14 and multiplicities in -1..d+1, in every order
    nonzero = 0
    for d in range(15):
        for m in itertools.combinations_with_replacement(range(-1, d + 2), 3):
            want = gw_blowup_oracle(d, *m)
            nonzero += want != 0
            for perm in set(itertools.permutations(m)):
                assert gw_blowup_p2(d, *perm) == want, (d, perm)
    assert nonzero == 948


@st.composite
def _blowup_classes(draw):
    d = draw(st.integers(0, 12))
    return d, tuple(draw(st.integers(-1, d + 1)) for _ in range(3))


@settings(max_examples=300, deadline=None, database=None)
@given(_blowup_classes(), st.permutations(range(3)))
def test_blowup_cremona_and_permutation_property(cls, perm):
    d, m = cls
    want = gw_blowup_oracle(d, *m)
    assert gw_blowup_oracle(d, *(m[i] for i in perm)) == want
    image = _cremona(d, m)
    # the oracle needs ~30 s to reach degree 24, the image of (12; 0, 0, 0)
    if image[0] <= 14:
        assert gw_blowup_oracle(*image) == want
    assert gw_blowup_p2(d, *m) == want


def _dot(x, y):
    # the intersection form of the thrice-blown plane in the (d; a1, a2, a3) basis
    return x[0] * y[0] - sum(map(mul, x[1:], y[1:]))


def _points(beta):
    # n(beta) = 3d - sum(a) - 1, the number of point conditions
    return 3 * beta[0] - sum(beta[1:]) - 1


# H, the exceptional curves E_i and the lines H - E_i, as (d; a1, a2, a3)
_DIVISORS = [(1, 0, 0, 0)] + [tuple(-(j == i) for j in range(4)) for i in (1, 2, 3)] \
    + [tuple(int(j in (0, i)) for j in range(4)) for i in (1, 2, 3)]


@st.composite
def _wdvv_classes(draw):
    d = draw(st.integers(1, 7))
    beta = (d, *(draw(st.integers(0, d)) for _ in range(3)))
    assume(_points(beta) >= 1)
    return beta


@settings(max_examples=200, deadline=None, database=None)
@given(_wdvv_classes(), st.sampled_from(_DIVISORS), st.sampled_from(_DIVISORS))
def test_blowup_obeys_wdvv(beta, D, E):
    # associativity of the quantum product (Kontsevich-Manin, hep-th/9402147),
    # paired against two divisors D, D': the recursion pairs against two line
    # classes only, so pairs such as (H, E_i) give relations it never uses.
    # The sum runs over ordered splittings beta = beta1 + beta2 into nonzero
    # classes; the exceptional curves (0; -1 at i) count 1
    first = _dot(D, D) * _dot(E, beta) ** 2 + _dot(E, E) * _dot(D, beta) ** 2 \
        - 2 * _dot(D, E) * _dot(D, beta) * _dot(E, beta)
    total = gw_blowup_p2(*beta) * first
    d, *a = beta
    for beta1 in itertools.product(range(d + 1), *(range(-1, x + 2) for x in a)):
        beta2 = tuple(map(sub, beta, beta1))
        if not any(beta1) or not any(beta2) or min(_points(beta1), _points(beta2)) < 0:
            continue
        total += gw_blowup_p2(*beta1) * gw_blowup_p2(*beta2) * _dot(beta1, beta2) \
            * comb(_points(beta) - 1, _points(beta1)) \
            * (_dot(D, beta1) ** 2 * _dot(E, beta2) ** 2
               - _dot(D, beta1) * _dot(E, beta1) * _dot(D, beta2) * _dot(E, beta2))
    assert total == 0, (beta, D, E)


@st.composite
def _plane_classes(draw):
    # a class of degree <= 12, or the plane image of a qx2 class with entries
    # 0..5, whose orbit then holds at least one rectangle with a polygon
    if draw(st.booleans()):
        d, m = draw(_blowup_classes())
        return (d, *m)
    return quadric_to_plane(tuple(draw(st.integers(0, 5)) for _ in range(4)))


@settings(max_examples=200, deadline=None, database=None)
@given(_plane_classes())
def test_orbit_keeps_gw_and_real_floor_counts(cls):
    # the 12 images under the point permutations and the Cremona map: equal
    # GW against the oracle, which has no Cremona reduction (up to degree 12,
    # as in test_blowup_cremona_and_permutation_property), and equal real
    # floor counts on the orbit's rectangles with a polygon and entries <= 5
    images = {(e, *perm) for e, *m in (cls, cremona(cls)) for perm in itertools.permutations(m)}
    want = gw_blowup_oracle(*cls)
    real = set()
    for image in images:
        if image[0] <= 12:
            assert gw_blowup_oracle(*image) == want, image
        assert gw_blowup_p2(*image) == want, image
        rectangle = plane_to_quadric(image)
        if max(rectangle) <= 5:
            try:
                real.add(fd_count_real_l0(polygon_of("qx2", rectangle)))
            except DegeneratePolygonError:
                continue
    assert len(real) <= 1, (cls, real)


def test_gw_surface_table_values():
    qx2 = SURFACES["qx2"]
    assert gw_surface(qx2, (2, 2, 1, 2)) == 1
    assert gw_surface(qx2, (3, 3, 0, 5)) == 0
    assert gw_surface(qx2, (4, 4, 2, 3)) == 18132
    for _, members in TABLE2.values():
        for member, _, want in members:
            assert gw_surface(qx2, member) == want


def test_gw_surface_monodromy_symmetry():
    qx2 = SURFACES["qx2"]
    for _, members in TABLE2.values():
        for member, _, want in members:
            assert gw_surface(qx2, monodromy(qx2, member)) == want
    for cls in itertools.product(range(9), repeat=4):
        if cls[0] + cls[1] <= 8:
            assert gw_surface(qx2, monodromy(qx2, cls)) == gw_surface(qx2, cls), cls


def test_gw_surface_dispatch():
    assert gw_surface("p2", (4,)) == 620
    assert gw_surface("p2x2", (2, 1, 1)) == 1
    assert gw_surface("q", (2, 3)) == 96
    assert gw_surface("qx1", (1, 1, 1)) == 1
    assert gw_surface("qx2", (0, 0, 0, -1)) == 1
    with pytest.raises(DomainError):
        gw_surface("nope", (1,))


def test_string_and_object_lattices_agree():
    assert gw_surface("qx2", (3, 3, 1, 2)) == gw_surface(SURFACES["qx2"], (3, 3, 1, 2))
