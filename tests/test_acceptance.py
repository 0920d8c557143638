"""Acceptance criteria, one test per criterion, exact integer tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion together with its runtime.
"""

import itertools
import random
import time
from contextlib import contextmanager
from math import comb

import pytest

from conftest import ExplodingStore
from golden import PLANE_W, TABLE2, TABLE3_COLUMNS, TABLE3_L0, TABLE4_L0
from oracles import SIGN_DATA, epsilon, gw_p2, qqe_eval, rho, w_fiber_sum
from pezzo.combine import (
    WelschingerQuery,
    gw_threefold,
    gw_vanishes_a_priori,
    w_threefold,
    w_vanishes_a_priori,
)
from pezzo.errors import DataUnavailableError, DegeneratePolygonError
from pezzo.floor import fd_count_complex, fd_count_real_l0, polygon_of
from pezzo.gw import gw_blowup_p2, gw_surface
from pezzo.lattice import (
    FAMILIES,
    SURFACES,
    constraint_count,
    fiber,
    genus,
    monodromy,
    pair,
    push_forward,
    singular_fiber_count,
)
from pezzo.signs import sign_exponent
from pezzo.store import InvariantKey, Store


@contextmanager
def criterion(number, label, budget=None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.0f}s, budget {budget}s"


def test_criterion_1_table2_reproduction():
    with criterion(1, "complex counts of the product family (table, 14 classes)", 60):
        surface = SURFACES["qx2"]
        for cls, (want, members) in TABLE2.items():
            assert gw_threefold("deg6", cls) == want, cls
            for member, ds, member_count in members:
                assert abs(pair(surface, member, surface.vanishing_cycle)) == ds
                assert gw_surface(surface, member) == member_count, member


def test_criterion_2_backends_agree():
    with criterion(2, "independent backends agree (plane recursion, diagrams)", 120):
        values = {1: 1}
        for d in range(2, 7):
            values[d] = sum(
                values[d1] * values[d - d1] * (
                    d1 * d1 * (d - d1) ** 2 * comb(3 * d - 4, 3 * d1 - 2)
                    - d1 ** 3 * (d - d1) * comb(3 * d - 4, 3 * d1 - 1)
                )
                for d1 in range(1, d)
            )
        for d in range(1, 7):
            assert gw_p2(d) == values[d]
            assert gw_blowup_p2(d, 1, 1, 0) == gw_p2(d)

        checked = 0
        classes = [("p2", (d,)) for d in range(1, 5)]
        classes += [("q", (a, b)) for a in range(7) for b in range(7)
                    if 0 < 2 * (a + b) - 1 <= 12]
        classes += [("qx1", (a, b, k)) for a in range(7) for b in range(7)
                    for k in range(min(a, b) + 1)]
        classes += [("qx2", (a, b, al, be)) for a in range(7) for b in range(7)
                    for al in range(min(a, b) + 1) for be in range(min(a, b) + 1)]
        for surf, cls in classes:
            if constraint_count(SURFACES[surf], cls) > 12:
                continue
            try:
                pc = polygon_of(surf, cls)
            except DegeneratePolygonError:
                continue
            assert fd_count_complex(pc) == gw_surface(surf, cls), (surf, cls)
            checked += 1
        assert checked > 100


def test_criterion_3_w_deg7_totally_real():
    with criterion(3, "totally real row of the once-blown family, d <= 9", 600):
        store = Store(cache_dir=None)
        for (d, k), want in TABLE3_L0.items():
            got = w_threefold(WelschingerQuery("deg7", (d, k), 0), store)
            assert got == want, ((d, k), got, want)


def test_criterion_4_w_deg6_totally_real():
    with criterion(4, "totally real row of the standard product family", 30):
        store = Store(cache_dir=None)
        for cls, want in TABLE4_L0.items():
            got = w_threefold(WelschingerQuery("deg6", cls, 0), store)
            assert got == want, (cls, got, want)


def test_criterion_5_plane_pinning():
    with criterion(5, "plane totally real counts pinned (8, 240, 18264)"):
        assert fd_count_real_l0(polygon_of("p2", (3,))) == 8
        assert fd_count_real_l0(polygon_of("p2", (4,))) == 240
        assert fd_count_real_l0(polygon_of("p2", (5,))) == 18264


def _synthetic_l1_table(store):
    """Parity- and bound-consistent pair-count-1 rows for the blown quadric,
    recycling the totally real values (real l > 0 inputs are external)."""
    for a in range(8):
        for b in range(8):
            if not 1 <= a + b <= 7:
                continue
            for k in range(min(a, b) + 1):
                cls = (a, b, k)
                if gw_surface(SURFACES["qx1"], cls) == 0:
                    continue
                value = store.get_or_compute(InvariantKey("W", "qx1", cls, 0))
                store.insert(InvariantKey("W", "qx1", cls, 1), value)


def test_criterion_6_deg7_observations():
    with criterion(6, "once-blown family observation suite"):
        store = Store(cache_dir=None)
        # (1) blow-up multiplicity 0 vs 1 flips the sign: totally real rows
        for d in (1, 3, 5, 7, 9):
            left = w_threefold(WelschingerQuery("deg7", (d, 0), 0), store)
            right = w_threefold(WelschingerQuery("deg7", (d, 1), 0), store)
            assert left == -right, d
        # ... and rows with one conjugate pair on an ingested table
        _synthetic_l1_table(store)
        for d in (3, 5, 7):
            left = w_threefold(WelschingerQuery("deg7", (d, 0), 1), store)
            right = w_threefold(WelschingerQuery("deg7", (d, 1), 1), store)
            assert left == -right, d
        # (2) columns with k at least (d+1)/2 vanish (from d = 3 on: the
        # class with d = k = 1 is a line class and counts -1 in the table)
        for d in (3, 5, 7, 9):
            for k in range((d + 1) // 2, d + 1):
                k_d = 2 * d - k
                for l in range(0, (k_d - 1) // 2 + 1, 3):
                    got = w_threefold(WelschingerQuery("deg7", (d, k), l), store)
                    assert got == 0, ((d, k), l)
        # (3) the (2k+1; k) columns match the plane fixture up to the sign
        for k in range(5):
            sign = -1 if ((k * k - k) // 2) % 2 else 1
            for l, plane in PLANE_W[k + 1].items():
                got = w_threefold(WelschingerQuery("deg7", (2 * k + 1, k), l), store)
                assert got == sign * plane, (k, l)
                stored = store.get_or_compute(InvariantKey("W", "p2", (k + 1,), l))
                assert got == sign * stored


def test_criterion_7_vanishing_suites():
    with criterion(7, "a-priori vanishing suites"):
        rng = random.Random(97)
        produced = 0
        while produced < 50:
            a = rng.randrange(1, 7)
            b = rng.randrange(0, a + 1)
            c = rng.randrange(0, b + 1)
            if a < b + c or a + b + c <= 1:
                continue
            cls = tuple(rng.sample([a, b, c], 3))
            assert gw_vanishes_a_priori("deg6", cls)
            assert gw_threefold("deg6", cls) == 0, cls
            produced += 1

        guard = ExplodingStore()
        checked = 0
        for d in range(2, 13, 2):
            assert w_threefold(WelschingerQuery("deg8", (d,), 0), guard) == 0
            checked += 1
        for d in range(2, 13, 2):
            for k in range(0, 13 - d):
                if constraint_count(FAMILIES["deg7"], (d, k)) < 1:
                    continue
                assert w_threefold(WelschingerQuery("deg7", (d, k), 0), guard) == 0
                checked += 1
        for a in range(13):
            for b in range(13 - a):
                for c in range(13 - a - b):
                    cls = (a, b, c)
                    if sum(cls) % 2 or sum(cls) == 0:
                        continue
                    assert w_threefold(WelschingerQuery("deg6", cls, 0), guard) == 0
                    checked += 1
        for a in range(1, 7):
            for c in range(0, 13 - a, 2):
                if constraint_count(FAMILIES["deg6t"], (a, c)) < 1:
                    continue
                assert w_threefold(WelschingerQuery("deg6t", (a, c), 0), guard) == 0
                checked += 1
        assert checked > 100


def test_criterion_8_property_suites(store):
    with criterion(8, "structural property suites"):
        rng = random.Random(101)
        # monodromy symmetry of both backends on the table fiber members
        surface = SURFACES["qx2"]
        for _, members in TABLE2.values():
            for member, _, want in members:
                twin = monodromy(surface, member)
                assert gw_surface(surface, twin) == want
                for cls in (member, twin):
                    try:
                        pc = polygon_of("qx2", cls)
                    except DegeneratePolygonError:
                        continue
                    assert fd_count_complex(pc) == want

        # pushforward is monodromy-invariant; members lose one constraint
        sampled = 0
        while sampled < 200:
            family = rng.choice(list(FAMILIES.values()))
            if family.id == "deg8":
                d = (rng.randrange(1, 9),)
            elif family.id == "deg7":
                d = (rng.randrange(1, 8), rng.randrange(0, 7))
            elif family.id == "deg6":
                d = tuple(rng.randrange(0, 6) for _ in range(3))
            else:
                d = (rng.randrange(1, 5), rng.randrange(0, 8))
            members = fiber(family, d)
            k_d = constraint_count(family, d)
            for member in members:
                assert push_forward(family, monodromy(family.surface, member)) == d
                assert constraint_count(family.surface, member) == k_d - 1
                sampled += 1

        # permutation symmetry of the standard product family
        for cls in ((3, 2, 1), (4, 2, 0), (2, 2, 2), (3, 3, 1)):
            want_gw = gw_threefold("deg6", cls)
            vanish = w_vanishes_a_priori("deg6", cls)
            for perm in itertools.permutations(cls):
                assert gw_threefold("deg6", perm) == want_gw
                assert w_vanishes_a_priori("deg6", perm) == vanish

        # the closed forms equal the full-fiber sum on every answerable table query
        queries = [("deg7", key, 0) for key in TABLE3_L0]
        queries += [("deg6", cls, 0) for cls in TABLE4_L0]
        queries += [("deg7", (2 * k + 1, k), l)
                    for k in range(5) for l in PLANE_W[k + 1]]
        for fam, cls, l in queries:
            query = WelschingerQuery(fam, cls, l)
            try:
                reduced = w_threefold(query, store)
            except DataUnavailableError:
                continue
            assert w_fiber_sum(query, store) == reduced

        # real counts sit under the complex counts with equal parity
        for surf, cls in (("p2", (4,)), ("q", (3, 3)), ("qx1", (2, 3, 2)),
                          ("qx2", (3, 3, 1, 2)), ("qx2", (2, 2, 1, 1))):
            pc = polygon_of(surf, cls)
            total, real = fd_count_complex(pc), fd_count_real_l0(pc)
            assert abs(real) <= total and (real - total) % 2 == 0

        # sign exponents pair under monodromy; enhancement shift on the
        # orientable-side families
        for fam in ("deg8", "deg7", "deg6", "deg6t"):
            data = SIGN_DATA[fam]
            surf = data.family.surface
            for _ in range(100):
                d = tuple(rng.randrange(-3, 6) for _ in range(surf.rank))
                ds = pair(surf, d, surf.vanishing_cycle)
                twin = monodromy(surf, d)
                if ds % 2:
                    assert sign_exponent(fam, twin) == sign_exponent(fam, d)
                if ds != 0:
                    assert epsilon(data, twin) == (epsilon(data, d) + 1) % 2
                if fam in ("deg8", "deg7"):
                    shift = (qqe_eval(data.enhancement, rho(data, twin))
                             - qqe_eval(data.enhancement, rho(data, d))) % 2
                    assert shift == ds % 2
                pipeline_fam = fam in ("deg8", "deg7")
                if pipeline_fam and ds % 2:
                    three_term = (epsilon(data, d) + genus(surf, d)
                                  + qqe_eval(data.enhancement, rho(data, d))) % 2
                    assert three_term == sign_exponent(fam, d)

        for degree in (5, 6, 7, 8):
            assert singular_fiber_count(degree) == 4


def test_criterion_9_ingested_columns():
    with criterion(9, "pair-count columns from the shipped fixture"):
        store = Store(cache_dir=None)   # bundled fixtures load here
        for (d, k), column in TABLE3_COLUMNS.items():
            for l, want in column.items():
                assert l <= 8
                got = w_threefold(WelschingerQuery("deg7", (d, k), l), store)
                assert got == want, ((d, k), l, got, want)
        # user-ingested tables keep the observation identities, and the closed
        # forms agree with the full-fiber sum
        _synthetic_l1_table(store)
        for d in (3, 5, 7):
            query0 = WelschingerQuery("deg7", (d, 0), 1)
            query1 = WelschingerQuery("deg7", (d, 1), 1)
            left = w_threefold(query0, store)
            assert left == -w_threefold(query1, store)
            assert w_fiber_sum(query0, store) == left
            gw = gw_threefold("deg7", (d, 0))
            assert (left - gw) % 2 == 0 and abs(left) <= gw
