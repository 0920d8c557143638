import itertools
import random

import pytest

from golden import TABLE2, TABLE3_L0, TABLE4_L0, TABLE5_SPOT
from oracles import w_fiber_sum
from pezzo.combine import (
    WelschingerQuery,
    gw_threefold,
    gw_vanishes_a_priori,
    positivity_report,
    w_threefold,
    w_vanishes_a_priori,
)
from pezzo.errors import DataUnavailableError, DomainError, WQueryError
from pezzo.lattice import FAMILIES, fiber, pair
from pezzo.store import InvariantKey, Store


def test_gw_threefold_examples():
    assert gw_threefold("deg6", (3, 3, 3)) == 728
    assert gw_threefold("deg6", (4, 4, 4)) == 359136
    assert gw_threefold("deg8", 2) == 0
    assert gw_threefold("deg8", 1) == 1
    assert gw_threefold("deg6", (3, 1, 1)) == 0


def test_gw_threefold_table2():
    for cls, (want, _) in TABLE2.items():
        assert gw_threefold("deg6", cls) == want


def test_gw_threefold_rejects_twisted():
    with pytest.raises(DomainError):
        gw_threefold("deg6t", (3, 3))


def test_query_checks_its_family():
    with pytest.raises(DomainError):
        WelschingerQuery("deg9", (1,), 0)
    # a family record builds the query of its id
    assert WelschingerQuery(FAMILIES["deg7"], [5, 2], 1) == WelschingerQuery("deg7", (5, 2), 1)


def test_gw_threefold_permutation_symmetry():
    rng = random.Random(13)
    for _ in range(30):
        cls = tuple(rng.randrange(0, 5) for _ in range(3))
        if sum(cls) == 0:
            continue
        base = gw_threefold("deg6", cls)
        for perm in itertools.permutations(cls):
            assert gw_threefold("deg6", perm) == base


def test_half_sum_integrality():
    # the (D.S)^2-weighted sum over the whole fiber, pairing each member with
    # S, is even, and gw_threefold's sum over one member per monodromy pair
    # is exactly half of it
    from pezzo.gw import gw_surface
    classes = [("deg6", cls) for cls in itertools.product(range(4), repeat=3) if sum(cls)]
    classes += [("deg7", (a, k)) for a in range(1, 8) for k in range(-1, a + 2)]
    classes += [("deg8", (a,)) for a in range(-1, 12)]
    for family_id, cls in classes:
        family = FAMILIES[family_id]
        surface = family.surface
        total = 0
        for member in fiber(family, cls):
            ds = pair(surface, member, surface.vanishing_cycle)
            total += ds * ds * gw_surface(surface, member)
        assert total % 2 == 0, (family_id, cls)
        assert gw_threefold(family, cls) == total // 2, (family_id, cls)


def test_w_threefold_examples(store):
    assert w_threefold(WelschingerQuery("deg7", (5, 0), 0), store) == 45
    assert w_threefold(WelschingerQuery("deg6", (3, 3, 3), 0), store) == 216


def test_w_threefold_table_rows(store):
    for (d, k), want in TABLE3_L0.items():
        assert w_threefold(WelschingerQuery("deg7", (d, k), 0), store) == want
    for cls, want in TABLE4_L0.items():
        assert w_threefold(WelschingerQuery("deg6", cls, 0), store) == want


def test_w_threefold_twisted_from_ingested(tmp_path, store):
    rows = [
        "space,c1,c2,c3,l,value",
        "qx2t,1,0,1,0,1",    # forced by bound and parity with complex count 1
        "qx2t,3,0,3,2,0",    # consistent split of the -28 target
        "qx2t,3,1,2,2,28",
    ]
    path = tmp_path / "twisted.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    report = store.ingest_csv(str(path), "qx2t")
    assert report.inserted == 3 and not report.rejected
    for (cls, pairs), want in TABLE5_SPOT.items():
        assert w_threefold(WelschingerQuery("deg6t", cls, pairs), store) == want


def test_w_threefold_missing_data_lists_keys(bare_store):
    with pytest.raises(DataUnavailableError) as err:
        w_threefold(WelschingerQuery("deg6t", (3, 3), 0), bare_store)
    spaces = {key.space for key in err.value.keys}
    assert spaces == {"qx2t"}
    # both fiber members with nonzero complex count are reported at once
    assert len(err.value.keys) == 2


def test_w_threefold_pair_bound(bare_store):
    with pytest.raises(WQueryError):
        w_threefold(WelschingerQuery("deg7", (5, 0), 5), bare_store)
    with pytest.raises(WQueryError):
        w_threefold(WelschingerQuery("deg6", (3, 3, 3), -1), bare_store)
    # l = (k_d - 1)/2 is the last admissible row (k_d = 8 here)
    assert w_threefold(WelschingerQuery("deg8", (4,), 3), Store(cache_dir=None)) == 0
    with pytest.raises(WQueryError):
        w_threefold(WelschingerQuery("deg8", (4,), 4), bare_store)


def test_w_vanishes_a_priori():
    assert w_vanishes_a_priori("deg8", (4,))
    assert not w_vanishes_a_priori("deg8", (5,))
    assert w_vanishes_a_priori("deg7", (6, 1))
    assert w_vanishes_a_priori("deg6", (4, 4, 2))
    assert not w_vanishes_a_priori("deg6", (4, 3, 2))
    assert w_vanishes_a_priori("deg6", (5, 2, 1))       # support: 5 > 3
    assert not w_vanishes_a_priori("deg6", (1, 0, 0))   # line classes survive
    assert not w_vanishes_a_priori("deg6t", (3, 5))
    assert w_vanishes_a_priori("deg6t", (3, 4))
    assert w_vanishes_a_priori("deg6t", (1, 3))


def test_w_threefold_builds_the_line_once(monkeypatch, store, bare_store):
    calls = []
    for family in list(FAMILIES.values()):
        def line(d, line=family.line):
            calls.append(d)
            return line(d)
        monkeypatch.setitem(FAMILIES, family.id, family._replace(line=line))
    queries = [
        (WelschingerQuery("deg8", (5,), 0), store),
        (WelschingerQuery("deg8", (4,), 0), store),         # vanishes: odd line length
        (WelschingerQuery("deg7", (5, 2), 1), store),
        (WelschingerQuery("deg6", (2, 3, 3), 0), store),
        (WelschingerQuery("deg6", (5, 2, 1), 0), store),    # vanishes: support
        (WelschingerQuery("deg6t", (1, 1), 0), bare_store),  # missing data
    ]
    for n, (query, source) in enumerate(queries, start=1):
        try:
            w_threefold(query, source)
        except DataUnavailableError:
            pass
        assert len(calls) == n, query


def test_w_vanishing_needs_no_data(exploding_store):
    # parity or support vanishing must answer before any store access
    assert w_threefold(WelschingerQuery("deg8", (4,), 1), exploding_store) == 0
    assert w_threefold(WelschingerQuery("deg6", (4, 4, 2), 3), exploding_store) == 0
    assert w_threefold(WelschingerQuery("deg6t", (2, 4), 1), exploding_store) == 0


def test_gw_vanishes_a_priori():
    assert gw_vanishes_a_priori("deg6", (3, 1, 1))
    assert not gw_vanishes_a_priori("deg6", (1, 0, 0))
    assert not gw_vanishes_a_priori("deg6", (2, 2, 2))
    with pytest.raises(DomainError):
        gw_vanishes_a_priori("deg8", (2,))


def test_a_priori_vanishing_matches_computation():
    rng = random.Random(41)
    seen = 0
    while seen < 50:
        a = rng.randrange(1, 7)
        b = rng.randrange(0, a + 1)
        c = rng.randrange(0, b + 1)
        if a < b + c or a + b + c <= 1:
            continue
        cls = tuple(rng.sample([a, b, c], 3))
        assert gw_vanishes_a_priori("deg6", cls)
        assert gw_threefold("deg6", cls) == 0
        seen += 1


def test_generic_equals_reduced(tmp_path):
    # the closed forms agree with the full-fiber sum of tests/oracles.py
    store = Store(cache_dir=None)
    rows = [
        "space,c1,c2,c3,l,value",
        "qx2t,0,-1,0,0,1",   # exceptional curve: the fiber of the line class (0;1)
        "qx2t,1,0,1,0,1",
        "qx2t,3,0,3,2,0",
        "qx2t,3,1,2,2,28",
    ]
    path = tmp_path / "twisted.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert store.ingest_csv(str(path), "qx2t").inserted == 4
    queries = [("deg8", (d,), 0) for d in (1, 3, 5, 7)]
    queries += [("deg7", (d, k), 0) for d in (1, 3, 5, 7) for k in range(d + 1)]
    queries += [("deg6", cls, 0) for cls in TABLE4_L0]
    queries += [("deg7", (2 * k + 1, k), l)
                for k in range(5) for l in range(((2 * k + 1) * 2 - k - 1) // 2 + 1)]
    # k_d = 2a + c for deg6t; stay within the allowed pair counts
    queries += [("deg6t", (a, c), l) for a in range(4) for c in range(1, 2 * a + 2, 2)
                for l in range(min(3, (2 * a + c - 1) // 2 + 1))]
    answered = set()
    for fam, cls, l in queries:
        query = WelschingerQuery(fam, cls, l)
        try:
            reduced = w_threefold(query, store)
        except DataUnavailableError:
            continue
        assert w_fiber_sum(query, store) == reduced, (fam, cls, l)
        answered.add((fam, cls, l))
    assert {("deg6t", (0, 1), 0), ("deg6t", (1, 1), 0), ("deg6t", (3, 3), 2)} <= answered


def test_w_permutation_symmetry(store):
    for cls in ((3, 2, 2), (1, 0, 0), (3, 3, 1), (4, 3, 2)):
        base = w_threefold(WelschingerQuery("deg6", cls, 0), store)
        for perm in itertools.permutations(cls):
            assert w_threefold(WelschingerQuery("deg6", perm, 0), store) == base


def test_parity_of_real_and_complex_counts(store):
    for (d, k), want in TABLE3_L0.items():
        assert (want - gw_threefold("deg7", (d, k))) % 2 == 0
    for cls, want in TABLE4_L0.items():
        assert (want - gw_threefold("deg6", cls)) % 2 == 0
    # twisted family against the structure-independent complex count
    for (cls, pairs), want in TABLE5_SPOT.items():
        a, c = cls
        assert (want - gw_threefold("deg6", (a, a, c))) % 2 == 0


def test_deg7_observations_l0(store):
    for d in (1, 3, 5, 7, 9):
        left = w_threefold(WelschingerQuery("deg7", (d, 0), 0), store)
        right = w_threefold(WelschingerQuery("deg7", (d, 1), 0), store)
        assert left == -right
    # vanishing columns from d = 3 on; the d = k = 1 class is a line class
    for d in (3, 5, 7, 9):
        for k in range((d + 1) // 2, d + 1):
            assert w_threefold(WelschingerQuery("deg7", (d, k), 0), store) == 0


def test_positivity_report_clean(store):
    assert positivity_report(9, store) == []


def test_positivity_report_lists_a_negative_entry():
    # a stored W(qx2; 1,0,0,1; l=0) = -1 keeps the parity and bound of its
    # complex count 1, so it is served, and the deg6 class (1,0,0) sums to it
    store = Store(load_fixtures=False)
    store.insert(InvariantKey("W", "qx2", (1, 0, 0, 1), 0), -1)
    assert positivity_report(6, store) == [((1, 0, 0), 0, -1)]
