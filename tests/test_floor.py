import gc
import itertools
import random
from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import _prufer_tree, enumerate_diagrams_scan, gw_p2, marking_count_dp
from pezzo.errors import DegeneratePolygonError, DomainError
from pezzo.floor import (
    FloorDiagram,
    PolygonClass,
    _Markings,
    _prufer_code,
    enumerate_diagrams,
    fd_count_complex,
    fd_count_real_l0,
    polygon_of,
)
from pezzo.gw import gw_surface
from pezzo.lattice import SURFACES, constraint_count


def test_polygon_examples():
    tri = polygon_of("p2", (3,))
    assert tri.slabs == ((0, 1),) * 3
    assert tri.d_b == 3 and tri.d_t == 0 and tri.height == 3

    sq = polygon_of("q", (2, 2))
    assert sq.slabs == ((0, 0),) * 2
    assert sq.d_b == sq.d_t == 2

    hexagon = polygon_of("qx2", (2, 2, 1, 2))
    # the cut alpha = 1 is a left step on the bottom slab, beta = 2 a right step on both
    assert hexagon.slabs == ((1, 1), (0, 1))
    assert hexagon.d_b == 1 and hexagon.d_t == 0


def test_polygon_degenerate():
    with pytest.raises(DegeneratePolygonError):
        polygon_of("qx2", (2, 2, 0, 3))
    with pytest.raises(DegeneratePolygonError):
        polygon_of("p2", (0,))
    with pytest.raises(DegeneratePolygonError):
        polygon_of("qx2", (0, 0, 0, -1))
    with pytest.raises(DomainError):
        polygon_of("p2x1", (3, 1))
    for token in ("qx2t", "nope"):  # not a surface of the lattice
        with pytest.raises(DomainError, match=f"no Newton polygon for surface '{token}'"):
            polygon_of(token, (1, 0, 1))
    # polygon_of raises first on such a class; a hand-built polygon meets this guard
    with pytest.raises(DegeneratePolygonError, match="zero height"):
        next(enumerate_diagrams(PolygonClass("p2", (0,), (), 0, 0)))


def test_marked_points_match_constraints():
    for surface, cls in (("p2", (3,)), ("q", (2, 3)), ("qx1", (2, 2, 1)),
                         ("qx2", (3, 3, 1, 2))):
        pc = polygon_of(surface, cls)
        k = constraint_count(SURFACES[surface], cls)
        for diag in enumerate_diagrams(pc):
            points = (diag.floors + len(diag.edges)
                      + sum(diag.down) + sum(diag.up))
            assert points == k


def test_complex_counts_small():
    assert fd_count_complex(polygon_of("p2", (3,))) == 12
    assert fd_count_complex(polygon_of("qx2", (2, 2, 1, 2))) == 1
    assert fd_count_complex(polygon_of("q", (1, 1))) == 1


def test_real_counts_pinned():
    assert fd_count_real_l0(polygon_of("p2", (3,))) == 8
    assert fd_count_real_l0(polygon_of("p2", (4,))) == 240
    assert fd_count_real_l0(polygon_of("p2", (5,))) == 18264


def test_backend_equivalence_small():
    # plane degrees against the independent recursion
    for d in range(1, 6):
        assert fd_count_complex(polygon_of("p2", (d,))) == gw_p2(d)
    # quadric-side classes against the lattice backend
    for a in range(4):
        for b in range(4):
            for al in range(3):
                for be in range(3):
                    cls = (a, b, al, be)
                    try:
                        pc = polygon_of("qx2", cls)
                    except DegeneratePolygonError:
                        continue
                    assert fd_count_complex(pc) == gw_surface("qx2", cls), cls


def _shape(surface, cls):
    try:
        pc = polygon_of(surface, cls)
    except DegeneratePolygonError:
        return None
    return pc.slabs, pc.d_b, pc.d_t


def test_blowdown_compatibility():
    # the once- and twice-blown models restrict the same counts
    for a in range(4):
        for b in range(4):
            if a + b == 0:
                continue
            for k in range(min(a, b) + 1):
                left = fd_count_complex(polygon_of("qx1", (a, b, k)))
                right = fd_count_complex(polygon_of("qx2", (a, b, 0, k)))
                assert left == right, (a, b, k)
    # q and qx1 are qx2 with zero cuts: same polygon, same lattice count
    for a, b, k in itertools.product(range(9), repeat=3):
        if a + b > 8:
            continue
        assert _shape("q", (a, b)) == _shape("qx2", (a, b, 0, 0)), (a, b)
        assert gw_surface("q", (a, b)) == gw_surface("qx2", (a, b, 0, 0)), (a, b)
        assert _shape("qx1", (a, b, k)) == _shape("qx2", (a, b, 0, k)), (a, b, k)
        assert gw_surface("qx1", (a, b, k)) == gw_surface("qx2", (a, b, 0, k)), (a, b, k)


def test_monodromy_swaps_cuts():
    for a in range(1, 4):
        for b in range(1, 4):
            for al in range(min(a, b) + 1):
                for be in range(min(a, b) + 1):
                    one = polygon_of("qx2", (a, b, al, be))
                    two = polygon_of("qx2", (a, b, be, al))
                    assert fd_count_complex(one) == fd_count_complex(two)
                    assert fd_count_real_l0(one) == fd_count_real_l0(two)


def _oracle_sweep():
    """p2 up to degree 5 and every q/qx1/qx2 class with at most 11 point
    constraints that has a Newton polygon."""
    classes = [("p2", (d,)) for d in range(1, 6)]
    classes += [("q", (a, b)) for a in range(7) for b in range(7)
                if 0 < 2 * (a + b) - 1 <= 12]
    classes += [("qx1", (a, b, k)) for a in range(7) for b in range(7)
                for k in range(min(a, b) + 1)]
    classes += [("qx2", (a, b, al, be)) for a in range(7) for b in range(7)
                for al in range(min(a, b) + 1) for be in range(min(a, b) + 1)]
    for surface, cls in classes:
        if constraint_count(SURFACES[surface], cls) > 11:
            continue
        try:
            yield polygon_of(surface, cls)
        except DegeneratePolygonError:
            continue


def test_real_count_equals_full_enumeration_oracle():
    # the odd-only real count against the real multiplicity summed over
    # every diagram, even weights included
    checked = 0
    for pc in _oracle_sweep():
        full = sum(diag.decorations * diag.markings
                   * all(w % 2 for _, _, w in diag.edges)
                   for diag in enumerate_diagrams(pc))
        assert fd_count_real_l0(pc) == full, (pc.surface_id, pc.class_vec)
        checked += 1
    assert checked > 250


def _same_as_scan(pc):
    for real in (False, True):
        live = [diag.dump_line() for diag in enumerate_diagrams(pc, real=real)]
        scan = [diag.dump_line() for diag in enumerate_diagrams_scan(pc, real=real)]
        assert live == scan, (pc.surface_id, pc.class_vec, real)


def test_enumeration_equals_tree_scan_oracle():
    # the floor-by-floor build yields the scan's diagrams in the scan's order
    for pc in _oracle_sweep():
        _same_as_scan(pc)


@st.composite
def _small_polygons(draw):
    surface = draw(st.sampled_from(["p2", "q", "qx1", "qx2"]))
    if surface == "p2":
        return polygon_of("p2", (draw(st.integers(1, 4)),))
    a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    assume(a + b > 0)
    cuts = [draw(st.integers(0, min(a, b))) for _ in range(SURFACES[surface].rank - 2)]
    return polygon_of(surface, (a, b, *cuts))


@settings(max_examples=60, deadline=None, database=None)
@given(_small_polygons())
def test_enumeration_equals_tree_scan_on_random_polygons(pc):
    _same_as_scan(pc)


def test_real_enumeration_is_the_odd_weight_subset():
    for surface, cls in (("p2", (4,)), ("q", (2, 3)), ("qx1", (2, 3, 1)),
                         ("qx2", (3, 3, 1, 2))):
        pc = polygon_of(surface, cls)
        full = list(enumerate_diagrams(pc))
        odd = [diag.dump_line() for diag in full
               if all(w % 2 for _, _, w in diag.edges)]
        assert len(odd) < len(full), cls  # some diagram has an even weight
        assert [diag.dump_line() for diag in enumerate_diagrams(pc, real=True)] == odd


def test_real_parity_and_bound():
    classes = [("p2", (d,)) for d in range(1, 5)]
    classes += [("q", (a, b)) for a in range(1, 4) for b in range(1, 4)]
    classes += [("qx2", (a, b, al, be))
                for a in range(1, 4) for b in range(1, 4)
                for al in range(min(a, b) + 1) for be in range(min(a, b) + 1)]
    for surface, cls in classes:
        pc = polygon_of(surface, cls)
        cplx = fd_count_complex(pc)
        real = fd_count_real_l0(pc)
        assert abs(real) <= cplx
        assert (real - cplx) % 2 == 0


def _brute_markings(n_floors, items):
    """Independent marking oracle: enumerate per-type gap multisets, then
    count distinct within-gap arrangements by multinomials."""
    choice_sets = [
        list(itertools.combinations_with_replacement(range(lo, hi + 1), c))
        for lo, hi, c in items if c
    ]
    total = 0
    for pick in itertools.product(*choice_sets):
        per_gap = Counter()
        arrangements = 1
        for type_idx, gaps in enumerate(pick):
            for g in gaps:
                per_gap[g] += 1
        by_gap_types = {}
        for type_idx, gaps in enumerate(pick):
            for g in gaps:
                by_gap_types.setdefault(g, Counter())[type_idx] += 1
        for g, types in by_gap_types.items():
            k = sum(types.values())
            arrangements *= factorial(k) // prod(factorial(v) for v in types.values())
        total += arrangements
    return total


def _marking_items(n, edges, down, up):
    """The marked objects of a diagram as the oracles' (lo, hi, count) gap
    ranges: an edge (i, j) between floors i and j, the lower ends of floor f
    below it, its upper ends above it."""
    items = [(i + 1, j, 1) for i, j, *_ in edges]
    items += [(0, f, down[f]) for f in range(n)]
    items += [(f + 1, n, up[f]) for f in range(n)]
    return items


def test_marking_count_against_brute_force():
    # every diagram of a few small polygons, checked object by object.
    # Diagrams that differ only in their weights share one oracle call.
    checked = 0
    for surface, cls in (("p2", (3,)), ("p2", (5,)), ("p2", (6,)), ("q", (2, 2)),
                         ("qx1", (2, 2, 1)), ("qx2", (3, 2, 1, 2)), ("qx2", (2, 2, 1, 1)),
                         ("qx2", (2, 2, 0, 1))):
        pc = polygon_of(surface, cls)
        n = pc.height
        oracle = {}
        for diag in enumerate_diagrams(pc):
            shape = (tuple((i, j) for i, j, _ in diag.edges), diag.down, diag.up)
            if shape not in oracle:
                oracle[shape] = _brute_markings(n, _marking_items(n, *shape))
            assert diag.markings == oracle[shape]
            checked += 1
    assert checked > 1400


@st.composite
def _diagram_shapes(draw):
    n = draw(st.integers(1, 6))
    code = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    tree = () if n == 1 else _prufer_tree(code, n)
    down, up = (Counter(draw(st.lists(st.integers(0, n - 1), max_size=2))) for _ in "du")
    return n, tree, tuple(down[f] for f in range(n)), tuple(up[f] for f in range(n))


@settings(max_examples=200, deadline=None, database=None)
@given(_diagram_shapes())
def test_marking_count_equals_dp_oracle(case):
    n, tree, down, up = case
    markings = _Markings(2 * n - 1 + sum(down) + sum(up))
    items = _marking_items(n, tree, down, up)
    assert (markings.count(tree, markings.pack(down), down, up)
            == marking_count_dp(n, items) == _brute_markings(n, items))


def _check_monomials(n, tree):
    markings = _Markings(2 * n - 1)
    # 2^edges distinct monomials, coefficients +-1
    monomials = markings._monomials(tree)
    assert len({a for a, _ in monomials}) == len(monomials) == 1 << len(tree)
    assert {c for _, c in monomials} <= {1, -1}
    zero = (0,) * n
    assert (markings.count(tree, markings.pack(zero), zero, zero)
            == marking_count_dp(n, _marking_items(n, tree, zero, zero))), tree


def test_monomials_on_every_small_tree():
    # every labeled tree on 1..6 floors: n^(n-2) of each size
    checked = 0
    for n in range(1, 7):
        for code in itertools.product(range(n), repeat=max(n - 2, 0)):
            _check_monomials(n, () if n == 1 else _prufer_tree(code, n))
            checked += 1
    assert checked == 1 + 1 + 3 + 16 + 125 + 1296


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(7, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=n - 2,
                                             max_size=n - 2))))
def test_monomials_on_random_large_trees(case):
    n, code = case
    _check_monomials(n, _prufer_tree(code, n))


def test_backend_equivalence_extended():
    # beyond the acceptance range: every class on the twice-blown quadric
    # with bidegree up to (4, 4) and all admissible cuts
    for a in range(5):
        for b in range(5):
            if a + b == 0:
                continue
            for al in range(min(a, b) + 1):
                for be in range(min(a, b) + 1):
                    cls = (a, b, al, be)
                    pc = polygon_of("qx2", cls)
                    assert fd_count_complex(pc) == gw_surface("qx2", cls), cls


def test_dump_line_format():
    pc = polygon_of("p2", (2,))
    lines = [diag.dump_line() for diag in enumerate_diagrams(pc)]
    assert lines == [
        "floors=2 div=1,1 edges=0-1:1 down=2,0 up=0,0 decorations=1 markings=1"
    ]


def test_prufer_code_inverts_the_oracle_decoder():
    # every labeled tree on 3..7 floors, its edges in random order with
    # random odd weights: the code read back is the code it was decoded from
    rng = random.Random(24)
    checked = 0
    for n in range(3, 8):
        for code in itertools.product(range(n), repeat=n - 2):
            edges = [(i, j, 2 * rng.randrange(4) + 1) for i, j in _prufer_tree(code, n)]
            rng.shuffle(edges)
            assert _prufer_code(edges, n) == code, (code, edges)
            checked += 1
    assert checked == 3 + 16 + 125 + 1296 + 16807


def test_floor_diagram_is_an_immutable_record():
    # built positionally, as tests/oracles.py builds it
    diag = FloorDiagram(3, (1, 0, -1), ((0, 1, 1), (1, 2, 3)), (2, 0, 0), (0, 0, 1), 7, 2)
    with pytest.raises(AttributeError):
        diag.markings = 8
    twin = FloorDiagram(3, (1, 0, -1), ((0, 1, 1), (1, 2, 3)), (2, 0, 0), (0, 0, 1), 7, 2)
    assert twin == diag and hash(twin) == hash(diag) and len({diag, twin}) == 1
    assert diag != FloorDiagram(3, (1, 0, -1), ((0, 1, 1), (1, 2, 3)), (2, 0, 0), (0, 0, 1), 8, 2)
    assert FloorDiagram(2, (1, 1), ((0, 1, 1),), (2, 0), (0, 0), 1).decorations == 1
    assert diag.dump_line() == (
        "floors=3 div=1,0,-1 edges=0-1:1,1-2:3 down=2,0,0 up=0,0,1 decorations=2 markings=7")
    assert FloorDiagram(1, (0,), (), (1,), (1,), 1).dump_line() == (
        "floors=1 div=0 edges=- down=1 up=1 decorations=1 markings=1")


def test_real_count_leaves_no_cyclic_garbage():
    # the weighting build's recursive closure must not keep its results alive
    # until a collection: with the collector off, none may be left to find
    pc = polygon_of("qx2", (5, 5, 2, 3))
    gc.collect()
    gc.disable()
    try:
        assert fd_count_real_l0(pc) == 23698434
        assert gc.collect() == 0
    finally:
        gc.enable()
