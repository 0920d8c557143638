import itertools
import random
import re

import pytest

from pezzo.errors import (
    DomainError,
    ParityError,
    RankMismatchError,
    UnsupportedLatticeError,
)
from pezzo.gw import canonical_class, gw_surface
from pezzo.lattice import (
    DEG6,
    DEG6T,
    DEG7,
    DEG8,
    FAMILIES,
    SURFACES,
    Q,
    QX1,
    QX2,
    SurfaceLattice,
    ThreefoldFamily,
    constraint_count,
    cremona,
    fiber,
    genus,
    monodromy,
    pair,
    plane_to_quadric,
    push_forward,
    quadric_coords,
    quadric_to_plane,
    singular_fiber_count,
)
from pezzo.store import InvariantKey


# The reference forms, written out: Gram matrices in the stored basis
# (multiplicities positive, so the exceptional classes square to -1), and
# the canonical classes with their numbers of blow-ups.
def _diag_gram(rank):
    return [[(1 if i == j == 0 else -1 if i == j else 0) for j in range(rank)]
            for i in range(rank)]


def _q_gram(rank):
    return [[(1 if {i, j} == {0, 1} else -1 if i == j >= 2 else 0) for j in range(rank)]
            for i in range(rank)]


REFERENCE = {
    # id: (Gram matrix, canonical class, blow-ups, degree K^2)
    "p2": (_diag_gram(1), (-3,), 0, 9),
    "p2x1": (_diag_gram(2), (-3, -1), 1, 8),
    "p2x2": (_diag_gram(3), (-3, -1, -1), 2, 7),
    "p2x3": (_diag_gram(4), (-3, -1, -1, -1), 3, 6),
    "q": (_q_gram(2), (-2, -2), 0, 8),
    "qx1": (_q_gram(3), (-2, -2, -1), 1, 7),
    "qx2": (_q_gram(4), (-2, -2, -1, -1), 2, 6),
}


def test_forms_match_reference():
    assert set(REFERENCE) == set(SURFACES)
    rng = random.Random(29)
    for surface_id, (gram, canonical, blowups, degree) in REFERENCE.items():
        surface = SURFACES[surface_id]
        assert surface.canonical == canonical
        assert surface.blowups == blowups
        assert surface.degree == degree
        for _ in range(200):
            d1, d2 = (tuple(rng.randrange(-9, 13) for _ in range(surface.rank))
                      for _ in range(2))
            want = sum(d1[i] * gram[i][j] * d2[j]
                       for i in range(surface.rank) for j in range(surface.rank))
            assert pair(surface, d1, d2) == want, (surface_id, d1, d2)


def test_pair_examples():
    assert pair(Q, (1, 0), (0, 1)) == 1
    assert pair(Q, (1, -1), (1, -1)) == -2
    assert pair(QX2, (3, 3, 1, 2), (3, 3, 1, 2)) == 13


def test_pair_symmetric_and_rank_checked():
    assert pair(QX2, (1, 2, 0, 1), (3, 1, 1, 0)) == pair(QX2, (3, 1, 1, 0), (1, 2, 0, 1))
    with pytest.raises(RankMismatchError):
        pair(Q, (1, 0, 0), (0, 1))


# each public entry that checks its class and hands it on to a kernel:
# (call, a class it accepts, the error of that class less its last entry)
_RANK = "{}: expected rank {}, got vector of length {}"
CHECKED_ENTRIES = {
    "pair-first": (lambda d: pair(QX2, d, (1, 2, 0, 1)), (3, 3, 1, 2),
                   RankMismatchError, _RANK.format("qx2", 4, 3)),
    "pair-second": (lambda d: pair(Q, (1, 0), d), (2, 3), RankMismatchError,
                    _RANK.format("q", 2, 1)),
    "monodromy": (lambda d: monodromy(QX1, d), (3, 1, 2), RankMismatchError,
                  _RANK.format("qx1", 3, 2)),
    "quadric_coords": (lambda d: quadric_coords(QX1, d), (3, 2, 1), RankMismatchError,
                       _RANK.format("qx1", 3, 2)),
    "quadric_to_plane": (quadric_to_plane, (3, 3, 1, 2), RankMismatchError,
                         _RANK.format("qx2", 4, 3)),
    "canonical_class-q": (lambda d: canonical_class(QX2, d), (3, 3, 2, 1), RankMismatchError,
                          _RANK.format("qx2", 4, 3)),
    "canonical_class-p2": (lambda d: canonical_class(SURFACES["p2x3"], d), (4, 1, 2, 0),
                           RankMismatchError, _RANK.format("p2x3", 4, 3)),
    "gw_surface-qx2": (lambda d: gw_surface("qx2", d), (3, 3, 1, 2), RankMismatchError,
                       _RANK.format("qx2", 4, 3)),
    "gw_surface-qx1": (lambda d: gw_surface(QX1, d), (3, 2, 1), RankMismatchError,
                       _RANK.format("qx1", 3, 2)),
    "gw_surface-p2x2": (lambda d: gw_surface("p2x2", d), (4, 2, 1), RankMismatchError,
                        _RANK.format("p2x2", 3, 2)),
    "InvariantKey-W": (lambda d: InvariantKey("W", "qx2", d, 1), (3, 3, 2, 1), DomainError,
                       "space qx2: class [3, 3, 2] has length 3, want 4"),
    "InvariantKey-GW": (lambda d: InvariantKey("GW", "p2x3", d), (4, 1, 2, 0), DomainError,
                        "space p2x3: class [4, 1, 2] has length 3, want 4"),
}


@pytest.mark.parametrize("entry", sorted(CHECKED_ENTRIES))
def test_public_entries_check_their_class(entry):
    call, cls, error, text = CHECKED_ENTRIES[entry]
    # a list counts as its tuple, and a wrong length raises the error it always did
    assert call(list(cls)) == call(cls)
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(list(cls[:-1]))
    # an entry that is not an integer is an error, not truncated
    with pytest.raises(DomainError, match="not a vector of integers"):
        call((*cls[:-1], cls[-1] + 0.9))
    with pytest.raises(DomainError, match="not a vector of integers"):
        call((*cls[:-1], str(cls[-1])))


def test_lattice_degrees_and_cycles():
    for surface in SURFACES.values():
        base = 9 if surface.side == "p2" else 8
        assert surface.degree == base - surface.blowups
        s = surface.vanishing_cycle
        if s is not None:
            assert pair(surface, s, s) == -2
            assert pair(surface, surface.canonical, s) == 0


def test_constraint_count():
    assert constraint_count(DEG8, (1,)) == 2
    assert constraint_count(Q, (1, 0)) == 1
    assert constraint_count(DEG6, (3, 3, 3)) == 9
    assert constraint_count(QX2, (3, 3, 1, 2)) == 8


def test_quadric_coords_and_constraint_count_reject_other_inputs():
    with pytest.raises(DomainError, match="p2x1 is not a quadric-side surface"):
        quadric_coords(SURFACES["p2x1"], (3, 1))
    with pytest.raises(DomainError, match="unsupported space 'qx2'"):
        constraint_count("qx2", (3, 3, 1, 2))  # a token, not a lattice record


def test_constraint_count_parity_error():
    odd = ThreefoldFamily("odd", 1, Q, ((1, 1),), (1,), "q", DEG8.line)
    with pytest.raises(ParityError):
        constraint_count(odd, (1,))


def test_genus_examples():
    assert genus(Q, (1, 0)) == 0
    assert genus(Q, (2, 2)) == 1
    assert genus(QX2, (3, 3, 1, 2)) == 3


def test_monodromy_examples():
    assert monodromy(Q, (3, 1)) == (1, 3)
    assert monodromy(Q, (1, -1)) == (-1, 1)
    assert monodromy(QX2, (3, 3, 1, 2)) == (3, 3, 2, 1)
    with pytest.raises(UnsupportedLatticeError):
        monodromy(SURFACES["p2"], (3,))
    # the order of the checks: the cycle first, the class after it
    with pytest.raises(UnsupportedLatticeError):
        monodromy(SURFACES["p2"], (3, 1))
    # a quadric-side lattice built without a cycle has no canonical class
    bare = SurfaceLattice("bare", 2, "q")
    with pytest.raises(UnsupportedLatticeError, match="^bare carries no vanishing cycle$"):
        canonical_class(bare, (2, 1))
    with pytest.raises(RankMismatchError):
        canonical_class(bare, (2,))


def test_monodromy_involution_and_invariants():
    rng = random.Random(7)
    for _ in range(200):
        surface = rng.choice([SURFACES["q"], SURFACES["qx1"], SURFACES["qx2"]])
        d = tuple(rng.randrange(-4, 7) for _ in range(surface.rank))
        t = monodromy(surface, d)
        s = surface.vanishing_cycle
        assert monodromy(surface, t) == d
        assert pair(surface, t, s) == -pair(surface, d, s)
        assert genus(surface, t) == genus(surface, d)
        assert constraint_count(surface, t) == constraint_count(surface, d)


def test_push_forward_examples():
    assert push_forward(DEG8, (2, 3)) == (5,)
    assert push_forward(DEG7, (2, 1, 1)) == (3, 1)
    assert push_forward(DEG6, (3, 3, 1, 2)) == (3, 3, 3)
    assert push_forward(DEG6T, (3, 3, 1, 2)) == (3, 3)


def test_push_forward_kills_vanishing_cycle():
    for family in FAMILIES.values():
        image = push_forward(family, family.surface.vanishing_cycle)
        assert all(x == 0 for x in image)


def test_push_forward_monodromy_compatible():
    rng = random.Random(11)
    for _ in range(200):
        family = rng.choice(list(FAMILIES.values()))
        d = tuple(rng.randrange(-4, 7) for _ in range(family.surface.rank))
        assert push_forward(family, monodromy(family.surface, d)) == push_forward(family, d)


def test_fiber_examples():
    assert set(fiber(DEG8, (1,))) == {(1, 0), (0, 1)}
    assert set(fiber(DEG6, (2, 2, 1))) == {
        (2, 2, 0, 3), (2, 2, 1, 2), (2, 2, 2, 1), (2, 2, 3, 0)
    }
    # effectivity cutoffs leave only classes with vanishing invariants here
    members = fiber(DEG6, (3, 1, 1))
    assert {(3, 1, 2, 1), (3, 1, 1, 2)} <= set(members)
    assert fiber(DEG6, (1, 1, 5)) == []
    assert fiber(DEG8, (-1,)) == []


def test_fiber_members_push_and_count():
    rng = random.Random(3)
    checked = 0
    while checked < 200:
        family = rng.choice(list(FAMILIES.values()))
        if family.id == "deg8":
            d = (rng.randrange(1, 8),)
        elif family.id == "deg7":
            d = (rng.randrange(1, 8), rng.randrange(0, 6))
        elif family.id == "deg6":
            d = tuple(rng.randrange(0, 6) for _ in range(3))
        else:
            d = (rng.randrange(0, 5), rng.randrange(0, 7))
        members = fiber(family, d)
        k_d = constraint_count(family, d)
        for member in members:
            assert push_forward(family, member) == d
            assert constraint_count(family.surface, member) == k_d - 1
            checked += 1
        # closed under monodromy; even size unless a member is fixed
        as_set = set(members)
        assert {monodromy(family.surface, m) for m in members} == as_set
        s = family.surface.vanishing_cycle
        if all(pair(family.surface, m, s) != 0 for m in members):
            assert len(members) % 2 == 0


def test_fiber_is_complete():
    # independent of the line records: every class with a curve and D.S != 0
    # (and a = b on the twisted family) lies in the fiber over its image
    checked = 0
    for family in FAMILIES.values():
        surface = family.surface
        for d in itertools.product(range(-2, 8), repeat=surface.rank):
            if family.id == "deg6t" and d[0] != d[1]:
                continue
            if pair(surface, d, surface.vanishing_cycle) == 0 or gw_surface(surface, d) == 0:
                continue
            assert d in fiber(family, push_forward(family, d)), (family.id, d)
            checked += 1
    assert checked == 1050


def test_quadric_to_plane_examples():
    assert quadric_to_plane((3, 3, 1, 2)) == (5, 2, 2, 2)
    assert quadric_to_plane((1, 2, 0, 0)) == (3, 1, 2, 0)
    assert quadric_to_plane((2, 2, 1, 2)) == (3, 1, 1, 2)


def test_quadric_to_plane_preserves_counts():
    plane = SURFACES["p2x3"]
    rng = random.Random(23)
    for _ in range(200):
        d = tuple(rng.randrange(-5, 9) for _ in range(4))
        image = quadric_to_plane(d)
        assert constraint_count(plane, image) == constraint_count(QX2, d)
        assert genus(plane, image) == genus(QX2, d)
        assert pair(plane, image, image) == pair(QX2, d, d)


def test_quadric_to_plane_injective_on_sample():
    seen = {}
    for a in range(4):
        for b in range(4):
            for al in range(-2, 3):
                for be in range(-2, 3):
                    image = quadric_to_plane((a, b, al, be))
                    assert image not in seen
                    seen[image] = (a, b, al, be)


def test_plane_to_quadric_inverts_quadric_to_plane():
    # both ways on a box, and the three rectangles of an orbit are the images
    # of the three choices of the last point
    box = list(itertools.product(range(-2, 9), repeat=4))
    for d in box:
        assert plane_to_quadric(quadric_to_plane(d)) == d
        assert quadric_to_plane(plane_to_quadric(d)) == d
        a, b, alpha, beta = d
        c = a + b - alpha - beta
        e, a1, a2, a3 = quadric_to_plane(d)
        assert plane_to_quadric((e, a2, a3, a1)) == (c, a, a - beta, a - alpha)
        assert plane_to_quadric((e, a1, a3, a2)) == (c, b, b - beta, b - alpha)
        assert plane_to_quadric((e, a2, a1, a3)) == (b, a, alpha, beta)
    assert len(box) == 14641


def test_cremona_is_the_qx2_monodromy():
    # through the change of basis, the cut swap (a, b; alpha, beta) ->
    # (a, b; beta, alpha) is the quadratic Cremona map, an involution
    checked = 0
    for d in itertools.product(range(-2, 9), repeat=4):
        plane = quadric_to_plane(d)
        assert quadric_to_plane(monodromy(QX2, d)) == cremona(plane), d
        assert cremona(cremona(plane)) == plane
        checked += 1
    assert checked == 14641
    assert cremona((5, 3, 2, 1)) == (4, 2, 1, 0)


def test_singular_fiber_count():
    for degree in (5, 6, 7, 8):
        assert singular_fiber_count(degree) == 4
    with pytest.raises(DomainError):
        singular_fiber_count(4)
    with pytest.raises(DomainError):
        singular_fiber_count(9)
