"""Integer homology lattices of the supported surfaces and threefolds.

Class vectors are plain tuples of ints.  Two coordinate families are used:

* plane side ``(d; a1, .., ak)`` for the plane and its blow-ups at up to
  three points, meaning ``d*L - sum(ai * Fi)``;
* quadric side ``(a, b)``, ``(a, b; k)``, ``(a, b; alpha, beta)`` for the
  product of two lines and its blow-ups at one or two points, meaning
  ``a*L1 + b*L2 - k*E`` (resp. ``- alpha*E1 - beta*E2``); ``quadric_coords``
  writes the first two as qx2 classes with zero cuts.

Exceptional multiplicities are stored positively: the tuple entry ``alpha``
stands for the coefficient of ``-E1``.  ``pair`` carries the corresponding
signs, so ``side`` and ``rank`` fix every form of a surface lattice.

Each public function checks its classes (``check``: a tuple of integers of
the lattice's rank) and hands them to a ``_`` kernel, which takes checked
tuples and checks nothing; a caller that has checked a class calls the
kernel, so a fiber member or a store key is checked once, where it enters.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, repeat
from operator import add, index, mul
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import DomainError, ParityError, RankMismatchError, UnsupportedLatticeError

ClassVector = tuple  # tuple of ints, length = lattice rank


class _Ranked:
    """Both records' ``check``: a class as a tuple of ints of their rank."""

    __slots__ = ()

    def check(self, d: Sequence[int]) -> ClassVector:
        try:
            d = tuple(map(index, d))  # an int, bool or int-like entry; never truncated
        except TypeError:
            raise DomainError(f"{self.id}: class {d!r} is not a vector of integers") from None
        if len(d) != self.rank:
            raise RankMismatchError(
                f"{self.id}: expected rank {self.rank}, got vector of length {len(d)}"
            )
        return d


class SurfaceLattice(namedtuple("SurfaceLattice", "id rank side vanishing_cycle canonical "
                                                  "anticanonical blowups"), _Ranked):
    """Intersection lattice of one of the seven supported surfaces.  ``side``
    names the minimal model the basis refines, "p2" (L^2 = 1) or "q"
    (L1.L2 = 1); the other basis vectors are exceptional (E^2 = -1).  The
    last three fields follow from the first four, which alone are given."""

    __slots__ = ()

    def __new__(klass, id: str, rank: int, side: str, vanishing_cycle=None):
        head = (3,) if side == "p2" else (2, 2)
        blowups = rank - len(head)
        anticanonical = head + (1,) * blowups
        return super().__new__(klass, id, rank, side, vanishing_cycle,
                               tuple(-x for x in anticanonical), anticanonical, blowups)

    def __getnewargs__(self):  # pickle and copy pass the given fields
        return self[:4]

    _make = classmethod(lambda klass, fields: klass(*tuple(fields)[:4]))  # so _replace recomputes

    @property
    def degree(self) -> int:
        return pair(self, self.canonical, self.canonical)


class ThreefoldFamily(NamedTuple):
    """One of the four (real) threefold settings handled by the engine.

    ``line(d)`` is None when the fiber over d is empty, else (D_0, length,
    base): the fiber is D_0 + t S, t < length, from D_0 to its monodromy image,
    so D_t.S = length - 1 - 2t.  Members' W values live in ``member_space``.
    """

    id: str
    rank: int                # of H_2 of the threefold
    surface: SurfaceLattice
    psi_matrix: tuple        # rank x surface.rank
    c1_row: tuple            # pairing of c1 with a class tuple
    member_space: str
    line: Callable           # d -> None or (D_0, length, sign base)

    check = _Ranked.check

    def constraints(self, d: ClassVector) -> int:
        """c1.d / 2 of a checked class (ParityError if c1.d is odd)."""
        c1d = sum(map(mul, self.c1_row, d))
        if c1d % 2:
            raise ParityError(f"{self.id}: c1.d = {c1d} is odd")
        return c1d // 2


P2 = SurfaceLattice("p2", 1, "p2")
P2X1 = SurfaceLattice("p2x1", 2, "p2")
P2X2 = SurfaceLattice("p2x2", 3, "p2")
P2X3 = SurfaceLattice("p2x3", 4, "p2")
Q = SurfaceLattice("q", 2, "q", (1, -1))
QX1 = SurfaceLattice("qx1", 3, "q", (1, -1, 0))
QX2 = SurfaceLattice("qx2", 4, "q", (0, 0, 1, -1))

SURFACES = {s.id: s for s in (P2, P2X1, P2X2, P2X3, Q, QX1, QX2)}

# the surfaces whose classes have a Newton polygon (``floor.polygon_of``): the
# plane's are triangles, the quadric side's cut rectangles; the blown-up planes have none
POLYGON_SURFACES = frozenset(("p2", "q", "qx1", "qx2"))


def _qx2_line(a, b, c, twist):
    # (a, b; alpha, beta) with alpha + beta = s = a + b - c; s < 0 only over
    # a = b = 0, where the line holds the exceptional multiples (0, 0; -t, t - c).
    # For odd s the twisted sign base is the standard one plus a (mod 2).
    s = a + b - c
    if (s < 0) != (a == b == 0):
        return None
    start = s if s < 0 else 0
    return (a, b, start, s - start), s - 2 * start + 1, (s - 1) // 2 + start + twist


DEG8 = ThreefoldFamily(
    "deg8", 1, Q, ((1, 1),), (4,), "q",
    lambda d: ((0, *d), d[0] + 1, 0) if d[0] >= 1 else None,
)
DEG7 = ThreefoldFamily(
    "deg7", 2, QX1, ((1, 1, 0), (0, 0, 1)), (4, -2), "qx1",
    lambda d: ((0, *d), d[0] + 1, (d[1] + d[1] ** 2) // 2) if d[0] >= 1 and d[1] >= 0 else None,
)
DEG6 = ThreefoldFamily(
    "deg6", 3, QX2, ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, -1, -1)), (2, 2, 2), "qx2",
    lambda d: None if min(d) < 0 else _qx2_line(*d, 0),
)
DEG6T = ThreefoldFamily(
    "deg6t", 2, QX2, ((1, 0, 0, 0), (1, 1, -1, -1)), (4, 2), "qx2t",
    lambda d: None if d[0] < 0 else _qx2_line(d[0], d[0], d[1], d[0]),
)

FAMILIES = {f.id: f for f in (DEG8, DEG7, DEG6, DEG6T)}

# the twisted real structure changes only real counts: a twisted class (a, ...) has the
# constraints and complex count of the untwisted class (a, a, ...), one entry longer
TWISTED = {DEG6T.id: DEG6.id, DEG6T.member_space: DEG6.member_space}


def pair(lattice: SurfaceLattice, d1: Sequence[int], d2: Sequence[int]) -> int:
    """Intersection number of two classes: d0 e0 - sum_{i>=1} di ei on the
    plane side, d0 e1 + d1 e0 - sum_{i>=2} di ei on the quadric side."""
    return _pair(lattice, lattice.check(d1), lattice.check(d2))


def _pair(lattice: SurfaceLattice, d1: ClassVector, d2: ClassVector) -> int:
    if lattice.side == "p2":
        return d1[0] * d2[0] - sum(map(mul, d1[1:], d2[1:]))
    return d1[0] * d2[1] + d1[1] * d2[0] - sum(map(mul, d1[2:], d2[2:]))


def constraint_count(space, d: Sequence[int]) -> int:
    """Number of point constraints fixing rational curves in the class.

    Surfaces: c1.D - 1.  Threefolds: c1.d / 2 (raises ParityError if odd).
    """
    if isinstance(space, SurfaceLattice):
        return _pair(space, space.anticanonical, space.check(d)) - 1
    if isinstance(space, ThreefoldFamily):
        return space.constraints(space.check(d))
    raise DomainError(f"unsupported space {space!r}")


def genus(lattice: SurfaceLattice, d: Sequence[int]) -> int:
    """Arithmetic genus (K.D + D^2 + 2) / 2 of the class.  K.D + D^2 is even:
    d(d - 3), or 2(ab - a - b) on the quadric side, less sum a_i(a_i - 1)."""
    d = lattice.check(d)
    return (_pair(lattice, lattice.canonical, d) + _pair(lattice, d, d) + 2) // 2


def monodromy(lattice: SurfaceLattice, d: Sequence[int]) -> ClassVector:
    """Reflection T(D) = D + (D.S) S in the vanishing cycle; an involution."""
    if lattice.vanishing_cycle is None:
        raise UnsupportedLatticeError(f"{lattice.id} carries no vanishing cycle")
    return _monodromy(lattice, lattice.check(d))


def _monodromy(lattice: SurfaceLattice, d: ClassVector) -> ClassVector:
    # of a lattice with a vanishing cycle
    s = lattice.vanishing_cycle
    ds = _pair(lattice, d, s)
    return tuple([x + ds * y for x, y in zip(d, s)])


def push_forward(family: ThreefoldFamily, d: Sequence[int]) -> ClassVector:
    """Image of a surface class in the threefold (inclusion pushforward)."""
    d = family.surface.check(d)
    return tuple(sum(row[j] * d[j] for j in range(len(d))) for row in family.psi_matrix)


def fiber(family: ThreefoldFamily, d: Sequence[int]) -> list:
    """Surface classes over a threefold class with possibly nonzero invariants:
    the members D_0 + t S of ``family.line(d)`` in that order, a list closed
    under the monodromy involution.  It is empty when d is not effective."""
    line = family.line(family.check(d))
    if line is None:
        return []
    start, length, _ = line
    steps = repeat(family.surface.vanishing_cycle, length - 1)
    return list(accumulate(steps, lambda member, s: tuple(map(add, member, s)), initial=start))


def quadric_coords(lattice: SurfaceLattice, d: Sequence[int]) -> ClassVector:
    """A quadric-side class in the qx2 basis: q and qx1 are qx2 with zero
    cuts, ``(a, b) -> (a, b; 0, 0)`` and ``(a, b; k) -> (a, b; 0, k)``."""
    if lattice.side != "q":
        raise DomainError(f"{lattice.id} is not a quadric-side surface")
    return _quadric_coords(lattice.check(d))


def _quadric_coords(d: ClassVector) -> ClassVector:
    return d[:2] + (0,) * (QX2.rank - len(d)) + d[2:]


def quadric_to_plane(d: Sequence[int]) -> ClassVector:
    """Rewrite a class on the twice-blown quadric in the thrice-blown plane
    basis, (a, b; alpha, beta) -> (a + b - alpha; a - alpha, b - alpha, beta).
    Injective; preserves intersection numbers, genus and constraint counts."""
    return _quadric_to_plane(QX2.check(d))


def _quadric_to_plane(d: ClassVector) -> ClassVector:
    a, b, alpha, beta = d
    return (a + b - alpha, a - alpha, b - alpha, beta)


def plane_to_quadric(d: Sequence[int]) -> ClassVector:
    """Inverse of ``quadric_to_plane``: (d; a1, a2, a3) -> (d - a2, d - a1; d - a1 - a2, a3)."""
    d, a1, a2, a3 = P2X3.check(d)
    return (d - a2, d - a1, d - a1 - a2, a3)


def cremona(d: Sequence[int]) -> ClassVector:
    """The quadratic Cremona map (d; a) -> (2d - a1 - a2 - a3; d - a2 - a3,
    d - a1 - a3, d - a1 - a2), on an unchecked class.  With the point
    permutations it generates the Weyl group of the degree-6 del Pezzo
    surface, of order 12, which keeps GW (Goettsche-Pandharipande 1998) and,
    at real points, W (Itenberg-Kharlamov-Shustin 2013).  Through
    ``quadric_to_plane`` it is the qx2 monodromy alpha <-> beta (checked on
    every class with entries -2..8), and the permutations exchange the three
    rectangles (d; a1, a2, a3), (d; a2, a3, a1), (d; a1, a3, a2), that is
    (a, b; alpha, beta), (c, a; a - beta, a - alpha), (c, b; b - beta, b - alpha), c = d - a3."""
    d, a1, a2, a3 = d
    return (2 * d - a1 - a2 - a3, d - a2 - a3, d - a1 - a3, d - a1 - a2)


# Euler characteristics of the ambient threefolds, by surface degree.
_CHI_X = {5: 10, 6: 8, 7: 6, 8: 4}


def singular_fiber_count(degree: int) -> int:
    """Number of singular members of a generic half-anticanonical pencil."""
    if degree not in _CHI_X:
        raise DomainError(f"degree {degree} outside supported range 5..8")
    return 24 - 2 * degree - _CHI_X[degree]
