"""Genus-0 Gromov-Witten counts for the plane, its blow-ups, and quadric models.

``gw_blowup_p2`` is a four-point associativity recursion on the thrice-blown
plane, seeded with the rigid low-constraint classes, and the only complex
backend ``gw_surface`` runs.  It is checked against the floor diagrams of
``pezzo.floor`` and against the classical plane recursion, which the test
suite keeps as an oracle (``tests/oracles.py``).

``gw_surface`` is a change of basis (``quadric_coords``, ``quadric_to_plane``)
and keeps no cache: the one memo is ``_BLOWUP_MEMO``, the recursion's own
table, which a miss fills bottom-up from ``_SHALLOW``.  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Sequence

from .errors import DomainError
from .lattice import SURFACES, SurfaceLattice, monodromy, quadric_coords, quadric_to_plane

def _binom(n: int, k: int) -> int:
    # comb with out-of-range indices flattened to 0
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


# -- blown-up plane ----------------------------------------------------------

def _k(d: int, m: tuple) -> int:
    # constraint count 3d - sum(m) - 1
    return 3 * d - sum(m) - 1


def _g(d: int, m: tuple) -> int:
    # arithmetic genus (d-1)(d-2)/2 - sum mi(mi-1)/2
    return (d - 1) * (d - 2) // 2 - sum(mi * (mi - 1) // 2 for mi in m)


def _pair(c1: tuple, c2: tuple) -> int:
    return c1[0] * c2[0] - sum(a * b for a, b in zip(c1[1:], c2[1:]))


_SEEDS = {(1, (0, 0, 0)): 1, (1, (1, 0, 0)): 1, (2, (1, 1, 1)): 1}

# plain dicts act as atomic get-or-compute maps under the interpreter lock;
# concurrent table generation may recompute a value, which is benign
_BLOWUP_MEMO: dict = {}
# the public entry fills the degrees from here up before it recurses: a miss
# below this degree costs two frames per degree, so no call goes deeper than
# about 2 * _SHALLOW frames, and the small classes every table asks for pay
# no fill
_SHALLOW = 32


def gw_blowup_p2(d: int, a1: int = 0, a2: int = 0, a3: int = 0) -> int:
    """Rational curves of degree d with multiplicities (a1, a2, a3) at three
    general points, through the complementary number of generic points.

    Returns 0 for classes outside the supported shape, never raises.
    """
    return _count(int(d), int(a1), int(a2), int(a3), fill=True)


def _count(d: int, a1: int, a2: int, a3: int, fill: bool = False) -> int:
    # gw_blowup_p2 on ints; the recursion's own calls leave fill off
    m = tuple(sorted((a1, a2, a3), reverse=True))
    if d < 0:
        return 0
    if d == 0:
        # only the exceptional classes themselves are counted
        return 1 if m == (0, 0, -1) else 0
    if m[-1] < 0:
        return 0
    if d == 1 and m == (1, 1, 0):
        return 1
    if m[0] + m[1] > d:
        return 0
    if _k(d, m) < 0 or _g(d, m) < 0:
        return 0
    if fill and (d, m) not in _BLOWUP_MEMO:
        # public entry only, after the checks: fill from _SHALLOW up first
        for lower in range(_SHALLOW, d):
            for b in itertools.product(*(range(x + 1) for x in m)):
                _count(lower, *b)
    return _gw_blowup(d, m)


def _gw_blowup(d: int, m: tuple) -> int:
    known = _BLOWUP_MEMO.get((d, m))
    if known is not None:
        return known
    k = _k(d, m)
    if k < 3:
        value = _SEEDS.get((d, m), 0)
        _BLOWUP_MEMO[(d, m)] = value
        return value
    # four-point associativity, paired against two line classes: splittings
    # with an exceptional half drop out (degree factors and binomial range).
    total = 0
    a1, a2, a3 = m
    for d1 in range(1, d):
        d2 = d - d1
        for b1 in range(a1 + 1):
            for b2 in range(a2 + 1):
                for b3 in range(a3 + 1):
                    n1 = _count(d1, b1, b2, b3)
                    if n1 == 0:
                        continue
                    n2 = _count(d2, a1 - b1, a2 - b2, a3 - b3)
                    if n2 == 0:
                        continue
                    k1 = _k(d1, (b1, b2, b3))
                    dot = _pair((d1, b1, b2, b3), (d2, a1 - b1, a2 - b2, a3 - b3))
                    coeff = d1 * d2 * _binom(k - 3, k1 - 1) - d1 * d1 * _binom(k - 3, k1)
                    total += n1 * n2 * dot * coeff
    _BLOWUP_MEMO[(d, m)] = total
    return total


# -- dispatch over the seven surfaces ----------------------------------------

def canonical_class(lattice: SurfaceLattice, d: Sequence[int]) -> tuple:
    """Canonical representative: minimal under monodromy, and under
    permutation of the blow-up multiplicities on the plane side."""
    d = lattice.check(d)
    if lattice.side == "p2":
        return (d[0],) + tuple(sorted(d[1:], reverse=True))
    return min(d, monodromy(lattice, d))


def gw_surface(lattice, d: Sequence[int]) -> int:
    """Genus-0 count on any supported surface, reduced to the plane backend."""
    surface_id = lattice if isinstance(lattice, str) else lattice.id
    if surface_id not in SURFACES:
        raise DomainError(f"unsupported surface {surface_id!r}")
    lattice = SURFACES[surface_id]
    d = lattice.check(d)
    if lattice.side == "p2":
        return gw_blowup_p2(*d)
    return gw_blowup_p2(*quadric_to_plane(quadric_coords(lattice, d)))
