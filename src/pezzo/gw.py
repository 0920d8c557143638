"""Genus-0 Gromov-Witten counts for the plane, its blow-ups, and quadric models.

``gw_blowup_p2`` is a four-point associativity recursion on the thrice-blown
plane, seeded with the rigid low-constraint classes, and the only complex
backend ``gw_surface`` runs.  It is checked against the floor diagrams of
``pezzo.floor`` and against the classical plane recursion, which the test
suite keeps as an oracle (``tests/oracles.py``).

Quadric-side classes are translated to the plane side by the change of basis
``quadric_to_plane`` and its rank-2/3 restrictions.  All arithmetic is exact.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .errors import DomainError
from .lattice import SURFACES, SurfaceLattice, monodromy, quadric_to_plane

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


def gw_blowup_p2(d: int, a1: int = 0, a2: int = 0, a3: int = 0) -> int:
    """Rational curves of degree d with multiplicities (a1, a2, a3) at three
    general points, through the complementary number of generic points.

    Returns 0 for classes outside the supported shape, never raises.
    """
    d = int(d)
    m = tuple(sorted((int(a1), int(a2), int(a3)), reverse=True))
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
                    n1 = gw_blowup_p2(d1, b1, b2, b3)
                    if n1 == 0:
                        continue
                    n2 = gw_blowup_p2(d2, a1 - b1, a2 - b2, a3 - b3)
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


_SURFACE_MEMO: dict = {}


def gw_surface(lattice, d: Sequence[int]) -> int:
    """Genus-0 count on any supported surface, reduced to the plane backend."""
    if isinstance(lattice, str):
        try:
            lattice = SURFACES[lattice]
        except KeyError:
            raise DomainError(f"unsupported surface {lattice!r}") from None
    if lattice.id not in SURFACES:
        raise DomainError(f"unsupported surface {lattice.id!r}")
    d = lattice.check(d)
    key = (lattice.id, canonical_class(lattice, d))
    known = _SURFACE_MEMO.get(key)
    if known is not None:
        return known

    if lattice.side == "p2":
        mults = list(d[1:]) + [0] * (3 - len(d[1:]))
        value = gw_blowup_p2(d[0], *mults)
    elif lattice.id == "q":
        a, b = d
        value = gw_blowup_p2(a + b, a, b, 0)
    elif lattice.id == "qx1":
        a, b, k = d
        value = gw_blowup_p2(a + b, a, b, k)
    else:  # qx2
        value = gw_blowup_p2(*quadric_to_plane(d))
    _SURFACE_MEMO[key] = value
    return value
