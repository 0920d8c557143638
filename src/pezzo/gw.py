"""Genus-0 Gromov-Witten counts for the plane, its blow-ups, and quadric models.

``gw_blowup_p2`` is a four-point associativity recursion on the thrice-blown
plane (Kontsevich-Manin), seeded with the rigid low-constraint classes, and
the only complex backend ``gw_surface`` runs.  It first maps a class whose
multiplicities sum past its degree under the Cremona map ``lattice.cremona``,
an automorphism of the surface (Goettsche-Pandharipande); one step brings the
sum to at most the degree, so one computation serves a whole orbit.  A point
of multiplicity 1 is one more point condition, so it then counts each entry 1
as 0 (Goettsche-Pandharipande again).  The recursion visits only the
splittings whose two halves can be nonzero, each with its swap.  It is
checked against the floor diagrams of ``pezzo.floor``, the classical plane
recursion and the unreduced recursion over every splitting; the test suite
keeps the last two as oracles (``tests/oracles.py``).

``gw_surface`` checks its class once and changes basis through the lattice
kernels (``quadric_coords``, ``quadric_to_plane``); it keeps no cache: the
one memo is ``_BLOWUP_MEMO``, the recursion's own table, keyed on the reduced
class and holding each class asked for, a vanishing one as 0, so a repeated
ask is one lookup.  A miss at the public entry first fills,
bottom-up, every reduced class of degree 1..d whose multiplicities are at
most the largest one of the class asked for.  It visits only the candidates
m1 >= m2 >= m3 >= 0 with no entry 1 and m1 + m2 + m3 <= e at each degree e,
descending, since a larger sum is mapped down by the Cremona step and an
entry 1 to 0; ``_reduce`` applies the zero tests to each.  The halves of
each such class reduce into the same box at a lower degree, so no call
recurses more than one splitting deep and no starting degree has to be
chosen.  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import DomainError
from .lattice import (P2X3, QX2, SURFACES, SurfaceLattice, _monodromy, _quadric_coords,
                      _quadric_to_plane, cremona, monodromy)

# -- blown-up plane ----------------------------------------------------------

# (d, a1, a2, a3) -> count.  A computed value is stored under every
# permutation of its reduced class (``_reduce``) and under each key asked
# for, 0 under a vanishing one, so a repeated lookup needs no sort and no
# zero test.  The seeds are the one reduced class with fewer than three
# constraints, (1; 0, 0, 0), which (1; 1, 0, 0) reduces to, and the classes
# that the zero tests of _reduce would wrongly reject: the exceptional
# curves and the lines (1; 1, 1, 0).  Plain dicts act
# as atomic get-or-compute maps under the interpreter lock; concurrent table
# generation may recompute a value, which is benign.
_BLOWUP_MEMO: dict = {
    (d, *m): 1
    for d, base in ((0, (0, 0, -1)), (1, (0, 0, 0)), (1, (1, 1, 0)))
    for m in set(itertools.permutations(base))
}


def gw_blowup_p2(d: int, a1: int = 0, a2: int = 0, a3: int = 0) -> int:
    """Rational curves of degree d with multiplicities (a1, a2, a3) at three
    general points, through the complementary number of generic points.

    Returns 0 for classes outside the supported shape, never raises on
    integers; DomainError on a non-integral entry.
    """
    return _blowup(*P2X3.check((d, a1, a2, a3)))


def _blowup(d: int, a1: int = 0, a2: int = 0, a3: int = 0) -> int:
    # gw_blowup_p2 on ints, memo first.  A miss fills unless the reduced class
    # is stored, as it always is for a half of a class being computed: the
    # fill that class belongs to stored it
    key = (d, a1, a2, a3)
    value = _BLOWUP_MEMO.get(key)
    if value is not None:
        return value
    reduced = _reduce(*key)
    if reduced is not None and reduced not in _BLOWUP_MEMO:
        # the fill of the module docstring, degree by degree, over the sorted
        # triples that sum to at most the degree, each entry descending to 2
        # and then 0
        top = reduced[1]
        for e in range(1, reduced[0] + 1):
            for m1 in (*range(min(top, e), 1, -1), 0):
                for m2 in (*range(min(m1, e - m1), 1, -1), 0):
                    for m3 in (*range(min(m2, e - m1 - m2), 1, -1), 0):
                        m = (e, m1, m2, m3)
                        if m not in _BLOWUP_MEMO and _reduce(*m) == m:
                            _gw_blowup(*m)
    value = _BLOWUP_MEMO[key] = 0 if reduced is None else _BLOWUP_MEMO[reduced]
    return value


def _reduce(d: int, a1: int, a2: int, a3: int):
    """None when an arithmetic test shows the count vanishes (a negative
    entry, d <= 0, a negative constraint count or genus, or two
    multiplicities above d); else the class, sorted, mapped once under
    ``lattice.cremona`` if the multiplicities sum past d, then with each
    entry 1 made 0.  The Cremona map keeps the count, constraint count,
    genus, pair test and the order of the sorted entries.  One step
    suffices: from s = sum a > d the image sums to 3d - 2s, at most its
    degree 2d - s.  A point of multiplicity 1 is one more point condition
    (Goettsche-Pandharipande), so 1 -> 0 keeps the count too, but only
    after the zero tests: (1; 1, 1, 1) vanishes, (1; 0, 0, 0) counts 1."""
    a1, a2, a3 = sorted((a1, a2, a3), reverse=True)
    if (d <= 0 or a3 < 0 or a1 + a2 > d or a1 + a2 + a3 >= 3 * d
            or a1 * (a1 - 1) + a2 * (a2 - 1) + a3 * (a3 - 1) > (d - 1) * (d - 2)):
        return None
    if a1 + a2 + a3 > d:
        d, a1, a2, a3 = cremona((d, a1, a2, a3))
    # 1 -> 0 keeps the entries, all >= 0 here, sorted
    return d, a1 - (a1 == 1), a2 - (a2 == 1), a3 - (a3 == 1)


def _gw_blowup(d: int, a1: int, a2: int, a3: int) -> int:
    # four-point associativity on a reduced class, paired against two line
    # classes (Kontsevich-Manin); splittings with an exceptional half drop
    # out.  A splitting (d1; b) + (d2; a - b) and its swap share the one
    # coefficient below, so only d1 <= d / 2 is visited.  Each bound on b
    # is a zero test of a half: entries in 0..d_i, pair sums <= d_i (p_i
    # lets the lines (1; 1, 1, 0) through) and constraint counts k1, k2 >= 0;
    # the genus tests (g_i is twice the bound) come before any lookup.
    k = 3 * d - a1 - a2 - a3 - 1
    # binom[j + 2] = comb(k - 3, j) for j in -2..k - 1, zero out of range
    row = itertools.accumulate(range(k - 3), lambda c, j: c * (k - 3 - j) // (j + 1), initial=1)
    binom = [0, 0, *row, 0, 0]
    total = 0
    for d1 in range(1, d // 2 + 1):
        d2 = d - d1
        p1, p2 = d1 + (d1 == 1), d2 + (d2 == 1)
        g1, g2 = (d1 - 1) * (d1 - 2), (d2 - 1) * (d2 - 2)
        lo1, lo2, lo3 = max(0, a1 - d2), max(0, a2 - d2), max(0, a3 - d2)
        hi1, hi2, hi3 = min(a1, d1), min(a2, d1), min(a3, d1)
        # sum(b) within the box, with k1 = 3 d1 - 1 - sum(b) in 0..k - 1
        s_lo, s_hi = max(lo1 + lo2 + lo3, 3 * d1 - k), min(hi1 + hi2 + hi3, 3 * d1 - 1)
        coeffs = {}
        for s in range(s_lo, s_hi + 1):
            k1 = 3 * d1 - 1 - s
            c = d1 * d2 * binom[k1 + 1] - d1 * d1 * binom[k1 + 2]
            if d1 < d2:
                c += d1 * d2 * binom[k1 + 1] - d2 * d2 * binom[k1]
            coeffs[s] = c
        for b1 in range(lo1, hi1 + 1):
            c1 = a1 - b1
            for b2 in range(max(lo2, a1 + a2 - p2 - b1), min(hi2, p1 - b1) + 1):
                c2 = a2 - b2
                t1 = b1 * (b1 - 1) + b2 * (b2 - 1)
                t2 = c1 * (c1 - 1) + c2 * (c2 - 1)
                lo = max(lo3, a1 + a3 - p2 - b1, a2 + a3 - p2 - b2, s_lo - b1 - b2)
                hi = min(hi3, p1 - b1, p1 - b2, s_hi - b1 - b2)
                for b3 in range(lo, hi + 1):
                    c3 = a3 - b3
                    if t1 + b3 * (b3 - 1) > g1 or t2 + c3 * (c3 - 1) > g2:
                        continue
                    coeff = coeffs[b1 + b2 + b3]
                    if not coeff:
                        continue
                    n1 = _BLOWUP_MEMO.get((d1, b1, b2, b3))
                    if n1 is None:
                        n1 = _blowup(d1, b1, b2, b3)
                    n2 = _BLOWUP_MEMO.get((d2, c1, c2, c3))
                    if n2 is None:
                        n2 = _blowup(d2, c1, c2, c3)
                    total += n1 * n2 * (d1 * d2 - b1 * c1 - b2 * c2 - b3 * c3) * coeff
    for m in itertools.permutations((a1, a2, a3)):
        _BLOWUP_MEMO[(d, *m)] = total
    return total


# -- dispatch over the seven surfaces ----------------------------------------

def canonical_class(lattice: SurfaceLattice, d: Sequence[int]) -> tuple:
    """Canonical representative: minimal under monodromy, and under
    permutation of the blow-up multiplicities on the plane side."""
    d = lattice.check(d)
    if lattice.side == "q" and lattice.vanishing_cycle is None:
        monodromy(lattice, d)  # its UnsupportedLatticeError
    return _canonical_class(lattice, d)


def _canonical_class(lattice: SurfaceLattice, d: tuple) -> tuple:
    # of a checked class
    if lattice.side == "p2":  # the orbit's point permutations (``lattice.cremona``)
        return (d[0],) + tuple(sorted(d[1:], reverse=True))
    return min(d, _monodromy(lattice, d))  # ``lattice.cremona`` on qx2, a point swap on q, qx1


def gw_surface(lattice, d: Sequence[int]) -> int:
    """Genus-0 count on any supported surface, reduced to the plane backend."""
    surface_id = lattice if isinstance(lattice, str) else lattice.id
    if surface_id not in SURFACES:
        raise DomainError(f"unsupported surface {surface_id!r}")
    lattice = SURFACES[surface_id]
    d = lattice.check(d)
    if lattice.side == "p2":
        return _blowup(*d)
    return _blowup(*_quadric_to_plane(d if lattice is QX2 else _quadric_coords(d)))
