"""Tropical floor-diagram enumeration over h-transverse Newton polygons.

A polygon is sliced into lattice-height-1 slabs; a diagram has one floor per
slab, a tree of weighted bounded elevators between floors, and weight-1
unbounded elevators below / above.  Writing ``l_j`` and ``r_j`` for the
horizontal displacement of the left and right boundary across slab j (going
down), each floor must satisfy

    (weight hanging below floor j) - (weight above floor j) = r_j - l_j.

Markings are total orders of the floors, bounded elevators and unbounded
elevators compatible with vertical position; a diagram contributes its
marking count times a per-edge multiplicity: w(e)^2 for the complex count.
The marking count is the number of linear extensions of that order, N! times
the volume of its order polytope.  With n floors, tree edges (i, j), d_h
lower and u_h upper unbounded ends at floor h and N = 2n - 1 + d_b + d_t
marked objects, it is

    N! / prod_h (d_h! u_h!) * integral over 0 < t_0 < ... < t_{n-1} < 1 of
        prod_(i,j) (t_j - t_i) * prod_h t_h^(d_h) (1 - t_h)^(u_h) dt,

an edge lying anywhere between its floors and an end anywhere below or above
its floor.  Expanding the edge factors and every (1 - t_h)^(u_h) leaves
monomials prod_h t_h^(m_h), and integrating those floor by floor from the
bottom divides by M_h + h + 1 at floor h, M_h = m_0 + ... + m_h.  These
divisors grow strictly and the last is at most N, so they are distinct
integers <= N and N! over their product is an integer: every moment
N! * integral of prod_h t_h^(e_h) (1 - t_h)^(u_h) is an integer, and so is
each partial sum of its evaluation from the bottom, which therefore divides
exactly at each floor.  A tree is evaluated by its 2^edges edge monomials,
each a moment read from one table for the polygon.  For totally real
configurations the multiplicity is 0 on any even weight and +1 otherwise (the
two endpoint signs of a bounded elevator cancel); this convention is pinned
by the plane values 8, 240, 18264 in the tests.  So the real count enumerates
odd elevator weights only and never builds a diagram with an even weight.
Trees are built floor by floor from the top, so one that admits no weighting
is never visited; both counts and ``--dump-diagrams`` get the diagrams
ordered by the tree's Prüfer code, then by the weights.  Neither count is
cached here: the store keeps each value it computes, and counts a real
quadric-side class on the lowest rectangle of its orbit.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from math import comb, factorial, prod
from operator import add, sub
from typing import Iterator, NamedTuple, Sequence

from .errors import DegeneratePolygonError, DomainError
from .lattice import POLYGON_SURFACES, SURFACES, quadric_coords


class PolygonClass(NamedTuple):
    """Newton polygon of a surface class, with its slab data."""

    surface_id: str
    class_vec: tuple
    slabs: tuple             # (left_step, right_step) per slab, bottom to top
    d_b: int                 # bottom edge length: unbounded weight below
    d_t: int                 # top edge length: unbounded weight above

    @property
    def height(self) -> int:
        return len(self.slabs)


class FloorDiagram(NamedTuple):
    floors: int
    divergences: tuple       # required below-minus-above weight per floor
    edges: tuple             # (lower, upper, weight)
    down: tuple              # unbounded weight-1 ends below each floor
    up: tuple                # unbounded weight-1 ends above each floor
    markings: int
    decorations: int = 1     # boundary-slant assignments sharing this shape

    def dump_line(self) -> str:
        edges = ",".join(f"{i}-{j}:{w}" for i, j, w in self.edges) or "-"
        down = ",".join(map(str, self.down))
        up = ",".join(map(str, self.up))
        divs = ",".join(map(str, self.divergences))
        return (
            f"floors={self.floors} div={divs} edges={edges} down={down} up={up} "
            f"decorations={self.decorations} markings={self.markings}"
        )


def _truncated_rectangle(surface_id, class_vec, a, b, alpha, beta) -> PolygonClass:
    """a x b rectangle with bottom-left cut alpha and top-right cut beta."""
    if a < 0 or b < 0 or (a, b) == (0, 0):
        raise DegeneratePolygonError(f"{surface_id}{class_vec}: empty rectangle")
    if alpha < 0 or beta < 0 or alpha > min(a, b) or beta > min(a, b):
        raise DegeneratePolygonError(
            f"{surface_id}{class_vec}: corner cuts ({alpha},{beta}) overflow {a}x{b}"
        )
    if b == 0 or (a >= 1 and b > a):
        # transpose so the slab direction is the short one (counts agree)
        a, b = b, a
    slabs = tuple(
        (1 if j + 1 <= alpha else 0, 1 if b - j <= beta else 0) for j in range(b)
    )
    return PolygonClass(surface_id, tuple(class_vec), slabs, a - alpha, a - beta)


def polygon_of(lattice, d: Sequence[int]) -> PolygonClass:
    """Newton polygon dual to a class on p2 (a triangle) or on a quadric-side
    surface (a rectangle cut at the class's ``quadric_coords``)."""
    surface_id = lattice if isinstance(lattice, str) else lattice.id
    if surface_id not in POLYGON_SURFACES:
        raise DomainError(f"no Newton polygon for surface {surface_id!r}")
    if isinstance(lattice, str):
        lattice = SURFACES[lattice]
    d = lattice.check(d)
    if lattice.side == "q":
        return _truncated_rectangle(lattice.id, d, *quadric_coords(lattice, d))
    (deg,) = d  # p2
    if deg < 1:
        raise DegeneratePolygonError(f"p2({deg}): degree must be positive")
    slabs = tuple((0, 1) for _ in range(deg))
    return PolygonClass("p2", d, slabs, deg, 0)


# -- diagram enumeration -------------------------------------------------------

def _prufer_code(edges, n) -> tuple:
    """Prüfer code of a tree on floors 0..n-1 (edges as (i, j, weight)):
    ``nbr`` holds the XOR of each floor's remaining neighbours, so a leaf's
    entry is its one neighbour."""
    deg, nbr = [0] * n, [0] * n
    for i, j, _ in edges:
        deg[i] += 1
        deg[j] += 1
        nbr[i] ^= j
        nbr[j] ^= i
    code = []
    for _ in range(n - 2):
        leaf = deg.index(1)
        v = nbr[leaf]
        code.append(v)
        deg[leaf] = 0
        deg[v] -= 1
        nbr[v] ^= leaf
    return tuple(code)


def _live_weightings(n, divs, d_b, d_t, step) -> list:
    """Weighted trees on the floors, with weights 1, 1 + step, ..., whose
    t_j = dn_j - up_j fit the unbounded ends: [(sorted edges, t)] in the
    order of the tree's Prüfer code, then of the weights read floor by floor
    from the top.

    Built from the top floor down: floor j joins lower floors of other
    components, and a component that can no longer reach a lower floor ends
    the branch.  ``comp`` labels each floor by the lowest floor it reaches.
    One tree's edges are decided in the same order for all its weightings,
    each edge's weights in increasing order, so the build meets them in
    weight order, which the stable sort by Prüfer code alone keeps.
    """
    hang = [0] * n              # weight above each floor
    edges, t, found = [], [0] * n, []

    def join(j, i, tj, comp, nd, nu):
        # floor j is done, or joins one of floors j-1 down to i; nd, nu: ends used above j
        if tj < nu - d_t:
            return
        if tj <= d_b - nd and not (j and comp[j] == j):
            t[j] = tj
            dn, un = (tj, 0) if tj > 0 else (0, -tj)
            if j:
                join(j - 1, 0, divs[j - 1] + hang[j - 1], comp, nd + dn, nu + un)
            elif d_b - nd - dn == d_t - nu - un:
                found.append((tuple(sorted(edges)), tuple(t)))
        b = comp[j]
        for x in range(j - 1, i - 1, -1):
            a = comp[x]
            if a == b:
                continue
            lo, hi = (a, b) if a < b else (b, a)
            merged = [lo if c == hi else c for c in comp]
            for w in range(1, tj + d_t - nu + 1, step):
                hang[x] += w
                edges.append((x, j, w))
                join(j, x + 1, tj - w, merged, nd, nu)
                edges.pop()
                hang[x] -= w

    join(n - 1, 0, divs[n - 1], list(range(n)), 0, 0)
    del join                    # the closure refers to itself through its cell: end that cycle
    found.sort(key=lambda f: _prufer_code(f[0], n))
    return found


def _compositions(total: int, parts: int) -> list:
    # gaps between sorted cut points in 0..total, in lexicographic (dump) order
    return [tuple(map(sub, cuts + (total,), (0,) + cuts))
            for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1)]


class _Markings:
    """Marking numbers of one polygon's diagrams, by the integral of the
    module docstring.  ``count`` takes a tree's diagrams one after another
    and evaluates each by the tree's 2^edges signed monomials, each a moment
    kept in ``moments`` for the whole polygon.  A vector indexed by floor is
    packed into an int, ``width`` bits per floor, by ``pack``.
    """

    def __init__(self, top: int):
        self.width = w = (top + 1).bit_length()
        self.low = (1 << w) - 1
        self.top = factorial(top)
        self.fact = [factorial(k) for k in range(top + 1)]
        self.expand = [tuple((k, (-1) ** k * comb(u, k)) for k in range(u + 1))
                       for u in range(top + 1)]
        self.tree = self.monomials = None
        self.moments = defaultdict(dict)  # up -> packed exponents -> moment

    def pack(self, v) -> int:
        return sum([x << self.width * h for h, x in enumerate(v)])

    def _monomials(self, tree) -> tuple:
        """The product of (t_j - t_i) over the edges as ((packed exponents,
        coefficient), ...): a tree's 2^edges orientations have distinct
        in-degree vectors, so the monomials are distinct, coefficients +-1."""
        w = self.width
        keys, coefs = [0], [1]
        for i, j in tree:
            hi, lo = 1 << w * j, 1 << w * i
            keys = [a + hi for a in keys] + [a + lo for a in keys]
            coefs += [-c for c in coefs]
        return tuple(zip(keys, coefs))

    def _moment(self, e, u) -> int:
        """N! times the integral of prod_h t_h^(e_h) (1 - t_h)^(u_h), floor by
        floor from the bottom: floor h, its (1 - t_h)^(u_h) expanded, divides
        by M + h + 1, M the exponent sum so far, and the state is keyed by that
        divisor, so the next floor's is the key plus e_(h+1) + k + 1.  Every
        division is exact.  The last floor's terms go straight into the sum."""
        low, w, last = self.low, self.width, len(u) - 1
        states = {0: self.top}
        for h in range(last):
            eh = (e >> w * h & low) + 1
            nxt = {}
            for m, v in states.items():
                m += eh
                for k, ck in self.expand[u[h]]:
                    nxt[m + k] = nxt.get(m + k, 0) + ck * (v // (m + k))
            states = nxt
        eh = (e >> w * last & low) + 1
        expand = self.expand[u[last]]
        return sum([ck * (v // (m + eh + k)) for m, v in states.items() for k, ck in expand])

    def count(self, tree, e, down, up) -> int:
        """Marking number of the diagram with these ends; ``e`` is ``down``
        packed."""
        if tree != self.tree:
            self.tree, self.monomials = tree, self._monomials(tree)
        table = self.moments[up]
        total = 0
        for a, c in self.monomials:
            moment = table.get(a + e)
            if moment is None:
                moment = table[a + e] = self._moment(a + e, up)
            total += c * moment
        return total // prod(map(self.fact.__getitem__, down + up))


def _divergence_patterns(pc: PolygonClass):
    """Required per-floor divergences, with decoration multiplicities.

    The left and right boundary steps of the polygon are distributed over the
    floors by independent bijections (a slanted end may climb past other
    floors); patterns that differ only in the pairing are grouped.
    """
    n = pc.height
    patterns = defaultdict(int)
    for lpos in itertools.combinations(range(n), sum(l for l, _ in pc.slabs)):
        for rpos in itertools.combinations(range(n), sum(r for _, r in pc.slabs)):
            patterns[tuple((j in rpos) - (j in lpos) for j in range(n))] += 1
    return sorted(patterns.items())


def enumerate_diagrams(pc: PolygonClass, real: bool = False) -> Iterator[FloorDiagram]:
    """All connected genus-0 marked floor diagrams of the polygon.

    With ``real=True`` only the diagrams whose bounded elevators all have odd
    weight, the ones with nonzero real multiplicity, in the same order.
    """
    n = pc.height
    if n == 0:
        raise DegeneratePolygonError(f"{pc.surface_id}{pc.class_vec}: zero height")
    markings = _Markings(2 * n - 1 + pc.d_b + pc.d_t)
    spreads = {}                # slack -> [(extra ends per floor, packed)]
    for divs, deco in _divergence_patterns(pc):
        for edges, t in _live_weightings(n, divs, pc.d_b, pc.d_t, 2 if real else 1):
            tree = tuple([(i, j) for i, j, _ in edges])
            dn = [v if v > 0 else 0 for v in t]
            un = [0 if v > 0 else -v for v in t]
            base = markings.pack(dn)
            slack = pc.d_b - sum(dn)
            if slack not in spreads:
                spreads[slack] = [(x, markings.pack(x)) for x in _compositions(slack, n)]
            for extra, e in spreads[slack]:
                down, up = tuple(map(add, dn, extra)), tuple(map(add, un, extra))
                yield FloorDiagram(n, divs, edges, down, up,
                                   markings.count(tree, base + e, down, up), deco)


def fd_count_complex(pc: PolygonClass) -> int:
    """Sum of w^2-weighted marked diagrams; equals the surface count."""
    return sum(d.decorations * d.markings * prod(w * w for _, _, w in d.edges)
               for d in enumerate_diagrams(pc))


def fd_count_real_l0(pc: PolygonClass) -> int:
    """Signed diagram count for a totally real point configuration: every
    diagram of odd elevator weights counts with multiplicity +1."""
    return sum(d.decorations * d.markings for d in enumerate_diagrams(pc, real=True))
