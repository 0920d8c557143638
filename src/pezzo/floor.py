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
For totally real configurations the multiplicity is 0 on any even weight and
+1 otherwise (the two endpoint signs of a bounded elevator cancel); this
convention is pinned by the plane values 8, 240, 18264 in the tests.  So the
real count enumerates odd elevator weights only and never builds a diagram
with an even weight.  Trees are built floor by floor from the top, so one
that admits no weighting is never visited; both counts and ``--dump-diagrams``
get the diagrams ordered by the tree's Prüfer code, then by the weights.
Neither count is cached here: the store keeps each value it computes.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator, Sequence

from .errors import DegeneratePolygonError, DomainError
from .lattice import SURFACES, quadric_coords


@dataclass(frozen=True)
class PolygonClass:
    """Newton polygon of a surface class, with its slab data."""

    surface_id: str
    class_vec: tuple
    vertices: tuple          # lattice points, counterclockwise
    slabs: tuple             # (left_step, right_step) per slab, bottom to top
    d_b: int                 # bottom edge length: unbounded weight below
    d_t: int                 # top edge length: unbounded weight above

    @property
    def height(self) -> int:
        return len(self.slabs)


@dataclass(frozen=True)
class FloorDiagram:
    floors: int
    divergences: tuple       # required below-minus-above weight per floor
    edges: tuple             # (lower, upper, weight)
    down: tuple              # unbounded weight-1 ends below each floor
    up: tuple                # unbounded weight-1 ends above each floor
    markings: int
    decorations: int = 1     # boundary-slant assignments sharing this shape

    def complex_multiplicity(self) -> int:
        out = 1
        for _, _, w in self.edges:
            out *= w * w
        return out

    def real_multiplicity(self) -> int:
        for _, _, w in self.edges:
            if w % 2 == 0:
                return 0
        return 1

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
    verts = [(alpha, 0), (a, 0), (a, b - beta), (a - beta, b), (0, b), (0, alpha)]
    dedup = tuple(v for i, v in enumerate(verts) if v != verts[(i + 1) % len(verts)])
    return PolygonClass(surface_id, tuple(class_vec), dedup, slabs, a - alpha, a - beta)


def polygon_of(lattice, d: Sequence[int]) -> PolygonClass:
    """Newton polygon dual to a class on p2 (a triangle) or on a quadric-side
    surface (a rectangle cut at the class's ``quadric_coords``)."""
    if isinstance(lattice, str):
        if lattice not in SURFACES:
            raise DomainError(f"no Newton polygon for surface {lattice!r}")
        lattice = SURFACES[lattice]
    d = lattice.check(d)
    if lattice.side == "q":
        return _truncated_rectangle(lattice.id, d, *quadric_coords(lattice, d))
    if lattice.id != "p2":
        raise DomainError(f"no Newton polygon for surface {lattice.id!r}")
    (deg,) = d
    if deg < 1:
        raise DegeneratePolygonError(f"p2({deg}): degree must be positive")
    slabs = tuple((0, 1) for _ in range(deg))
    return PolygonClass("p2", d, ((0, 0), (deg, 0), (0, deg)), slabs, deg, 0)


# -- diagram enumeration -------------------------------------------------------

def _prufer_code(edges, n) -> tuple:
    """Prüfer code of a tree on floors 0..n-1 (edges as (i, j, weight))."""
    adj = [set() for _ in range(n)]
    for i, j, _ in edges:
        adj[i].add(j)
        adj[j].add(i)
    code = []
    for _ in range(n - 2):
        leaf = min(v for v in range(n) if len(adj[v]) == 1)
        (v,) = adj[leaf]
        code.append(v)
        adj[v].discard(leaf)
        adj[leaf].clear()
    return tuple(code)


def _live_weightings(n, divs, d_b, d_t, step) -> list:
    """Weighted trees on the floors, with weights 1, 1 + step, ..., whose
    t_j = dn_j - up_j fit the unbounded ends: [(edges, t)], sorted by the
    tree's Prüfer code, then by the weights read floor by floor from the top.

    Built from the top floor down: floor j joins lower floors of other
    components, and a component that can no longer reach a lower floor ends
    the branch.  ``comp`` labels each floor by the lowest floor it reaches.
    """
    wmax = d_b + d_t + sum(abs(v) for v in divs)
    hang = [0] * n              # weight above each floor
    edges, t, found = [], [0] * n, []

    def join(j, i, tj, comp, nd, nu):
        # floor j may next join floor i; nd, nu: unbounded ends used above j
        if tj < nu - d_t:
            return
        if i == j:              # floor j is done
            if tj > d_b - nd or (j and comp[j] == j):
                return
            t[j] = tj
            nd, nu = nd + max(tj, 0), nu + max(-tj, 0)
            if j:
                join(j - 1, 0, divs[j - 1] + hang[j - 1], comp, nd, nu)
            elif d_b - nd == d_t - nu:
                found.append((tuple(edges), tuple(t)))
            return
        join(j, i + 1, tj, comp, nd, nu)
        a, b = comp[i], comp[j]
        if a == b:
            return
        merged = [min(a, b) if c in (a, b) else c for c in comp]
        for w in range(1, min(wmax, tj + d_t - nu) + 1, step):
            hang[i] += w
            edges.append((i, j, w))
            join(j, i + 1, tj - w, merged, nd, nu)
            edges.pop()
            hang[i] -= w

    join(n - 1, 0, divs[n - 1], list(range(n)), 0, 0)
    found.sort(key=lambda f: (_prufer_code(f[0], n), [w for _, _, w in f[0]]))
    return [(tuple(sorted(tree)), t) for tree, t in found]


def _compositions(total: int, parts: int) -> Iterator[tuple]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _marking_count(n_floors: int, items) -> int:
    """Count admissible total orders of marked objects around the floor chain.

    items: (lo, hi, count) groups of identical objects, each to be placed in
    one of the gaps lo..hi between consecutive floors (gap g precedes floor
    g; gap n_floors is above every floor).

    A group with lo = 0 and hi < n_floors (a floor's lower ends) may go
    anywhere below floor hi, so it stays out of the DP state: once gap hi is
    done its c objects go among the M elements below floor hi, the hi floors
    and every object placed so far, in comb(M + c, c) ways, and their c!
    stays out of the denominator.
    """
    arrivals = defaultdict(lambda: defaultdict(int))
    lower_ends = defaultdict(list)
    denom = 1
    for lo, hi, c in items:
        if lo == 0 and hi < n_floors:
            lower_ends[hi].append(c)
        elif c:
            arrivals[lo][hi] += c
            denom *= factorial(c)
    states = {(): 1}
    seen = 0                    # objects that have arrived or been inserted
    for g in range(n_floors + 1):
        incoming = arrivals.get(g, {})
        seen += sum(incoming.values())
        nxt = defaultdict(int)
        for state, ways in states.items():
            pool = dict(state)
            for hi, c in incoming.items():
                pool[hi] = pool.get(hi, 0) + c
            must = pool.pop(g, 0)
            hs = sorted(pool)

            def place(idx, taken, chosen, rem):
                if idx == len(hs):
                    nxt[tuple(sorted(rem.items()))] += ways * chosen * factorial(taken)
                    return
                h = hs[idx]
                avail = pool[h]
                for take in range(avail + 1):
                    if take:
                        rem[h] = avail - take
                        if rem[h] == 0:
                            del rem[h]
                    else:
                        rem[h] = avail
                    place(idx + 1, taken + take, chosen * comb(avail, take), rem)
                rem[h] = avail

            place(0, must, 1, dict(pool))
        states = nxt
        for c in lower_ends.get(g, ()):
            states = {state: ways * comb(g + seen - sum(k for _, k in state) + c, c)
                      for state, ways in states.items()}
            seen += c
    total = states.get((), 0)
    assert total % denom == 0
    return total // denom


def _unit_step_orders(steps: Sequence[int]) -> Iterator[tuple]:
    """Distinct orderings of a multiset of 0/1 boundary steps."""
    n = len(steps)
    ones = sum(steps)
    for pos in itertools.combinations(range(n), ones):
        out = [0] * n
        for p in pos:
            out[p] = 1
        yield tuple(out)


def _divergence_patterns(pc: PolygonClass):
    """Required per-floor divergences, with decoration multiplicities.

    The left and right boundary steps of the polygon are distributed over the
    floors by independent bijections (a slanted end may climb past other
    floors); patterns that differ only in the pairing are grouped.
    """
    lefts = [l for l, _ in pc.slabs]
    rights = [r for _, r in pc.slabs]
    patterns = defaultdict(int)
    for lseq in _unit_step_orders(lefts):
        for rseq in _unit_step_orders(rights):
            patterns[tuple(r - l for l, r in zip(lseq, rseq))] += 1
    return sorted(patterns.items())


def enumerate_diagrams(pc: PolygonClass, real: bool = False) -> Iterator[FloorDiagram]:
    """All connected genus-0 marked floor diagrams of the polygon.

    With ``real=True`` only the diagrams whose bounded elevators all have odd
    weight, the ones with nonzero real multiplicity, in the same order.
    """
    n = pc.height
    if n == 0:
        raise DegeneratePolygonError(f"{pc.surface_id}{pc.class_vec}: zero height")
    for divs, deco in _divergence_patterns(pc):
        for edges, t in _live_weightings(n, divs, pc.d_b, pc.d_t, 2 if real else 1):
            slack = pc.d_b - sum(max(v, 0) for v in t)
            for extra in _compositions(slack, n):
                down = tuple(max(v, 0) + x for v, x in zip(t, extra))
                up = tuple(max(-v, 0) + x for v, x in zip(t, extra))
                items = [(i + 1, j, 1) for i, j, _ in edges]
                items += [(0, f, down[f]) for f in range(n)]
                items += [(f + 1, n, up[f]) for f in range(n)]
                nu = _marking_count(n, items)
                if nu:
                    yield FloorDiagram(n, divs, edges, down, up, nu, deco)


def fd_count_complex(pc: PolygonClass) -> int:
    """Sum of w^2-weighted marked diagrams; equals the surface count."""
    return sum(d.decorations * d.markings * d.complex_multiplicity()
               for d in enumerate_diagrams(pc))


def fd_count_real_l0(pc: PolygonClass) -> int:
    """Signed diagram count for a totally real point configuration."""
    return sum(d.decorations * d.markings * d.real_multiplicity()
               for d in enumerate_diagrams(pc, real=True))
