"""Reference paths used to check the engine; nothing in ``pezzo`` calls them.

``w_fiber_sum`` is the full-fiber form of a threefold Welschinger count: each
fiber member with nonzero D.S enters with coefficient (-1)^e |D.S|, where e
is ``pezzo.signs.sign_exponent``, times its surface count, and the total is
halved.  ``pezzo.combine.w_threefold`` evaluates the same sum through closed
forms with one member per monodromy pair; the two must agree.

The three-term sign calculus signs each fiber member D by the reference-side
bit ``epsilon`` (which of the two isotopy classes of real normal line
subbundles D selects, pinned to 0 on a reference class L with L.S = -1), the
genus parity, and a quasi-quadratic enhancement evaluated on the mod-2
reduction of D.  On the families with orientable real part (deg8, deg7) it
must equal ``sign_exponent``.

``gw_p2`` is the classical recursion for plane rational curves, free of any
blow-up machinery, against which ``pezzo.gw.gw_blowup_p2`` and the floor
diagrams are checked.  ``gw_blowup_oracle`` is the blow-up recursion over
every splitting, with no Cremona reduction and no pruning of the splittings;
``pezzo.gw.gw_blowup_p2`` reduces each class under the Cremona map and
visits only the splittings that can be nonzero, and must give the same
values.  ``gw_blowup_box_scan`` is ``gw_blowup_p2`` with a fill that scans
every sorted triple of the box; the fill that visits only the reduced
candidates must compute the same classes in the same order.

``enumerate_diagrams_scan`` finds the floor diagrams by scanning every
spanning tree of the floors in Prüfer order and every weighting of it, and
``marking_count_dp`` counts the markings with every marked object in its DP
state, one gap between floors at a time;
``pezzo.floor.enumerate_diagrams`` builds only the live weighted trees, floor
by floor, and ``pezzo.floor._Markings`` evaluates the marking count as an
integral over the floor heights, and each must give the same values, the
diagrams in the same order.
"""

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Iterator, Sequence

from pezzo.combine import WelschingerQuery, _member_key, w_vanishes_a_priori
from pezzo.errors import DegeneratePolygonError, DomainError, PezzoError, RankMismatchError
from pezzo.floor import FloorDiagram, PolygonClass, _divergence_patterns
from pezzo import gw
from pezzo.gw import gw_surface
from pezzo.lattice import DEG6, DEG6T, DEG7, DEG8, FAMILIES, ThreefoldFamily, fiber, pair
from pezzo.signs import sign_exponent
from pezzo.store import Store


def w_fiber_sum(query: WelschingerQuery, store: Store) -> int:
    """Halved signed sum over the whole fiber.  The query is assumed valid
    (``w_threefold`` raises on a bad pair count); missing surface data raises
    ``DataUnavailableError`` from the store."""
    family = FAMILIES[query.family_id]
    d = family.check(query.cls)
    if w_vanishes_a_priori(family, d):
        return 0
    if family.id == "deg6":
        d = tuple(sorted(d, reverse=True))
    surface = family.surface
    total = 0
    for member in fiber(family, d):
        ds = pair(surface, member, surface.vanishing_cycle)
        if ds == 0 or gw_surface(surface, member) == 0:
            continue
        sign = -1 if sign_exponent(family, member) else 1
        value = store.get_or_compute(_member_key(family.id, member, query.pairs))
        total += sign * abs(ds) * value
    assert total % 2 == 0, f"real fiber sum for {family.id}{d} is odd: {total}"
    return total // 2


# -- three-term sign calculus ------------------------------------------------

class UndefinedSignError(PezzoError, ValueError):
    """epsilon is undefined on classes with D.S = 0."""


@dataclass(frozen=True)
class QuasiQuadraticEnhancement:
    """Z2-valued function s with s(x+y) = s(x)+s(y)+x.y+(w1.x)(w1.y)."""

    rank: int
    generator_values: tuple
    w1: tuple
    pairing_mod2: tuple      # rank x rank over Z2

    def pair(self, x: Sequence[int], y: Sequence[int]) -> int:
        return sum(
            x[i] * self.pairing_mod2[i][j] * y[j]
            for i in range(self.rank) for j in range(self.rank)
        ) % 2

    def w1_dot(self, x: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(self.w1, x)) % 2


def qqe_eval(e: QuasiQuadraticEnhancement, x: Sequence[int]) -> int:
    """Expand s over the generator basis; well defined because w1 matches the
    diagonal of the mod-2 pairing on every shipped enhancement."""
    if len(x) != e.rank:
        raise RankMismatchError(f"expected Z2 vector of length {e.rank}, got {len(x)}")
    acc = [0] * e.rank
    val = 0
    for i, xi in enumerate(x):
        if xi % 2 == 0:
            continue
        gen = [1 if j == i else 0 for j in range(e.rank)]
        val = (val + e.generator_values[i] + e.pair(acc, gen)
               + e.w1_dot(acc) * e.w1_dot(gen)) % 2
        acc[i] = 1
    return val


@dataclass(frozen=True)
class FamilySignData:
    """Sign inputs of one threefold family."""

    family: ThreefoldFamily
    ref_class: tuple                  # L with L.S = -1, epsilon(L) = 0
    enhancement: QuasiQuadraticEnhancement
    reduce_mod2: Callable             # class vector -> Z2 vector of enhancement rank
    epsilon_of_ref: int = 0


def _mod2_all(d):
    return tuple(x % 2 for x in d)


def _mod2_cuts(d):
    # twisted family: only the blow-up coordinates survive in H1 of the real part
    return (d[2] % 2, d[3] % 2)


SIGN_DATA = {
    "deg8": FamilySignData(
        DEG8, (1, 0),
        QuasiQuadraticEnhancement(2, (0, 1), (0, 0), ((0, 1), (1, 0))),
        _mod2_all,
    ),
    "deg7": FamilySignData(
        # s on the reduced blow-up class is 1: with the true genus parity this
        # is the unique value making eps + g + s match sign_exponent
        DEG7, (1, 0, 0),
        QuasiQuadraticEnhancement(
            3, (0, 1, 1), (0, 0, 1),
            ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        ),
        _mod2_all,
    ),
    "deg6": FamilySignData(
        DEG6, (0, 0, 0, -1),
        QuasiQuadraticEnhancement(
            4, (1, 1, 1, 0), (0, 0, 1, 1),
            ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ),
        _mod2_all,
    ),
    "deg6t": FamilySignData(
        DEG6T, (0, 0, 0, -1),
        QuasiQuadraticEnhancement(2, (1, 0), (1, 1), ((1, 0), (0, 1))),
        _mod2_cuts,
    ),
}


def _pair_with_cycle(data: FamilySignData, d) -> int:
    surface = data.family.surface
    return pair(surface, d, surface.vanishing_cycle)


def epsilon(data: FamilySignData, d: Sequence[int]) -> int:
    """0 iff D.S has the same sign as L.S; flips under monodromy."""
    ds = _pair_with_cycle(data, d)
    if ds == 0:
        raise UndefinedSignError(f"{data.family.id}: epsilon undefined when D.S = 0")
    ls = _pair_with_cycle(data, data.ref_class)
    if ds * ls > 0:
        return data.epsilon_of_ref
    return (data.epsilon_of_ref + 1) % 2


def rho(data: FamilySignData, d: Sequence[int]) -> tuple:
    """Mod-2 reduction of a fiber member into the enhancement's domain."""
    return data.reduce_mod2(data.family.surface.check(d))


# -- plane recursion ---------------------------------------------------------

_P2_MEMO: dict = {1: 1}


def gw_p2(d: int) -> int:
    """Number of rational plane curves of degree d through 3d - 1 points.

    >>> [gw_p2(d) for d in (1, 2, 3, 4)]
    [1, 1, 12, 620]
    """
    d = int(d)
    if d < 1:
        raise DomainError(f"degree must be positive, got {d}")
    known = _P2_MEMO.get(d)
    if known is not None:
        return known
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        n1, n2 = gw_p2(d1), gw_p2(d2)
        total += n1 * n2 * (
            d1 * d1 * d2 * d2 * comb(3 * d - 4, 3 * d1 - 2)
            - d1 ** 3 * d2 * comb(3 * d - 4, 3 * d1 - 1)
        )
    _P2_MEMO[d] = total
    return total


# -- blow-up recursion over every splitting ------------------------------------

_BLOWUP_SEEDS = {(1, (0, 0, 0)): 1, (1, (1, 0, 0)): 1, (2, (1, 1, 1)): 1}
_BLOWUP_ORACLE_MEMO: dict = {}
# the public entry fills the degrees from here up before it recurses: a miss
# below this degree costs two frames per degree
_SHALLOW = 32


def gw_blowup_oracle(d: int, a1: int = 0, a2: int = 0, a3: int = 0) -> int:
    """``pezzo.gw.gw_blowup_p2`` by the four-point associativity recursion
    over every splitting (d1; b) + (d - d1; a - b), 0 < d1 < d, 0 <= b <= a,
    keyed on the sorted class and with no Cremona reduction."""
    return _blowup_count(int(d), int(a1), int(a2), int(a3), fill=True)


def _blowup_k(d: int, m: tuple) -> int:
    return 3 * d - sum(m) - 1


def _blowup_count(d: int, a1: int, a2: int, a3: int, fill: bool = False) -> int:
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
    genus = (d - 1) * (d - 2) // 2 - sum(mi * (mi - 1) // 2 for mi in m)
    if _blowup_k(d, m) < 0 or genus < 0:
        return 0
    if fill and (d, m) not in _BLOWUP_ORACLE_MEMO:
        for lower in range(_SHALLOW, d):
            for b in itertools.product(*(range(x + 1) for x in m)):
                _blowup_count(lower, *b)
    return _blowup_recursion(d, m)


def _blowup_recursion(d: int, m: tuple) -> int:
    known = _BLOWUP_ORACLE_MEMO.get((d, m))
    if known is not None:
        return known
    k = _blowup_k(d, m)
    if k < 3:
        value = _BLOWUP_SEEDS.get((d, m), 0)
        _BLOWUP_ORACLE_MEMO[(d, m)] = value
        return value
    total = 0
    a1, a2, a3 = m
    for d1 in range(1, d):
        d2 = d - d1
        for b1 in range(a1 + 1):
            for b2 in range(a2 + 1):
                for b3 in range(a3 + 1):
                    n1 = _blowup_count(d1, b1, b2, b3)
                    if n1 == 0:
                        continue
                    n2 = _blowup_count(d2, a1 - b1, a2 - b2, a3 - b3)
                    if n2 == 0:
                        continue
                    k1 = _blowup_k(d1, (b1, b2, b3))
                    dot = d1 * d2 - b1 * (a1 - b1) - b2 * (a2 - b2) - b3 * (a3 - b3)
                    coeff = d1 * d2 * _binom(k - 3, k1 - 1) - d1 * d1 * _binom(k - 3, k1)
                    total += n1 * n2 * dot * coeff
    _BLOWUP_ORACLE_MEMO[(d, m)] = total
    return total


def gw_blowup_box_scan(d: int, a1: int = 0, a2: int = 0, a3: int = 0) -> int:
    """``pezzo.gw.gw_blowup_p2`` with its former fill: at each degree e, every
    sorted triple of entries min(m1, e)..0, descending, kept when ``_reduce``
    returns it unchanged."""
    key = (int(d), int(a1), int(a2), int(a3))
    value = gw._BLOWUP_MEMO.get(key)
    if value is not None:
        return value
    reduced = gw._reduce(*key)
    if reduced is not None and reduced not in gw._BLOWUP_MEMO:
        for e in range(1, reduced[0] + 1):
            for m in itertools.combinations_with_replacement(range(min(reduced[1], e), -1, -1), 3):
                if (e, *m) not in gw._BLOWUP_MEMO and gw._reduce(e, *m) == (e, *m):
                    gw._gw_blowup(e, *m)
    return gw._blowup(*key)


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


# -- floor diagrams by a scan of every tree --------------------------------------

def _prufer_tree(code, n):
    degree = [1] * n
    for v in code:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return tuple(sorted(edges))


def _spanning_trees(n: int) -> Iterator[tuple]:
    if n == 1:
        yield ()
    elif n == 2:
        yield ((0, 1),)
    else:
        for code in itertools.product(range(n), repeat=n - 2):
            yield _prufer_tree(code, n)


def _weightings(tree, divs, d_b, d_t, step) -> Iterator[tuple]:
    """Assign edge weights 1, 1 + step, ...; yield (weights, t) with
    t_j = dn_j - up_j required."""
    n = len(divs)
    below = defaultdict(list)   # upper floor -> edge indices
    above = defaultdict(list)   # lower floor -> edge indices
    for idx, (i, j) in enumerate(tree):
        below[j].append(idx)
        above[i].append(idx)
    wmax = d_b + d_t + sum(abs(v) for v in divs)
    weights = [0] * len(tree)
    t = [0] * n

    def walk(floor, need_dn, need_up):
        if floor < 0:
            yield tuple(weights), tuple(t)
            return
        todo = below[floor]

        def assign(pos):
            if pos == len(todo):
                tj = divs[floor]
                tj -= sum(weights[idx] for idx in below[floor])
                tj += sum(weights[idx] for idx in above[floor])
                t[floor] = tj
                nd = need_dn + max(tj, 0)
                nu = need_up + max(-tj, 0)
                if nd <= d_b and nu <= d_t:
                    yield from walk(floor - 1, nd, nu)
                return
            for w in range(1, wmax + 1, step):
                weights[todo[pos]] = w
                yield from assign(pos + 1)

        yield from assign(0)

    yield from walk(n - 1, 0, 0)


def compositions(total: int, parts: int) -> Iterator[tuple]:
    """Tuples of ``parts`` nonnegative ints summing to ``total``, by the
    first part, recursively: lexicographic order, independent of the cut-point
    version in ``pezzo.floor``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def marking_count_dp(n_floors: int, items) -> int:
    """Count admissible total orders of marked objects around the floor chain.

    items: (lo, hi, count) groups of identical objects, each to be placed in
    one of the gaps lo..hi between consecutive floors (gap g precedes floor
    g; gap n_floors is above every floor).
    """
    arrivals = defaultdict(lambda: defaultdict(int))
    denom = 1
    for lo, hi, c in items:
        if c:
            arrivals[lo][hi] += c
            denom *= factorial(c)
    states = {(): 1}
    for g in range(n_floors + 1):
        incoming = arrivals.get(g, {})
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
    total = states.get((), 0)
    assert total % denom == 0
    return total // denom


def enumerate_diagrams_scan(pc: PolygonClass, real: bool = False) -> Iterator[FloorDiagram]:
    """All connected genus-0 marked floor diagrams of the polygon.

    With ``real=True`` only the diagrams whose bounded elevators all have odd
    weight, the ones with nonzero real multiplicity, in the same order.
    """
    n = pc.height
    if n == 0:
        raise DegeneratePolygonError(f"{pc.surface_id}{pc.class_vec}: zero height")
    for divs, deco in _divergence_patterns(pc):
        for tree in _spanning_trees(n):
            for weights, t in _weightings(tree, divs, pc.d_b, pc.d_t, 2 if real else 1):
                need_dn = sum(max(v, 0) for v in t)
                need_up = sum(max(-v, 0) for v in t)
                slack = pc.d_b - need_dn
                if slack < 0 or pc.d_t - need_up != slack:
                    continue
                for extra in compositions(slack, n):
                    down = tuple(max(v, 0) + x for v, x in zip(t, extra))
                    up = tuple(max(-v, 0) + x for v, x in zip(t, extra))
                    edges = tuple((i, j, w) for (i, j), w in zip(tree, weights))
                    items = [(i + 1, j, 1) for i, j, _ in edges]
                    items += [(0, f, down[f]) for f in range(n)]
                    items += [(f + 1, n, up[f]) for f in range(n)]
                    nu = marking_count_dp(n, items)
                    if nu:
                        yield FloorDiagram(n, divs, edges, down, up, nu, deco)
