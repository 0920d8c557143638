"""Fiber-sum combiners: threefold counts from surface counts.

The complex count of a threefold class is half the sum of (D.S)^2-weighted
surface counts over the fiber of classes pushing onto it.  The real count
replaces the weight by a signed |D.S| and Welschinger surface inputs.  Both
are evaluated on one member per monodromy pair, read off the family's line
(``ThreefoldFamily.line``); the real one, as its only path, through closed
forms.  The test suite checks these against the full-fiber sums, the real
one signed member by member by ``pezzo.signs.sign_exponent``, and checks
that sign against the paper's three-term sign calculus; both references are
in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add

from .errors import DataUnavailableError, DomainError
from .gw import gw_surface
from .lattice import DEG6, FAMILIES, TWISTED, ThreefoldFamily, fiber
from .store import InvariantKey, Store, _pair_count, check_pairs, served_w


class WelschingerQuery(namedtuple("WelschingerQuery", "family_id cls pairs")):
    """A checked query: a known family, a class of its rank with even c1.d
    (kept as a tuple), and a pair count that ``check_pairs`` admits."""

    __slots__ = ()

    def __new__(klass, family_id, cls, pairs: int):
        family = _family(family_id)
        cls = _as_tuple(family, cls)
        pairs = _pair_count(family.id, pairs)
        check_pairs(family.id, cls, pairs)
        return super().__new__(klass, family.id, cls, pairs)

    _make = classmethod(lambda klass, fields: klass(*fields))  # so _replace checks


def _family(family) -> ThreefoldFamily:
    if isinstance(family, str):
        try:
            return FAMILIES[family]
        except KeyError:
            raise DomainError(f"unknown family {family!r}") from None
    return family


def _as_tuple(family: ThreefoldFamily, d) -> tuple:
    if isinstance(d, int):
        d = (d,)
    return family.check(d)


def gw_threefold(family, d) -> int:
    """Complex count of rational curves in the threefold class d."""
    family = _family(family)
    if family.id in TWISTED:
        raise DomainError("complex counts are real-structure independent; "
                          f"query {TWISTED[family.id]} instead")
    members = fiber(family, _as_tuple(family, d))
    # one member per monodromy pair, as in _closed_form: D_t and its image
    # D_{length-1-t} count the same, with D_t.S = length - 1 - 2t
    n = len(members)
    return sum((n - 1 - 2 * t) ** 2 * gw_surface(family.surface, members[t])
               for t in range(n // 2))


def gw_vanishes_a_priori(family, d) -> bool:
    """True when the complex count vanishes for support reasons (one
    coordinate at least the sum of the other two, beyond the line classes)."""
    family = _family(family)
    if family.id != "deg6":
        raise DomainError("support predicate applies to deg6 coordinates")
    return _unsupported(*_as_tuple(family, d))


def w_vanishes_a_priori(family, d) -> bool:
    """True when the fiber is empty, every fiber member has even D.S (the
    line has odd length), or, on the qx2 families, the support fails."""
    family = _family(family)
    return _line_vanishes(family, family.line(_as_tuple(family, d)))


def _line_vanishes(family: ThreefoldFamily, line) -> bool:
    if line is None or line[1] % 2:
        return True
    if family.surface is not DEG6.surface:
        return False
    a, b, alpha, beta = line[0]  # D_0, with image (a, b, a + b - alpha - beta)
    return _unsupported(a, b, a + b - alpha - beta)


def _unsupported(a: int, b: int, c: int) -> bool:
    # the support rule: one coordinate at least the sum of the other two
    return a + b + c > 1 and 2 * max(a, b, c) >= a + b + c


def _member_key(family_id: str, member: tuple, pairs: int) -> InvariantKey:
    space = FAMILIES[family_id].member_space
    # a twisted member (a, a; alpha, beta) is keyed (a, alpha, beta)
    return InvariantKey("W", space, member[1:] if space in TWISTED else member, pairs)


def w_threefold(query: WelschingerQuery, store: Store) -> int:
    """Real signed count of the threefold class through k_d points with
    ``query.pairs`` conjugate pairs; 0 without data access when the parity or
    support predicate applies."""
    family = FAMILIES[query.family_id]
    d = query.cls
    if family.id == "deg6":  # the orbit's point permutations (``lattice.cremona``) sort a, b, c
        d = tuple(sorted(d, reverse=True))
    line = family.line(d)
    if _line_vanishes(family, line):
        return 0
    return _closed_form(store, family, line, query.pairs)


def _closed_form(store: Store, family: ThreefoldFamily, line: tuple, pairs: int) -> int:
    """The real fiber sum by the closed forms, for a ``line`` past
    ``w_vanishes_a_priori``: the first length // 2 members D_t of the line,
    one per monodromy pair, weigh (-1)^(t + base) D_t.S, where
    D_t.S = length - 1 - 2t.  Members whose complex count vanishes are
    skipped without touching the store; each served W is checked by
    ``served_w``.  A store miss names its member's key alone, and members
    D_t, D_u share a key only when u = length - 1 - t, the monodromy image,
    which t, u < length // 2 rules out: each missing key is listed once."""
    member, length, base = line
    total = 0
    missing = []
    for t in range(length // 2):
        if t:
            member = tuple(map(add, member, family.surface.vanishing_cycle))
        gw = gw_surface(family.surface, member)
        if gw == 0:
            continue
        key = _member_key(family.id, member, pairs)
        try:
            w = served_w(store, key, gw)
        except DataUnavailableError as exc:
            missing += exc.keys
            continue
        # base may be negative: reduce the exponent so the power stays an int
        total += (-1) ** ((t + base) % 2) * (length - 1 - 2 * t) * w
    if missing:
        raise DataUnavailableError(missing)
    return total


def deg6_classes(max_sum: int) -> list:
    """The classes a >= b >= c >= 0 with 1 <= a + b + c <= max_sum, in lexicographic order."""
    return [(a, b, c) for a in range(max_sum + 1) for b in range(a + 1)
            for c in range(b + 1) if 1 <= a + b + c <= max_sum]


def positivity_report(max_sum: int, store: Store) -> list:
    """Nonnegativity sweep for the standard-real product family at l = 0:
    returns the (class, 0, value) triples that come out negative.
    Informational only.  Every member is a qx2 class at l = 0, which has a
    Newton polygon, so no query misses data."""
    rows = []
    for d in deg6_classes(max_sum):
        if w_vanishes_a_priori(DEG6, d):
            continue
        value = w_threefold(WelschingerQuery("deg6", d, 0), store)
        if value < 0:
            rows.append((d, 0, value))
    return rows
