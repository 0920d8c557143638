"""Fiber-sum combiners: threefold counts from surface counts.

The complex count of a threefold class is half the sum of (D.S)^2-weighted
surface counts over the fiber of classes pushing onto it.  The real count
replaces the weight by a signed |D.S| and Welschinger surface inputs.  It is
evaluated through per-family closed forms with one member per monodromy
pair, which is the halved full-fiber sum.  They are the only real path.
The test suite checks them against the full-fiber sum signed member by
member by ``pezzo.signs.sign_exponent``, and checks that sign against the
paper's three-term sign calculus; both references are in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DataUnavailableError, DomainError, ParityError, WQueryError
from .gw import gw_surface
from .lattice import FAMILIES, ThreefoldFamily, constraint_count, fiber, pair
from .store import InvariantKey, Store, default_store


@dataclass(frozen=True)
class WelschingerQuery:
    family_id: str
    cls: tuple
    pairs: int

    def __post_init__(self):
        if self.family_id not in FAMILIES:
            raise DomainError(f"unknown family {self.family_id!r}")


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


def _cycle_pairing(family: ThreefoldFamily, member) -> int:
    surface = family.surface
    return pair(surface, member, surface.vanishing_cycle)


def gw_threefold(family, d) -> int:
    """Complex count of rational curves in the threefold class d."""
    family = _family(family)
    if family.id == "deg6t":
        raise DomainError(
            "complex counts are real-structure independent; query deg6 instead"
        )
    d = _as_tuple(family, d)
    total = 0
    for member in fiber(family, d):
        ds = _cycle_pairing(family, member)
        if ds == 0:
            continue
        total += ds * ds * gw_surface(family.surface, member)
    if total % 2:
        raise ParityError(f"fiber sum for {family.id}{d} is odd: {total}")
    return total // 2


def gw_vanishes_a_priori(family, d) -> bool:
    """True when the complex count vanishes for support reasons (one
    coordinate at least the sum of the other two, beyond the line classes)."""
    family = _family(family)
    if family.id != "deg6":
        raise DomainError("support predicate applies to deg6 coordinates")
    a, b, c = sorted(_as_tuple(family, d), reverse=True)
    return a + b + c > 1 and a >= b + c


def w_vanishes_a_priori(family, d) -> bool:
    """True when every fiber member has even D.S, or the support fails."""
    family = _family(family)
    d = _as_tuple(family, d)
    if family.id == "deg8":
        return d[0] % 2 == 0
    if family.id == "deg7":
        return d[0] % 2 == 0
    if family.id == "deg6":
        a, b, c = sorted(d, reverse=True)
        # the support condition spares the line classes (a + b + c = 1)
        return (a + b + c) % 2 == 0 or (a > b + c and a + b + c > 1)
    a, c = d
    return c % 2 == 0 or (c > 2 * a and 2 * a + c > 1)


def _member_key(family_id: str, member: tuple, pairs: int) -> InvariantKey:
    if family_id == "deg6t":
        a, _, alpha, beta = member
        return InvariantKey("W", "qx2t", (a, alpha, beta), pairs)
    return InvariantKey("W", FAMILIES[family_id].surface.id, member, pairs)


def _fetch_w(store: Store, family_id: str, terms, pairs: int):
    """Surface Welschinger inputs for (coeff, member) terms; members whose
    complex count vanishes are skipped without touching the store."""
    surface = FAMILIES[family_id].surface
    values = []
    missing = []
    for coeff, member in terms:
        if gw_surface(surface, member) == 0:
            continue
        key = _member_key(family_id, member, pairs)
        try:
            values.append((coeff, store.get_or_compute(key)))
        except DataUnavailableError as exc:
            for k in exc.keys:
                if k not in missing:
                    missing.append(k)
    if missing:
        raise DataUnavailableError(missing)
    return values


def _check_query(query: WelschingerQuery) -> tuple:
    family = FAMILIES[query.family_id]
    d = _as_tuple(family, query.cls)
    k_d = constraint_count(family, d)
    if not 0 <= query.pairs <= (k_d - 1) // 2:
        raise WQueryError(
            f"{family.id}{d}: pairs {query.pairs} outside 0..{max((k_d - 1) // 2, -1)}"
            " (at least one real point is required)"
        )
    return d


def w_threefold(query: WelschingerQuery, store: Optional[Store] = None) -> int:
    """Real signed count of the threefold class through k_d points with
    ``query.pairs`` conjugate pairs; 0 without data access when the parity or
    support predicate applies."""
    family = FAMILIES[query.family_id]
    d = _check_query(query)
    if w_vanishes_a_priori(family, d):
        return 0
    if store is None:
        store = default_store()
    if family.id == "deg6":
        d = tuple(sorted(d, reverse=True))
    terms = _reduced_terms(family, d)
    values = _fetch_w(store, family.id, terms, query.pairs)
    return sum(coeff * w for coeff, w in values)


def _reduced_terms(family: ThreefoldFamily, d: tuple) -> list:
    """(signed coefficient, member) per monodromy pair, per the closed forms.

    ``d`` is past ``w_vanishes_a_priori`` (and sorted for deg6).  The only
    such class with a = 0 is the twisted line class (0;1), whose fiber pair
    is {(0,0;-1,0), (0,0;0,-1)}: alpha runs from s = -1 there.
    """
    fam = family.id
    if fam == "deg8":
        (deg,) = d
        return [((-1) ** a * (deg - 2 * a), (a, deg - a))
                for a in range((deg + 1) // 2)]
    if fam == "deg7":
        deg, k = d
        base = (k + k * k) // 2
        return [((-1) ** (a + base) * (deg - 2 * a), (a, deg - a, k))
                for a in range((deg + 1) // 2)]
    if fam == "deg6":
        a, b, c = d
        s = a + b - c
        base = (s - 1) // 2
        return [((-1) ** (alpha + base) * (s - 2 * alpha), (a, b, alpha, s - alpha))
                for alpha in range((s + 1) // 2)]
    a, c = d
    s = 2 * a - c
    base = (c + 1) // 2
    # alpha may be -1 here; the exponent is reduced so the power stays an int
    return [((-1) ** ((alpha + base) % 2) * (s - 2 * alpha), (a, a, alpha, s - alpha))
            for alpha in range(min(s, 0), (s + 1) // 2)]


def positivity_report(max_sum: int, store: Optional[Store] = None,
                      max_pairs: int = 0) -> list:
    """Nonnegativity sweep for the standard-real product family: returns the
    (class, pairs, value) triples that come out negative, plus the queries
    with missing data (value None).  Informational only."""
    if store is None:
        store = default_store()
    rows = []
    for a in range(1, max_sum + 1):
        for b in range(a + 1):
            for c in range(b + 1):
                d = (a, b, c)
                if sum(d) > max_sum or sum(d) % 2 == 0 or a > b + c:
                    continue
                k_d = sum(d)
                for l in range(min(max_pairs, (k_d - 1) // 2) + 1):
                    try:
                        value = w_threefold(WelschingerQuery("deg6", d, l), store)
                    except DataUnavailableError:
                        rows.append((d, l, None))
                        continue
                    if value < 0:
                        rows.append((d, l, value))
    return rows
