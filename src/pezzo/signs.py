"""Mod-2 sign data entering the real (Welschinger) fiber sums.

Three ingredients are combined per fiber member D: the reference-side bit
``epsilon`` (which of the two isotopy classes of real normal line subbundles
D selects, pinned to 0 on a reference class L with L.S = -1), the genus
parity, and a quasi-quadratic enhancement evaluated on the mod-2 reduction
of D.  The per-family closed forms in ``sign_exponent`` are the reference
sign of each fiber member; the three-term pipeline is kept as a consistency
check where it agrees.  ``pezzo.combine`` does not call this module: its
closed forms (one member per monodromy pair) are what runs, and they are
checked against ``sign_exponent`` and the full-fiber sum in the test suite
(``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import EvenPairingError, RankMismatchError, UndefinedSignError
from .lattice import DEG6, DEG6T, DEG7, DEG8, ThreefoldFamily, pair


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
        # is the unique value making eps + g + s match the closed forms below
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


def sign_exponent(data: FamilySignData, d: Sequence[int]) -> int:
    """Normative exponent of (-1) in the real fiber-sum term for D.

    Only defined for fiber members with odd D.S (even pairings drop out of
    the sums by monodromy cancellation).
    """
    ds = _pair_with_cycle(data, d)
    if ds % 2 == 0:
        raise EvenPairingError(f"{data.family.id}: D.S = {ds} is even for D = {d}")
    fam = data.family.id
    if fam == "deg8":
        a, b = d
        return (a + 1) % 2 if a > b else a % 2
    if fam == "deg7":
        a, b, k = d
        base = (k + k * k) // 2
        return (a + 1 + base) % 2 if a > b else (a + base) % 2
    if fam == "deg6":
        a, b, alpha, beta = d
        base = (alpha + beta - 1) // 2
        return (alpha + 1 + base) % 2 if alpha > beta else (alpha + base) % 2
    # twisted: member (a, a; alpha, beta), c = 2a - alpha - beta odd
    a, _, alpha, beta = d
    base = (2 * a - alpha - beta - 1) // 2
    return (base + alpha) % 2 if alpha > beta else (1 + base + alpha) % 2
