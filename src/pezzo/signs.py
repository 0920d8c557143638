"""Mod-2 sign of each fiber member in the real (Welschinger) fiber sums.

``sign_exponent`` gives, per family in closed form, the exponent of (-1) that
a fiber member D carries in the full-fiber sum.  ``pezzo.combine`` does not
call it: its closed forms (one member per monodromy pair) are what runs, and
they are checked in the test suite against the full-fiber sum built on
``sign_exponent``.  ``sign_exponent`` is in turn checked against the paper's
three-term calculus (reference-side bit, genus parity, quasi-quadratic
enhancement) on the families with orientable real part.  Both references
live in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Sequence

from .combine import _family
from .errors import EvenPairingError
from .lattice import pair


def sign_exponent(family, d: Sequence[int]) -> int:
    """Normative exponent of (-1) in the real fiber-sum term for D.

    ``family`` is a family id or a ``ThreefoldFamily``.  Only defined for
    fiber members with odd D.S (even pairings drop out of the sums by
    monodromy cancellation).
    """
    family = _family(family)
    surface = family.surface
    ds = pair(surface, d, surface.vanishing_cycle)
    if ds % 2 == 0:
        raise EvenPairingError(f"{family.id}: D.S = {ds} is even for D = {d}")
    fam = family.id
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
