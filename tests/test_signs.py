import itertools
import random

import pytest

from oracles import SIGN_DATA, UndefinedSignError, epsilon, qqe_eval, rho
from pezzo.errors import EvenPairingError, RankMismatchError
from pezzo.lattice import FAMILIES, fiber, genus, monodromy, pair
from pezzo.signs import sign_exponent


def _cycle(data, d):
    surface = data.family.surface
    return pair(surface, d, surface.vanishing_cycle)


def test_epsilon_examples():
    assert epsilon(SIGN_DATA["deg8"], (2, 1)) == 0
    assert epsilon(SIGN_DATA["deg8"], (1, 2)) == 1
    assert epsilon(SIGN_DATA["deg6"], (3, 3, 2, 1)) == 0
    assert epsilon(SIGN_DATA["deg6"], (3, 3, 1, 2)) == 1


def test_epsilon_undefined_on_cycle_orthogonal():
    with pytest.raises(UndefinedSignError):
        epsilon(SIGN_DATA["deg8"], (2, 2))


def test_epsilon_reference_pinning():
    for data in SIGN_DATA.values():
        assert epsilon(data, data.ref_class) == 0
        assert _cycle(data, data.ref_class) == -1


def test_epsilon_monodromy_flip():
    rng = random.Random(2)
    for _ in range(300):
        data = rng.choice(list(SIGN_DATA.values()))
        surface = data.family.surface
        d = tuple(rng.randrange(-3, 6) for _ in range(surface.rank))
        if _cycle(data, d) == 0:
            continue
        t = monodromy(surface, d)
        assert epsilon(data, t) == (epsilon(data, d) + 1) % 2


def test_qqe_examples():
    torus = SIGN_DATA["deg8"].enhancement
    assert qqe_eval(torus, (1, 1)) == 0
    assert qqe_eval(torus, (0, 1)) == 1
    assert qqe_eval(torus, (0, 0)) == 0
    with pytest.raises(RankMismatchError):
        qqe_eval(torus, (1, 0, 0))


def test_qqe_defining_identity():
    # s(x+y) = s(x) + s(y) + x.y + (w1.x)(w1.y) over the whole group
    for data in SIGN_DATA.values():
        e = data.enhancement
        vectors = list(itertools.product((0, 1), repeat=e.rank))
        for x in vectors:
            for y in vectors:
                xy = tuple((a + b) % 2 for a, b in zip(x, y))
                want = (qqe_eval(e, x) + qqe_eval(e, y) + e.pair(x, y)
                        + e.w1_dot(x) * e.w1_dot(y)) % 2
                assert qqe_eval(e, xy) == want


def test_qqe_vanishes_on_reduced_cycle():
    for data in SIGN_DATA.values():
        cycle = data.family.surface.vanishing_cycle
        assert qqe_eval(data.enhancement, rho(data, cycle)) == 0


def test_qqe_monodromy_shift():
    # s(rho T(D)) = s(rho D) + D.S mod 2 on the orientable-side families
    for fam in ("deg8", "deg7"):
        data = SIGN_DATA[fam]
        surface = data.family.surface
        rng = random.Random(4)
        for _ in range(300):
            d = tuple(rng.randrange(-3, 6) for _ in range(surface.rank))
            t = monodromy(surface, d)
            shift = (qqe_eval(data.enhancement, rho(data, t))
                     - qqe_eval(data.enhancement, rho(data, d))) % 2
            assert shift == _cycle(data, d) % 2


def test_sign_exponent_examples():
    assert sign_exponent("deg8", (1, 0)) == 0
    assert sign_exponent("deg7", (0, 5, 2)) == 1
    assert sign_exponent(FAMILIES["deg6"], (3, 3, 0, 3)) == 1


def test_sign_exponent_even_pairing_error():
    with pytest.raises(EvenPairingError):
        sign_exponent("deg8", (2, 0))
    with pytest.raises(EvenPairingError):
        sign_exponent("deg6", (2, 2, 0, 2))


def _odd_fiber_members(fam, classes):
    data = SIGN_DATA[fam]
    family = FAMILIES[fam]
    for cls in classes:
        for member in fiber(family, cls):
            if _cycle(data, member) % 2:
                yield member


def test_sign_exponent_pairs_under_monodromy():
    cases = {
        "deg8": [(d,) for d in (1, 3, 5, 7)],
        "deg7": [(d, k) for d in (1, 3, 5) for k in range(d + 1)],
        "deg6": [(3, 3, 3), (4, 4, 3), (5, 4, 2), (2, 2, 1)],
        "deg6t": [(2, 1), (3, 3), (4, 5)],
    }
    for fam, classes in cases.items():
        data = SIGN_DATA[fam]
        surface = data.family.surface
        for member in _odd_fiber_members(fam, classes):
            t = monodromy(surface, member)
            assert sign_exponent(fam, t) == sign_exponent(fam, member)


def test_closed_forms_match_three_term_pipeline():
    # on the families with orientable real part the normative exponent equals
    # epsilon + genus + enhancement, for every fiber member of the table range
    cases = {
        "deg8": [(d,) for d in (1, 3, 5, 7, 9)],
        "deg7": [(d, k) for d in (1, 3, 5, 7, 9) for k in range(d + 1)],
    }
    for fam, classes in cases.items():
        data = SIGN_DATA[fam]
        surface = data.family.surface
        for member in _odd_fiber_members(fam, classes):
            pipeline = (epsilon(data, member) + genus(surface, member)
                        + qqe_eval(data.enhancement, rho(data, member))) % 2
            assert pipeline == sign_exponent(fam, member), (fam, member)
