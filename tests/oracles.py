"""Reference evaluation of the real fiber sums, used to check ``pezzo.combine``.

``w_fiber_sum`` is the full-fiber form of a threefold Welschinger count: each
fiber member with nonzero D.S enters with coefficient (-1)^e |D.S|, where e
is ``pezzo.signs.sign_exponent``, times its surface count, and the total is
halved.  ``pezzo.combine.w_threefold`` evaluates the same sum through closed
forms with one member per monodromy pair; the two must agree.
"""

from pezzo.combine import WelschingerQuery, _member_key, w_vanishes_a_priori
from pezzo.gw import gw_surface
from pezzo.lattice import FAMILIES, fiber, pair
from pezzo.signs import SIGN_DATA, sign_exponent
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
    data = SIGN_DATA[family.id]
    total = 0
    for member in fiber(family, d):
        ds = pair(surface, member, surface.vanishing_cycle)
        if ds == 0 or gw_surface(surface, member) == 0:
            continue
        sign = -1 if sign_exponent(data, member) else 1
        value = store.get_or_compute(_member_key(family.id, member, query.pairs))
        total += sign * abs(ds) * value
    assert total % 2 == 0, f"real fiber sum for {family.id}{d} is odd: {total}"
    return total // 2
