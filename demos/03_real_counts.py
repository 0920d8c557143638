"""Real signed counts: diagrams, sign calculus, tables, ingestion.

Run as `python demos/03_real_counts.py`.
"""

from pezzo import (
    InvariantKey,
    Store,
    WelschingerQuery,
    fd_count_real_l0,
    polygon_of,
    positivity_report,
    sign_exponent,
    w_threefold,
    w_vanishes_a_priori,
)
from pezzo.tables import w_deg7_table

# Totally real counts on the toric surfaces come from the same floor
# diagrams with the even-weight ones dropped.  The plane values are the
# classical 8, 240, 18264.
print("plane totally real:", [fd_count_real_l0(polygon_of("p2", (d,))) for d in (3, 4, 5)])

# Real fiber sums attach a sign to each member with odd D.S; a member and
# its monodromy twin carry the same sign, and the per-family closed forms
# sum one member per pair.
print("sign exponent of (0,5;2):", sign_exponent("deg7", (0, 5, 2)))
print("sign exponents of (2,1) and (1,2):",
      sign_exponent("deg8", (2, 1)), sign_exponent("deg8", (1, 2)))

# Parity alone forces many counts to vanish before any data is touched.
print("W(deg8, d=4) vanishes a priori:", w_vanishes_a_priori("deg8", (4,)))

# The store serves computed totally real values and ingested tables; the
# bundled plane fixture fills the (2k+1; k) columns at every pair count.
store = Store(cache_dir=None)
print("W(deg7, (5;0), 0) =", w_threefold(WelschingerQuery("deg7", (5, 0), 0), store))
print("W(deg7, (9;4), l) =",
      [w_threefold(WelschingerQuery("deg7", (9, 4), l), store) for l in range(7)])

# Twisted-real inputs are external: ingest a consistent row and combine.
store.insert(InvariantKey("W", "qx2t", (1, 0, 1), 0), 1)
print("W(deg6t, (1;1), 0) =", w_threefold(WelschingerQuery("deg6t", (1, 1), 0), store))

# The nonnegativity sweep for the standard product family stays clean.
print("negative entries up to sum 9:", positivity_report(9, store))

text, missing = w_deg7_table(max_d=5, store=store)
print("\n" + text)
print(f"({missing} cells await ingested surface data)")
