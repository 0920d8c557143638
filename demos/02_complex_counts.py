"""The two complex-count backends and a threefold table.

Run as `python demos/02_complex_counts.py`.
"""

from pezzo import (
    enumerate_diagrams,
    fd_count_complex,
    gw_blowup_p2,
    gw_surface,
    gw_threefold,
    polygon_of,
)
from pezzo.tables import gw_deg6_table

# The lattice recursion on the plane produces the classical sequence.
print("plane counts:", [gw_surface("p2", (d,)) for d in range(1, 7)])

# The lattice recursion handles up to three blow-up points; unit
# multiplicities absorb into point constraints and oversized ones kill the
# count.
print("(5;2,2,2) =", gw_blowup_p2(5, 2, 2, 2))
print("(2;1,2,0) =", gw_blowup_p2(2, 1, 2, 0), "(a pair of multiplicities exceeds 2)")

# The tropical backend enumerates floor diagrams over the Newton polygon and
# must agree with the recursion on every class.
pc = polygon_of("p2", (3,))
print("\ncubic floor diagrams:")
for diag in enumerate_diagrams(pc):
    print(" ", diag.dump_line())
print("tropical count:", fd_count_complex(pc), "| recursion:", gw_surface("p2", (3,)))

# Quadric-side classes reduce to the plane through the change of basis; the
# same class counted on its polygon gives the same number.
cls = (3, 3, 1, 2)
print("\n(3,3;1,2) via recursion:", gw_surface("qx2", cls),
      "| via diagrams:", fd_count_complex(polygon_of("qx2", cls)))

# Threefold counts are half-sums over fibers.  This reproduces the full
# degree-6 table up to class sum 12.
print("\nGW(1,1,1) =", gw_threefold("deg6", (1, 1, 1)))
print("GW(3,3,3) =", gw_threefold("deg6", (3, 3, 3)))
print("GW(4,4,4) =", gw_threefold("deg6", (4, 4, 4)))

text, _ = gw_deg6_table(max_sum=9)
print("\n" + text)
