"""Deterministic table renderers for the four families.

Each builder returns ``(text, missing)`` where ``missing`` counts cells whose
Welschinger inputs are not available; such cells render as ``?``.  Cells
where the pair count exceeds its bound stay blank.  The CSV format matches
the store ingestion grammar, so emitted tables re-ingest losslessly.
"""

from __future__ import annotations

from .combine import (
    WelschingerQuery,
    deg6_classes,
    gw_threefold,
    gw_vanishes_a_priori,
    w_threefold,
    w_vanishes_a_priori,
)
from .errors import DataUnavailableError
from .gw import gw_surface
from .lattice import FAMILIES, fiber
from .store import GW_TOKEN, Store, csv_header, csv_row, pair_bound


def _md_table(header, rows) -> str:
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out) + "\n"


def gw_deg6_table(max_sum: int = 12, fmt: str = "md") -> tuple:
    """Complex counts of the product family with their fiber breakdown."""
    family = FAMILIES["deg6"]
    classes = [d for d in deg6_classes(max_sum) if not gw_vanishes_a_priori(family, d)]
    if fmt == "csv":
        rows = [csv_row(GW_TOKEN[family.id], d, 0, gw_threefold(family, d)) for d in classes]
        return csv_header(family.rank) + "\n" + "".join(rows), 0
    rows = []
    for d in classes:
        label = "(%d,%d,%d)" % d
        value = str(gw_threefold(family, d))
        members = fiber(family, d)
        for t, member in enumerate(members[: len(members) // 2]):
            rows.append([
                label if t == 0 else "",
                value if t == 0 else "",
                "(%d,%d;%d,%d)" % member,
                str(len(members) - 1 - 2 * t),  # |D_t.S|, read off the line
                str(gw_surface(family.surface, member)),
            ])
    text = _md_table(["class", "count", "fiber member", "D.S", "member count"], rows)
    return text, 0


def _w_grid(family_id: str, columns, labels, store, fmt):
    """Shared grid builder: columns of classes, rows of pair counts.  One
    walk, column by column with l ascending, fills ``cells``; the CSV rows
    and the cache rows written on the way follow that order."""
    cells = {}
    for d in columns:
        for l in range(pair_bound(family_id, d) + 1):
            try:
                cells[d, l] = str(w_threefold(WelschingerQuery(family_id, d, l), store))
            except DataUnavailableError:
                cells[d, l] = "?"
    missing = list(cells.values()).count("?")
    if fmt == "csv":
        rows = [csv_row(family_id, d, l, val) for (d, l), val in cells.items() if val != "?"]
        return csv_header(FAMILIES[family_id].rank) + "\n" + "".join(rows), missing
    rows = [[str(l)] + [cells.get((d, l), "") for d in columns]
            for l in range(max((l for _, l in cells), default=-1) + 1)]
    return _md_table(["l"] + labels, rows), missing


def w_deg7_table(max_d: int = 9, fmt: str = "md", *, store: Store) -> tuple:
    """Real counts of the once-blown family, one grid per odd degree."""
    degrees = range(1, max_d + 1, 2)
    if fmt == "csv":
        columns = [(deg, k) for deg in degrees for k in range(deg + 1)]
        return _w_grid("deg7", columns, None, store, fmt)
    parts = []
    missing = 0
    for deg in degrees:
        columns = [(deg, k) for k in range(deg + 1)]
        labels = [f"({deg};{k})" for k in range(deg + 1)]
        text, miss = _w_grid("deg7", columns, labels, store, fmt)
        missing += miss
        parts.append(f"degree pair (d;k), d = {deg}\n\n" + text)
    return "\n".join(parts), missing


def w_deg6_table(max_sum: int = 15, fmt: str = "md", *, store: Store) -> tuple:
    """Real counts of the standard-real product family."""
    family = FAMILIES["deg6"]
    columns = [d for d in deg6_classes(max_sum) if not w_vanishes_a_priori(family, d)]
    labels = ["(%d,%d,%d)" % d for d in columns]
    return _w_grid("deg6", columns, labels, store, fmt)


def w_deg6t_table(max_a: int = 5, fmt: str = "md", *, store: Store) -> tuple:
    """Real counts of the twisted product family (ingested inputs only)."""
    columns = [(a, c) for a in range(1, max_a + 1) for c in range(1, 2 * a, 2)]
    labels = [f"({a};{c})" for a, c in columns]
    return _w_grid("deg6t", columns, labels, store, fmt)


TABLES = {
    "gw-deg6": gw_deg6_table,
    "w-deg7": w_deg7_table,
    "w-deg6": w_deg6_table,
    "w-deg6t": w_deg6t_table,
}
