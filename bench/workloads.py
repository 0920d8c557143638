"""Workload definitions and the seeded input generator of the benchmark.

Three workloads:

* ``real-tables``: the paper's real tables, each command cold (fresh process,
  empty ``--cache-dir``).  The floor-diagram enumerator does the work.
* ``complex-sweep``: the complex product table, cold.  The ``gw`` blow-up
  recursion does the work; floor diagrams never run.
* ``warm-store``: a seeded ingest (write phase) followed by a seeded mix of
  ``w3``/``gw3``/store queries against the filled cache (read phase).

Every workload has the same phases, so every end-to-end metric exists on
each: cold commands (none for ``warm-store``), a write phase of ``pezzo
ingest`` commands into an empty cache, and a read phase in which one fresh
process opens that cache and answers queries closed-loop, one at a time.
On the table workloads the write phase ingests what the cold commands
computed, and the read phase asks for each printed cell once and reads
those rows, so the warm answers are checked against the cold ones (see
``table_inputs``).

This module uses only the standard library; the program under test is run
by ``run.py`` and ``child.py``.  The p2x3 and qx2t complex counts that make
the ingested rows valid by construction are pinned in ``pins.json``.
"""

from __future__ import annotations

import os
import random
import re

# -- cold commands -----------------------------------------------------------

COLD = {
    "real-tables": [
        ["table", "w-deg6", "--max-sum", "13"],
        ["table", "w-deg7", "--max-d", "9"],
        ["w2", "--surface", "qx2", "--class", "5,5,2,3"],
    ],
    "complex-sweep": [
        ["table", "gw-deg6", "--max-sum", "28"],
    ],
    "warm-store": [],
}

# complex-sweep ingests the classes up to the first sum and looks up those
# up to the second, so the store serves a few from the ingested rows and
# computes the rest.  Neither phase covers the whole table: the ingest checks
# each row against the gw recursion, and a lookup that misses runs it, so
# either would take about as long as the cold command itself.
SWEEP_INGEST_MAX_SUM = 12
SWEEP_READ_MAX_SUM = 20

WARM_QUERIES = 2000


def command_label(argv) -> str:
    """Metric label of a CLI command: ``table.w-deg6``, ``w2``, ``ingest``."""
    return f"table.{argv[1]}" if argv[0] == "table" else argv[0]


# -- parsing printed tables --------------------------------------------------

_CELL_CLASS = re.compile(r"\((\d+)[,;](\d+)(?:,(\d+))?\)")


def _class_of(label: str) -> tuple:
    m = _CELL_CLASS.fullmatch(label.strip())
    if not m:
        raise ValueError(f"unparsable class label {label!r}")
    return tuple(int(g) for g in m.groups() if g is not None)


def _md_rows(text: str):
    """Rows of every markdown grid in text, header rows included."""
    for line in text.splitlines():
        if line.startswith("|") and not line.startswith("|---"):
            yield [c.strip() for c in line.strip().strip("|").split("|")]


def parse_w_grid(text: str) -> dict:
    """{(class, l): value or None for '?'} from a w-deg6 or w-deg7 table."""
    cells = {}
    header = None
    for row in _md_rows(text):
        if row[0] == "l":
            header = [_class_of(c) for c in row[1:]]
            continue
        l = int(row[0])
        for d, cell in zip(header, row[1:]):
            if cell:
                cells[(d, l)] = None if cell == "?" else int(cell)
    return cells


def parse_gw_table(text: str) -> dict:
    """{class: (count, [(member, |D.S|, member count)])} from gw-deg6."""
    out = {}
    current = None
    for row in _md_rows(text):
        if row[0] == "class":
            continue
        label, count, member, ds, mcount = row
        if label:
            current = _class_of(label)
            out[current] = (int(count), [])
        nums = tuple(int(x) for x in re.findall(r"\d+", member))
        out[current][1].append((nums, int(ds), int(mcount)))
    return out


# -- table workloads: write and read phases ---------------------------------

def cache_rows(cache_dirs) -> dict:
    """{space: [(class, l, value)]} of the Welschinger rows in the cache
    files (``<space>.store``, lines ``W,c1,...,cK,l,value`` or ``GW,...``) of
    the given directories.  Only W rows have an ingest grammar."""
    out = {}
    for cache in cache_dirs:
        for name in sorted(os.listdir(cache)):
            space = name[: -len(".store")]
            with open(os.path.join(cache, name), encoding="utf-8") as fh:
                for line in fh.read().splitlines():
                    parts = line.split(",")
                    if parts[0] == "W":
                        nums = [int(x) for x in parts[1:]]
                        out.setdefault(space, []).append((tuple(nums[:-2]), nums[-2], nums[-1]))
    return out


def table_inputs(workload: str, outputs: list, caches: dict):
    """(ingest files, queries) of a table workload's write and read phases.

    real-tables: the write phase ingests the surface rows the cold commands
    left in their caches (``caches``, see cache_rows) into an empty cache;
    the read phase asks for every printed cell once, and each w3 answer is
    made from those rows.  complex-sweep: the write phase ingests the printed
    complex counts of the classes with sum <= SWEEP_INGEST_MAX_SUM as
    ``deg6-gw`` rows, and the read phase looks up every printed class with
    sum <= SWEEP_READ_MAX_SUM once, in order of sum: the store reads the
    ingested rows and computes the others with the gw recursion.

    ingest files: [(space token, csv text, rows, expected rejected)];
    queries: [(query, expected)], expected None for a ``?`` cell (no data).
    """
    if workload == "real-tables":
        files = [_csv(space, rows) for space, rows in sorted(caches.items())]
        queries = []
        for family, text in (("deg6", outputs[0]), ("deg7", outputs[1])):
            queries += [(("w3", family, d, l), v)
                        for (d, l), v in sorted(parse_w_grid(text).items())]
        queries.append((("get", "W", "qx2", (5, 5, 2, 3), 0), int(outputs[2])))
        return files, queries
    if workload == "complex-sweep":
        table = sorted((sum(d), d, count) for d, (count, _) in parse_gw_table(outputs[0]).items())
        files = [_csv("deg6-gw", [(d, 0, count) for s, d, count in table
                                  if s <= SWEEP_INGEST_MAX_SUM])]
        return files, [(("get", "GW", "deg6", d, 0), count) for s, d, count in table
                       if s <= SWEEP_READ_MAX_SUM]
    raise ValueError(workload)


def _csv(space: str, rows) -> tuple:
    """(space, text, rows, expected rejected) of one ingest file."""
    text = _header(len(rows[0][0])) + "".join(_fmt(space, d, l, v) for d, l, v in rows)
    return space, text, len(rows), 0


# -- warm-store: fixed universe ------------------------------------------------

P2X3_MAX_DEG = 13       # p2x3 classes (d; a1 >= a2 >= a3) with d <= 13
QX2T_MAX_A = 4          # qx2t rows cover every deg6t class with a <= 4
W3_DEG6_MAX_SUM = 13
W3_DEG7_MAX_D = 9
W3_DEG8_MAX_D = 9
W3_DEG6T_MAX_A = 5      # a = 5 has no qx2t rows: those queries lack data
GW3_DEG6_MAX_SUM = 18
GW3_DEG7_MAX_D = 10
GW3_DEG8_MAX_D = 10


def _pair_range(k: int) -> range:
    """Pair counts 0..(k-1)//2 that leave at least one real point."""
    return range((k - 1) // 2 + 1) if k >= 1 else range(0)


def w3_universe() -> list:
    """Every w3 query the read phase may ask: ("w3", family, class, l)."""
    out = []
    for s in range(1, W3_DEG6_MAX_SUM + 1):
        for a in range(s + 1):
            for b in range(a + 1):
                c = s - a - b
                if 0 <= c <= b:
                    out += [("w3", "deg6", (a, b, c), l) for l in _pair_range(s)]
    for d in range(1, W3_DEG7_MAX_D + 1):
        for k in range(d + 1):
            out += [("w3", "deg7", (d, k), l) for l in _pair_range(2 * d - k)]
    for d in range(1, W3_DEG8_MAX_D + 1):
        out += [("w3", "deg8", (d,), l) for l in _pair_range(2 * d)]
    for a, c in deg6t_classes(W3_DEG6T_MAX_A):
        out += [("w3", "deg6t", (a, c), l) for l in _pair_range(2 * a + c)]
    return out


def deg6t_classes(max_a: int) -> list:
    """Twisted classes (a, c), c odd, up to one past the support bound."""
    out = [(0, 1)]
    for a in range(1, max_a + 1):
        out += [(a, c) for c in range(1, 2 * a + 2, 2)]
    return out


def gw3_universe() -> list:
    out = []
    for s in range(1, GW3_DEG6_MAX_SUM + 1):
        for a in range(s + 1):
            for b in range(a + 1):
                c = s - a - b
                if 0 <= c <= b:
                    out.append(("gw3", "deg6", (a, b, c)))
    out += [("gw3", "deg7", (d, k)) for d in range(1, GW3_DEG7_MAX_D + 1)
            for k in range(d + 1)]
    out += [("gw3", "deg8", (d,)) for d in range(1, GW3_DEG8_MAX_D + 1)]
    return out


def qx2t_keys() -> list:
    """Canonical qx2t keys (a, alpha, beta) in the fibers of the deg6t
    classes with a <= QX2T_MAX_A, with the largest pair count each needs."""
    need = {}
    for a, c in deg6t_classes(QX2T_MAX_A):
        if a == 0:
            members = [(0, -t, t - c) for t in range(c + 1)]
        else:
            s = 2 * a - c
            if s < 0:
                continue
            members = [(a, alpha, s - alpha) for alpha in range(s + 1)]
        top = (2 * a + c - 1) // 2
        for a_, alpha, beta in members:
            key = min((a_, alpha, beta), (a_, beta, alpha))
            need[key] = max(need.get(key, 0), top)
    return sorted(need.items())


def p2x3_classes() -> list:
    """Canonical p2x3 classes of degree 1..P2X3_MAX_DEG."""
    return [(d, a1, a2, a3)
            for d in range(1, P2X3_MAX_DEG + 1)
            for a1 in range(d + 1) for a2 in range(a1 + 1) for a3 in range(a2 + 1)]


def _p2x3_k(cls) -> int:
    d, a1, a2, a3 = cls
    return 3 * d - a1 - a2 - a3 - 1


def _synthetic(rng: random.Random, gw: int) -> int:
    """A value that passes the ingest checks: |W| <= GW and W = GW mod 2."""
    return gw - 2 * rng.randint(0, gw)


def universe_values(pins: dict) -> tuple:
    """Fixed synthetic values: ({p2x3 key: value}, {qx2t key: value}).

    A key is (class, l).  The values do not depend on the seed, so the deg6t
    answers pinned in pins.json hold for every seed.
    """
    rng = random.Random(20230219)
    p2x3 = {}
    for row in pins["p2x3_gw"]:
        cls, gw = tuple(row[:4]), row[4]
        for l in _pair_range(_p2x3_k(cls)) or range(1):
            p2x3[(cls, l)] = _synthetic(rng, gw)
    qx2t = {}
    for row in pins["qx2t_gw"]:
        cls, top, gw = tuple(row[:3]), row[3], row[4]
        for l in range(top + 1):
            qx2t[(cls, l)] = _synthetic(rng, gw)
    return p2x3, qx2t


# -- warm-store: seeded inputs -------------------------------------------------

HELD_OUT_MAX_DEG = 8     # see _held_out
DUPLICATE_SHARE = 0.05   # consistent duplicates of a good row
BAD_SHARE = 0.03         # planted bad rows

BAD_KINDS = ("parity", "bound", "conflict", "space")


def warm_inputs(seed: int, pins: dict) -> tuple:
    """(ingest files, queries) of warm-store for one seed.

    The same seed gives the same files, the same expected inserted and
    rejected counts, and the same queries with the same expected answers.
    The seed orders the rows and the queries, and picks the duplicated rows
    and the planted bad rows; the keys ingested and the queries asked are the
    same for every seed, so every seed does the same computation.
    """
    rng = random.Random(seed)
    p2x3_vals, qx2t_vals = universe_values(pins)
    gw_p2x3 = {tuple(r[:4]): r[4] for r in pins["p2x3_gw"]}

    held_out = _held_out(p2x3_vals)
    keys = sorted(set(p2x3_vals) - held_out)
    rows = []
    for key in keys:
        rows.append(_p2x3_row(key, p2x3_vals[key]))
        if rng.random() < DUPLICATE_SHARE:
            rows.append(_p2x3_row(key, p2x3_vals[key]))
    rng.shuffle(rows)
    good = len(rows)
    n_bad = max(len(BAD_KINDS), round(BAD_SHARE * good))
    for i in range(n_bad):
        kind = BAD_KINDS[i % len(BAD_KINDS)]
        key = rng.choice([k for k in keys if gw_p2x3[k[0]] >= 2]) if kind == "conflict" \
            else rng.choice(keys)
        (cls, l), gw = key, gw_p2x3[key[0]]
        if kind == "parity":
            row = _fmt("p2x3", cls, l, gw - 1)
        elif kind == "bound":
            row = _fmt("p2x3", cls, l, gw + 2)
        elif kind == "space":
            row = _fmt("p2x2", cls, l, p2x3_vals[key])
        else:
            value = p2x3_vals[key]
            row = _fmt("p2x3", cls, l, value + 2 if value + 2 <= gw else value - 2)
        if kind == "conflict":
            # after the good row of the key, so the good value is the one stored
            first = next(i for i, r in enumerate(rows) if r[1] == key)
            rows.insert(rng.randint(first + 1, len(rows)), (row, None))
        else:
            rows.insert(rng.randint(0, len(rows)), (row, None))
    p2x3_text = _header(4) + "".join(r for r, _ in rows)

    qrows = []
    for (cls, l), value in sorted(qx2t_vals.items()):
        a, alpha, beta = cls
        shown = (a, beta, alpha) if rng.random() < 0.5 else cls
        qrows.append(_fmt("qx2t", shown, l, value))
    rng.shuffle(qrows)

    files = [("p2x3", p2x3_text, len(rows), n_bad),
             ("qx2t", _header(3) + "".join(qrows), len(qrows), 0)]
    for space, table in sorted(pins["true_l0"].items()):
        lines = [_fmt(space, tuple(r[:-1]), 0, r[-1]) for r in table]
        rng.shuffle(lines)
        files.append((space, _header(len(table[0]) - 1) + "".join(lines), len(lines), 0))

    queries = [(tuple(tuple(x) if isinstance(x, list) else x for x in q), answer)
               for q, answer in pins["answers"]]
    queries += _store_gets(p2x3_vals, held_out, gw_p2x3, WARM_QUERIES - len(queries))
    rng.shuffle(queries)
    return files, queries


def _held_out(p2x3_vals) -> set:
    """p2x3 keys that get no row: the top pair count of each class of degree
    at most HELD_OUT_MAX_DEG.  A get on one ends in DataUnavailableError after
    a GW check that is cheap at these degrees; at degree 13 the check alone
    runs a recursion of over half a second in a fresh process."""
    top = {}
    for cls, l in p2x3_vals:
        top[cls] = max(top.get(cls, 0), l)
    return {(cls, l) for cls, l in p2x3_vals
            if cls[0] <= HELD_OUT_MAX_DEG and 0 < l == top[cls]}


def _store_gets(p2x3_vals, held_out, gw_p2x3, n: int) -> list:
    """n store get_or_compute queries on p2x3 keys, the same for every seed:
    every held-out key (no data), one in ten on a class with GW = 0 (computed
    as 0), and ingested keys for the rest."""
    fixed = random.Random(20230220)
    gets = [(("get", "W", "p2x3", cls, l), None) for cls, l in sorted(held_out)]
    zero = [c for c in p2x3_classes() if c not in gw_p2x3]
    gets += [(("get", "W", "p2x3", c, 0), 0) for c in fixed.sample(zero, n // 10)]
    hits = sorted(set(p2x3_vals) - held_out)
    gets += [(("get", "W", "p2x3", cls, l), p2x3_vals[(cls, l)])
             for cls, l in fixed.sample(hits, n - len(gets))]
    return gets


def _p2x3_row(key, value):
    cls, l = key
    return _fmt("p2x3", cls, l, value), key


def _fmt(space, cls, l, value) -> str:
    return f"{space}," + ",".join(map(str, cls)) + f",{l},{value}\n"


def _header(rank: int) -> str:
    return "space," + ",".join(f"c{i}" for i in range(1, rank + 1)) + ",l,value\n"
