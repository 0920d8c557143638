"""Persistent, queryable store of curve-count invariants.

Keys are (kind, space, class, pairs) with kind GW or W.  GW values and
totally-real (pairs = 0) Welschinger values on the standard toric surfaces
are computed on demand; every other Welschinger value must come from CSV
ingestion.  Values are cached in memory and, when a store is given a cache
directory, in one append-only text file per space there.

CSV grammar: the header line ``csv_header(K)``, ``space,c1,...,cK,l,value``
for a space of rank K, followed by data rows with exactly K+3 comma-separated
fields; ``#`` lines are comments; UTF-8, lines ending at LF, CRLF or a lone CR.
"""

from __future__ import annotations

import gc
import os
import re
import sys
import threading
from collections import Counter, namedtuple
from operator import index
from typing import Optional

from . import gw
from .errors import (
    CacheError,
    CsvParseError,
    DataUnavailableError,
    DegeneratePolygonError,
    DomainError,
    ParityError,
    WQueryError,
)
from .lattice import (FAMILIES, POLYGON_SURFACES, SURFACES, TWISTED, constraint_count,
                      plane_to_quadric, quadric_coords, quadric_to_plane)

# every space token's rank; a twisted class drops the repeated entry of its untwisted class
_RANK = {token: space.rank for token, space in (*SURFACES.items(), *FAMILIES.items())}
_RANK.update((twisted, _RANK[plain] - 1) for twisted, plain in TWISTED.items())

# the CSV token of each untwisted family's complex counts; ingest stores its rows as GW keys
GW_TOKEN = {family: family + "-gw" for family in FAMILIES if family not in TWISTED}
_GW_ALIAS = {token: family for family, token in GW_TOKEN.items()}

# the bundled fixture of each space that has one: checked values, never written to a cache
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
_FIXTURES = {"p2": "welschinger_plane.csv", "qx1": "welschinger_blown_quadric.csv"}

# the literals int() reads; int() is quadratic in the length, so a value token
# past the default int/str digit limit (4300) is first bounded by its digit count
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: none


# str() past the int/str digit limit, through Decimal, which has none: every row and
# message prints under any limit (imported only then: it costs a process 2 ms and 0.4 MB)
def _text(number) -> str:
    try:
        return str(number)
    except ValueError:  # past the limit
        from decimal import Decimal
        return str(Decimal(number))


def _long_int(token: str) -> int:
    from decimal import Decimal
    return int(Decimal(token)) if _INTEGER.fullmatch(token) else int(token)


def space_rank(space: str) -> int:
    try:
        return _RANK[space]
    except KeyError:
        raise DomainError(f"unknown space token {space!r}") from None


def csv_header(rank: int) -> str:
    """The header line, without newline, of a CSV table of a space of this rank."""
    return ",".join(["space", *(f"c{i}" for i in range(1, rank + 1)), "l", "value"])


def csv_row(first: str, cls: tuple, pairs: int, value) -> str:
    """One row line, newline included: ``first,c1,...,cK,l,value``.  A CSV
    row's ``first`` is its space token, a cache row's its key's kind."""
    fields = (*cls, pairs, value)
    try:
        return f"{first},{','.join(map(str, fields))}\n"
    except ValueError:  # past the int/str digit limit
        return f"{first},{','.join(map(_text, fields))}\n"


def _pair_count(space: str, pairs) -> int:
    """A count of conjugate pairs as an int; DomainError when it is not an integer."""
    try:
        return index(pairs)
    except TypeError:
        raise DomainError(f"space {space}: pairs {pairs!r} is not an integer") from None


class InvariantKey(namedtuple("InvariantKey", "kind space cls pairs")):
    """A checked key, kind "GW" or "W", holding the canonical class: monodromy
    twins, qx2t cut swaps, deg6 and p2-side GW multiplicity permutations give
    equal keys."""

    __slots__ = ()

    def __new__(klass, kind: str, space: str, cls: tuple, pairs: int = 0):
        if kind not in ("GW", "W"):
            raise DomainError(f"bad kind {kind!r}")
        pairs = _pair_count(space, pairs)
        if kind == "GW" and pairs != 0:
            raise DomainError("GW keys carry pairs = 0")
        if pairs < 0:
            raise DomainError("pairs must be nonnegative")
        rank = space_rank(space)
        if len(cls) != rank:
            raise DomainError(f"space {space}: class {cls} has length {len(cls)}, want {rank}")
        try:
            cls = tuple(map(index, cls))
        except TypeError:
            raise DomainError(f"space {space}: class {cls} is not a vector of integers") from None
        if space in SURFACES:
            lat = SURFACES[space]
            # W keys only on the quadric side: there the twin is a monodromy image
            if kind == "GW" or lat.vanishing_cycle is not None:
                cls = gw._canonical_class(lat, cls)
        elif space == "qx2t":
            # the monodromy (``lattice.cremona``), restricted to the diagonal, swaps the two cuts
            a, alpha, beta = cls
            cls = min(cls, (a, beta, alpha))
        elif space == "deg6":
            cls = tuple(sorted(cls, reverse=True))
        return tuple.__new__(klass, (kind, space, cls, pairs))

    _make = classmethod(lambda klass, fields: klass(*fields))  # so _replace checks

    def __str__(self):
        cls = ",".join(map(_text, self.cls))
        return f"({self.kind} {self.space} ({cls}) l={self.pairs})"


def pair_bound(space: str, cls: tuple) -> int:
    """Most conjugate pairs a W value of the checked class can carry
    (negative when none fits): k_D // 2 on a surface, a twisted class
    counted as its untwisted class (``lattice.TWISTED``); on a threefold,
    k_d - 1 halved and rounded down, so one real point stays (ParityError
    when c1.d is odd)."""
    if space in TWISTED:
        space, cls = TWISTED[space], cls[:1] + cls
    if space in FAMILIES:
        return (FAMILIES[space].constraints(cls) - 1) // 2
    return constraint_count(SURFACES[space], cls) // 2


def check_pairs(space: str, cls: tuple, pairs: int) -> None:
    """Raise WQueryError unless 0 <= pairs <= ``pair_bound(space, cls)``."""
    _check_bound(space, cls, pairs, pair_bound(space, cls))


def _check_bound(space: str, cls: tuple, pairs: int, bound: int) -> None:
    if not 0 <= pairs <= bound:
        note = " (at least one real point is required)" if space in FAMILIES else ""
        raise WQueryError(f"{space}{cls}: pairs {pairs} outside 0..{max(bound, -1)}{note}")


def gw_of(space: str, cls: tuple) -> int:
    """Complex count behind a key, used for computation and validation."""
    if space in TWISTED:
        space, cls = TWISTED[space], cls[:1] + cls
    if space in SURFACES:
        return gw.gw_surface(space, cls)
    from . import combine  # deferred: combine imports this module
    return combine.gw_threefold(FAMILIES[space], cls)


def _w_l0_surface(key: InvariantKey, total: int, zero: Optional[InvariantKey] = None) -> int:
    """Totally real count on a standard toric surface, via floor diagrams,
    of a class with nonzero complex count ``total``.  A class with a
    degenerate polygon is a rigid smooth curve through no points: it
    counts +1.  A quadric-side class (d; a1, a2, a3), in plane coordinates,
    is counted on its orbit's lowest rectangle (``lattice.cremona``): one
    with both sides positive has d - max(a1, a2) floors, so the mate
    (d; a2, a3, a1) is lower exactly when max(a1, a2) < a3 < d.  Else it is
    counted on its own polygon or, if given, on the cheaper one of ``zero``,
    its ``_cut_zero`` class, which has no lower mate: its c = d - a3 is larger."""
    if key.space not in POLYGON_SURFACES:  # a blown-up plane, or qx2t
        raise DataUnavailableError([key])
    from . import floor  # on first use: most commands count no floor diagram
    try:
        pc = floor.polygon_of(key.space, key.cls)
    except DegeneratePolygonError:
        if total == 1 and constraint_count(SURFACES[key.space], key.cls) == 0:
            return 1
        raise
    if key.space != "p2":
        d, a1, a2, a3 = quadric_to_plane(quadric_coords(SURFACES[key.space], key.cls))
        if max(a1, a2) < a3 < d:
            pc = floor.polygon_of("qx2", plane_to_quadric((d, a2, a3, a1)))
        elif zero is not None:
            pc = floor.polygon_of(zero.space, zero.cls)
    return floor.fd_count_real_l0(pc)


def _cut_zero(key: InvariantKey) -> Optional[InvariantKey]:
    """A qx1/qx2 key whose rectangle has a cut of 1, with each such cut made
    0; else None.  A cut of 1 is a real blown-up point taken as a point
    constraint: W(X~, D - E, l) = W(X, D, l) (Itenberg-Kharlamov-Shustin
    2013).  ``Store._compute`` serves a stored cut-0 value, of any origin,
    and stores only the key asked for."""
    if key.space not in ("qx1", "qx2"):
        return None
    a, b, *cuts = key.cls
    if 1 not in cuts or min(cuts) < 0 or max(cuts) > min(a, b):
        return None  # no cut of 1, or no rectangle: the key's own rule
    return InvariantKey("W", key.space, (a, b, *(0 if x == 1 else x for x in cuts)))


class IngestReport(namedtuple("IngestReport", "inserted rejected")):
    """What one ``ingest_csv`` did: rows inserted, and (lineno, reason) per row rejected."""

    __slots__ = ()


class Store:
    """Content-addressed invariant map.  It persists only under the
    ``cache_dir`` it is given, and is memory-only when that is None or
    empty: the library reads no environment variable (the CLI resolves
    ``--cache-dir``)."""

    def __init__(self, cache_dir: Optional[str] = None, load_fixtures: bool = True):
        self.cache_dir = None  # until every space is in: no loaded row is written again
        self._data: dict = {}
        self._lock = threading.RLock()
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
        for space in self._spaces(cache_dir, load_fixtures):
            self._load_space(space, cache_dir, load_fixtures)
        self.cache_dir = cache_dir
        # move everything allocated so far, the loaded store included, out
        # of the cyclic collector: each older-generation collection that
        # later allocations trigger would rescan it, and the one that lands
        # on a query sets that query's latency
        gc.freeze()

    # -- persistence ----------------------------------------------------------

    @staticmethod
    def _spaces(cache_dir: Optional[str], fixtures: bool) -> list:
        """Every space with a bundled fixture (if ``fixtures``) or a
        ``<space>.store`` file, in the order of those file names."""
        names = {f"{space}.store" for space in _FIXTURES} if fixtures else set()
        if cache_dir:
            names.update(name for name in os.listdir(cache_dir) if name.endswith(".store"))
        return [name[: -len(".store")] for name in sorted(names)]

    def _load_space(self, space: str, cache_dir: Optional[str], fixtures: bool):
        """Load one space: its bundled fixture, if it has one and ``fixtures``
        is set, then its ``<space>.store`` file under ``cache_dir``, if there
        is one.  The fixture comes first: a cache row contradicting a checked
        fixture value is the error.  A last line with no newline is an append
        cut short (``insert`` writes whole lines): it is dropped from the file
        with a warning.  Any other bad row, or one that contradicts a stored
        value, raises CacheError."""
        if fixtures and space in _FIXTURES:
            self.ingest_csv(os.path.join(_DATA_DIR, _FIXTURES[space]), space)
        if not cache_dir:
            return
        path = os.path.join(cache_dir, f"{space}.store")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        *rows, tail = data.split(b"\n")
        if tail:
            print(f"warning: {path}:{len(rows) + 1}: dropping torn last line "
                  f"{tail!r}", file=sys.stderr)
            os.truncate(path, len(data) - len(tail))
        for lineno, raw in enumerate(rows, start=1):
            try:
                line = raw.decode().strip()
                if not line or line[0] == "#":
                    continue
                kind, *fields = line.split(",")
                try:
                    nums = list(map(int, fields))
                except ValueError:  # no integer, or one past the digit limit
                    nums = [_long_int(x) for x in fields]
                key = InvariantKey(kind, space, tuple(nums[:-2]), nums[-2])
                value = nums[-1]
            except (ValueError, IndexError) as exc:
                raise CacheError(f"{path}:{lineno}: bad row {raw!r}: {exc}") from None
            if self._data.setdefault(key, value) != value:  # no lock: not shared yet
                raise CacheError(f"{path}:{lineno}: {key} is {_text(self._data[key])}, "
                                 f"not {_text(value)}")

    # -- core map -------------------------------------------------------------

    def insert(self, key: InvariantKey, value: int, persist: bool = True) -> bool:
        """Insert an entry; False when it conflicts.  The row is written
        before the entry is kept, so a write that fails leaves neither."""
        return self._insert(key, value, persist and self.cache_dir and self._append)

    def _append(self, space: str, row: str):  # one open per row: get_or_compute's rows
        fh = _open_rows(self.cache_dir, space)
        try:
            _write_row(fh, row)
        finally:
            fh.close()

    def _insert(self, key: InvariantKey, value: int, append) -> bool:
        with self._lock:
            old = self._data.get(key)
            if old is not None:
                return old == value
            if append:
                append(key.space, csv_row(key.kind, key.cls, key.pairs, value))
            self._data[key] = value
            return True

    def lookup(self, key: InvariantKey):
        return self._data.get(key)

    def __len__(self):
        return len(self._data)

    def spaces(self) -> Counter:
        return Counter(key.space for key in self._data)

    def get_or_compute(self, key: InvariantKey) -> int:
        with self._lock:
            known = self._data.get(key)
            if known is not None:
                return known
            value = self._compute(key)
            self.insert(key, value)
            return value

    def _compute(self, key: InvariantKey) -> int:
        if key.kind == "GW":
            return gw_of(key.space, key.cls)
        if key.space in FAMILIES:
            from . import combine
            query = combine.WelschingerQuery(key.space, key.cls, key.pairs)
            return combine.w_threefold(query, store=self)
        # surface Welschinger: a vanishing complex count forces zero
        total = gw_of(key.space, key.cls)
        if total == 0:
            return 0
        if key.pairs:
            check_pairs(key.space, key.cls, key.pairs)  # no row could fill a key past the bound
            raise DataUnavailableError([key])
        zero = _cut_zero(key)
        known = None if zero is None else self._data.get(zero)
        return _w_l0_surface(key, total, zero) if known is None else known

    # -- ingestion --------------------------------------------------------------

    def ingest_csv(self, path, space_id: str) -> IngestReport:
        """Load a CSV table of Welschinger (or emitted complex) values.

        Parse problems raise CsvParseError with the offending line number;
        rows failing validation are collected in the report instead.
        """
        kind = "GW" if space_id in _GW_ALIAS else "W"
        space = _GW_ALIAS.get(space_id, space_id)
        rank = space_rank(space)
        inserted, rejected = 0, []
        with open(path, "rb") as fh:
            # open()'s universal newlines, and no other line break; UTF-8 puts
            # neither byte inside a multi-byte character
            data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            lines = data.decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise CsvParseError(
                lineno, f"not UTF-8: {exc.reason} (byte {data[exc.start]:#04x})"
            ) from None
        header = handle = None
        # each canonical class's pair bound and complex count, for this call only:
        # a W table holds one row per (class, l)
        bounds, totals = {}, {}
        def append(_space, row):  # one handle per call, opened by its first kept row
            nonlocal handle
            if handle is None:
                handle = _open_rows(self.cache_dir, space)
            _write_row(handle, row)
        try:
            for lineno, raw in enumerate(lines, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = [p.strip() for p in line.split(",")]
                if header is None:
                    header = csv_header(rank)
                    if ",".join(parts) != header:
                        raise CsvParseError(lineno, f"bad header {line!r}, want {header}")
                    continue
                if len(parts) != rank + 3:
                    raise CsvParseError(lineno, f"expected {rank + 3} fields, got {len(parts)}")
                row_space = parts[0]
                value = parts[-1]
                try:
                    cls = tuple(map(int, parts[1:-2]))
                    pairs = int(parts[-2])
                    if not _INTEGER.fullmatch(value) or len(value) > _digit_limit() > 0:
                        int(value)  # int()'s own error: no integer literal, or past the limit
                except ValueError as exc:
                    raise CsvParseError(lineno, str(exc)) from None
                if row_space != space_id:
                    rejected.append((lineno, f"space {row_space!r} != {space_id!r}"))
                    continue
                try:
                    key = InvariantKey(kind, space, cls, pairs)
                    if kind == "W":
                        bound = bounds.get(key.cls)
                        if bound is None:
                            bound = bounds[key.cls] = pair_bound(space, key.cls)
                        _check_bound(space, key.cls, pairs, bound)
                    total = totals.get(key.cls)
                    if total is None:  # counted once the class has a row within its bound
                        total = totals[key.cls] = gw_of(space, key.cls)
                    value = self._validate_row(key, value, total)
                except (DomainError, ParityError, WQueryError) as exc:
                    rejected.append((lineno, str(exc)))
                    continue
                if not self._insert(key, value, self.cache_dir and append):
                    rejected.append(
                        (lineno, f"conflicts with stored value {_short(self.lookup(key))}")
                    )
                    continue
                inserted += 1
        finally:
            if handle is not None:
                handle.close()
        if header is None:
            raise CsvParseError(1, "missing header line")
        return IngestReport(inserted, rejected)

    def _validate_row(self, key: InvariantKey, token: str, total: int) -> int:
        """The value of a row's integer token; DomainError when it is not
        the complex count ``total`` of its class (GW) or breaks
        ``w_conflict`` against it (W)."""
        if len(token) > 4300 and token.isascii():
            digits = token.lstrip("+-").replace("_", "").lstrip("0")
            # then |value| >= 10 ** (len - 1) >= 2 ** (3 * (len - 1)) > total
            if 3 * (len(digits) - 1) >= total.bit_length():
                raise DomainError(f"|{_short(digits)}| exceeds complex count {_short(total)}")
        value = int(token)
        reason = w_conflict(value, total) if key.kind == "W" else (
            value != total and f"complex count is {_short(total)}, row says {_short(value)}")
        if reason:
            raise DomainError(reason)
        return value


# the one writer of cache rows, ``insert``'s one open per row and ``ingest_csv``'s
# one handle per call alike: binary and unbuffered, so a row is on disk once written
def _open_rows(cache_dir: str, space: str):
    return open(os.path.join(cache_dir, f"{space}.store"), "ab", buffering=0)


def _write_row(fh, row: str) -> None:
    rest = row.encode()
    while rest:  # a short write goes on where it stopped, as a buffered flush does
        rest = rest[fh.write(rest):]


class _SpaceStore(Store):
    """A store of one space: its fixture and its cache file, all that a row
    ingested into that space can conflict with.  Only ``ingest`` builds one,
    and no caller gets it."""

    def __init__(self, cache_dir: Optional[str], space: str):
        self._space = space
        super().__init__(cache_dir)

    def _spaces(self, cache_dir, fixtures) -> list:
        return [self._space]


def ingest(cache_dir: Optional[str], path, space_id: str) -> IngestReport:
    """``Store(cache_dir).ingest_csv(path, space_id)``, loading only the
    space written (a ``-gw`` token's family): a row conflicts only with rows
    of its own space.  Same report, rows written and errors, at the cost of
    that space's rows, not the whole cache's; a damaged cache file of
    another space is not read, so it does not stop the ingest."""
    space = _GW_ALIAS.get(space_id, space_id)
    space_rank(space)  # an unknown token is the error, before anything loads
    return _SpaceStore(cache_dir, space).ingest_csv(path, space_id)


def w_conflict(value: int, total: int) -> Optional[str]:
    """Why W = value and GW = total break W ≡ GW mod 2 or |W| <= GW, else None."""
    if abs(value) > total:
        return f"|{_short(value)}| exceeds complex count {_short(total)}"
    if (value - total) % 2:
        return f"parity of {_short(value)} conflicts with complex count {_short(total)}"
    return None


def served_w(store: Store, key: InvariantKey, total: int) -> int:
    """``store.get_or_compute(key)`` for a W key whose complex count is
    ``total``; CacheError when the served value breaks ``w_conflict``."""
    w = store.get_or_compute(key)
    reason = w_conflict(w, total)
    if reason:
        raise CacheError(f"stored {key}: {reason}")
    return w


def _short(number) -> str:
    """A number as a rejection prints it: past 60 digits, its sign, first
    three digits and digit count."""
    text = _text(number)
    n = len(text.lstrip("-"))
    return text if n <= 60 else f"{text[:len(text) - n + 3]}…({n} digits)"


def clear_cache(cache_dir: Optional[str]) -> int:
    """Delete the ``.store`` files of ``cache_dir``, and nothing else there,
    without reading them, so a damaged cache can always be cleared; return
    how many went (0 when ``cache_dir`` is None or not a directory).

    A live ``Store`` on ``cache_dir`` keeps its rows, and one it holds is not
    written again: re-ingesting it reports it inserted and writes nothing, so
    the next process does not see it.  Build a new ``Store`` after clearing.
    The CLI runs one process per command and is not affected."""
    removed = 0
    if cache_dir and os.path.isdir(cache_dir):
        for name in sorted(os.listdir(cache_dir)):
            if name.endswith(".store"):
                os.remove(os.path.join(cache_dir, name))
                removed += 1
    return removed
