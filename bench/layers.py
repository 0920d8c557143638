"""Spans around the public functions of each pezzo layer, recorded from outside.

``install(tracer)`` replaces each traced function at every binding a caller
can resolve: the defining module, every other ``pezzo`` module that imported
the name, and module-level dicts holding the function object (such as
``pezzo.tables.TABLES``).  Methods are replaced on ``Store``.  The plane and
blow-up recursions (``gw_p2``, ``gw_blowup_p2``) are not wrapped: they call
themselves about a million times per table.

A span is ``[name, start, end, parent index]`` in one process, with a fifth
field for the generator span (see ``_wrap_diagrams``); spans stay in memory
and ``Tracer.dump`` writes them out with the counters at the end.

``Store()`` loads the bundled fixture CSVs through ``ingest_csv``, which
checks each row against ``gw_surface``: every process does that whatever it
is asked.  The counters and distinct keys therefore skip what runs inside
a ``store.init`` span, and ``run.py`` skips the spans under one.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_now = time.perf_counter

FUNCTIONS = [
    # (span name, module, attribute)
    ("floor.fd_count", "pezzo.floor", "fd_count_real_l0"),
    ("floor.fd_count", "pezzo.floor", "fd_count_complex"),
    ("gw.gw_surface", "pezzo.gw", "gw_surface"),
    ("combine.gw_threefold", "pezzo.combine", "gw_threefold"),
    ("combine.w_threefold", "pezzo.combine", "w_threefold"),
    ("lattice.fiber", "pezzo.lattice", "fiber"),
    ("signs.sign_exponent", "pezzo.signs", "sign_exponent"),
    ("tables", "pezzo.tables", "gw_deg6_table"),
    ("tables", "pezzo.tables", "w_deg6_table"),
    ("tables", "pezzo.tables", "w_deg7_table"),
    ("tables", "pezzo.tables", "w_deg6t_table"),
]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counts = {}
        self.sets = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _now(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        """True while a span of that name is open."""
        return any(self.spans[i][0] == name for i in self.stack)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def distinct(self, name: str, key) -> None:
        self.sets.setdefault(name, set()).add(key)

    def dump(self, path: str, **extra) -> None:
        data = {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.sets.items()},
        }
        data.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _wrap_diagrams(tracer: Tracer, fn):
    """Generator wrapper: one span, one count per diagram yielded.  The span
    is on the stack only while the generator runs, so the consumer's own
    calls keep their parent, and its fifth field adds up the time spent
    inside the generator alone: the consumer's work between two diagrams
    stays the consumer's (see ``duration``)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        idx = len(tracer.spans)
        span = ["floor.enumerate_diagrams", _now(), None,
                tracer.stack[-1] if tracer.stack else -1, 0.0]
        tracer.spans.append(span)
        try:
            while True:
                tracer.stack.append(idx)
                start = _now()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    span[4] += _now() - start
                    tracer.stack.pop()
                tracer.count("floor.diagrams")
                yield item
        finally:
            span[2] = _now()
            gen.close()
    return wrapper


def duration(span) -> float:
    """Seconds a span covers: its busy time if it records one, else end -
    start."""
    return span[4] if len(span) > 4 else span[2] - span[1]


def _w_threefold(tracer: Tracer, fn):
    from pezzo.errors import DataUnavailableError

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin("combine.w_threefold")
        try:
            return fn(*args, **kwargs)
        except DataUnavailableError:
            tracer.count("combine.unavailable")
            raise
        finally:
            tracer.end(idx)
    return wrapper


def _get_or_compute(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, key):
        before = len(self)
        idx = tracer.begin("store.get_or_compute")
        try:
            return fn(self, key)
        finally:
            tracer.end(idx)
            if len(self) > before:
                tracer.count("store.get_or_compute.misses")
    return wrapper


def _rebind(old, new) -> int:
    """Replace ``old`` by ``new`` at every binding in the pezzo modules."""
    n = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "pezzo" or modname.startswith("pezzo.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                n += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is old:
                        value[k] = new
                        n += 1
    return n


def install(tracer: Tracer) -> None:
    """Wrap every traced function at all its bindings; fail if one has none."""
    import pezzo.cli  # noqa: F401  (loads every pezzo module, so every binding exists)
    from pezzo import floor, gw
    from pezzo.lattice import SURFACES
    from pezzo.store import Store

    def gw_key(args, _result):
        if tracer.inside("store.init"):
            return
        lattice, d = args[0], args[1]
        lat = SURFACES[lattice] if isinstance(lattice, str) else lattice
        tracer.distinct("gw.gw_surface", (lat.id, gw.canonical_class(lat, d)))

    def fd_key(args, _result):
        if tracer.inside("store.init"):
            return
        pc = args[0]
        tracer.distinct("floor.fd_count", (pc.surface_id, pc.class_vec))

    def ingest_rows(_args, report):
        if tracer.inside("store.init"):
            return
        tracer.count("store.ingest_csv.rows", report.inserted + len(report.rejected))
        tracer.count("store.ingest_csv.rejected", len(report.rejected))

    special = {
        "gw_surface": lambda fn: _wrap(tracer, "gw.gw_surface", fn, gw_key),
        "fd_count_real_l0": lambda fn: _wrap(tracer, "floor.fd_count", fn, fd_key),
        "fd_count_complex": lambda fn: _wrap(tracer, "floor.fd_count", fn, fd_key),
        "w_threefold": lambda fn: _w_threefold(tracer, fn),
    }
    for name, modname, attr in FUNCTIONS:
        fn = getattr(sys.modules[modname], attr)
        wrapper = special.get(attr, lambda f, n=name: _wrap(tracer, n, f))(fn)
        if _rebind(fn, wrapper) == 0:
            raise RuntimeError(f"no binding of {modname}.{attr} found")
    diagrams = floor.enumerate_diagrams
    if _rebind(diagrams, _wrap_diagrams(tracer, diagrams)) == 0:
        raise RuntimeError("no binding of pezzo.floor.enumerate_diagrams found")

    Store.__init__ = _wrap(tracer, "store.init", Store.__init__)
    Store.get_or_compute = _get_or_compute(tracer, Store.get_or_compute)
    Store.ingest_csv = _wrap(tracer, "store.ingest_csv", Store.ingest_csv, ingest_rows)
