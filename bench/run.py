"""Benchmark of pezzo: cold tables, a warm-store ingest and query mix, and
per-layer spans.

    python3 bench/run.py --workload real-tables|complex-sweep|warm-store \\
        --seed N --seconds S --trace 0|1 [--corrupt-pin]

Run from the root of a source checkout; the package is imported from
``src/`` (``PYTHONPATH=src``), nothing is installed.  One process drives
children one at a time, so at most two processes are alive at once.

A run repeats rounds while ``--seconds`` last, and at least ``MIN_ROUNDS``
times.  A round runs every cold command of the workload, each in a fresh
process with an empty ``--cache-dir``; then ``WARM_PER_COLD`` warm passes
(one on warm-store), each a write phase, ``pezzo ingest`` commands into an
empty cache, and a read phase, one fresh process that opens that cache and
answers each query once, closed-loop, one at a time (``workloads.py`` says
what the two phases do on each workload); then two set-up spawns.  Each
timed step counts with its median over its runs, scaled to a reference
machine speed (see ``REFERENCE_S`` and ``end_to_end``).  ``setup_s`` is the
median over fresh interpreters of the time until
``pezzo.Store(cache_dir=...)`` has returned on the warm cache.

Every output is checked: exit codes and stdout digests of the cold commands
(``pins.json``), the cells that overlap ``tests/golden.py``, the exact
inserted and rejected counts of each ingest, and every query answer.  A
mismatch, an unexpected exit code or a traceback counts as a failed
operation.  ``--corrupt-pin`` alters one pinned value to show the gate trips.

``--trace 1`` runs one untraced and one traced round and prints the per-layer
metrics of the traced pass (spans from ``layers.py``) and the tracing
overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple, Optional

import workloads as wl
from layers import duration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PINS = os.path.join(HERE, "pins.json")
GOLDEN = os.path.join(ROOT, "tests", "golden.py")

# Times are reported at a reference machine speed.  The machine this
# benchmark was written on (2 vCPUs, Python 3.11) is shared, and other
# tenants slow it by up to 60% for minutes at a time, which no number of
# repeats inside one run averages out.  So each child also times a fixed
# piece of pure-Python work, child.reference_work, before, during and after
# its own work (see child.py), and every time it measured is multiplied by
# speed_scale of those timings; each read-phase query uses the timings
# around its block of queries instead (scaled_latencies, moment_scale).  REFERENCE_S is
# the reference work's time on that machine when it is quiet, so there the
# scale is about 1.  Per-step raw times and scales are printed too.
REFERENCE_S = 0.00135

SETUP_SPAWNS = 11
SPAWNS_PER_ROUND = 2
MIN_ROUNDS = 3
# warm passes after each cold pass: a warm pass is short next to the cold
# commands, and its per-query latencies need more runs to settle
WARM_PER_COLD = 3
CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("ingest_rows_per_s", "1/s"), ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"), ("query_p99_ms", "ms"),
]

CLI_LABELS = ["table.w-deg6", "table.w-deg7", "w2", "table.gw-deg6", "ingest"]

# span names each workload is known to reach outside the fixture load of
# Store(); zero such calls fails the traced run
REQUIRED_SPANS = {
    "real-tables": ["floor.fd_count", "floor.enumerate_diagrams", "gw.gw_surface",
                    "combine.w_threefold", "store.init", "store.get_or_compute",
                    "store.ingest_csv", "tables"],
    "complex-sweep": ["gw.gw_surface", "combine.gw_threefold", "store.init",
                      "store.ingest_csv", "tables", "lattice.fiber"],
    "warm-store": ["gw.gw_surface", "combine.w_threefold", "combine.gw_threefold",
                   "store.init", "store.get_or_compute", "store.ingest_csv",
                   "lattice.fiber"],
}


class Step(NamedTuple):
    """One child process: its phase, metric label, wall seconds (without
    its reference timings), peak RSS in MB, span file and speed scale."""
    phase: str
    label: str
    wall: float
    rss: float
    trace: Optional[str]
    scale: float

    @property
    def scaled(self) -> float:
        return self.wall * self.scale


def child_env() -> dict:
    env = dict(os.environ)
    # Store() reads this variable: a leaked value would turn a cold run warm
    env.pop("PEZZO_CACHE_DIR", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def speed_scale(times) -> float:
    """Mean of REFERENCE_S over each reference timing, for timings taken at
    even intervals of the work: the machine's speed averaged over the work's
    time.  A median of the timings would ignore how long the slow stretches
    lasted."""
    return statistics.mean(REFERENCE_S / t for t in times)


def moment_scale(times) -> float:
    """REFERENCE_S over the median of timings taken at one moment; the
    median ignores a timing that the scheduler happened to interrupt."""
    return REFERENCE_S / statistics.median(times)


def scaled_latencies(read: dict) -> list:
    """Read-phase latencies, each scaled by the reference timings taken
    right before and after its block of queries."""
    blocks = read["blocks"]
    out = []
    for (first, before), (last, after) in zip(blocks, blocks[1:]):
        scale = moment_scale(before + after)
        out += [t * scale for t in read["latencies_s"][first:last]]
    return out


def load_golden():
    spec = importlib.util.spec_from_file_location("pezzo_golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def environment() -> dict:
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg()[0],
        "git_sha": "unknown (not a git checkout)",
        "cpu.max": None,
    }
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    ref = fh.read().strip()
        info["git_sha"] = ref
    if os.path.exists("/sys/fs/cgroup/cpu.max"):
        with open("/sys/fs/cgroup/cpu.max", encoding="utf-8") as fh:
            info["cpu.max"] = fh.read().strip()
    return info


class Bench:
    def __init__(self, workload: str, seed: int, corrupt_pin: bool, tmp: str):
        self.workload = workload
        self.tmp = tmp
        self.env = child_env()
        with open(PINS, encoding="utf-8") as fh:
            self.pins = json.load(fh)
        self.golden = load_golden()
        self.attempted = 0
        self.failures = []
        self.unavailable = 0
        self.warm = wl.warm_inputs(seed, self.pins) if workload == "warm-store" else None
        self.corrupt_pin = corrupt_pin
        self.check_pins()

    # -- bookkeeping --------------------------------------------------------

    def op(self, problems) -> None:
        """One attempted operation; any problem makes it a failure."""
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    def check_pins(self) -> None:
        """The pinned answers must agree with the golden tables they overlap."""
        g = self.golden
        problems = []
        overlap = 0
        for q, answer in self.pins["answers"]:
            kind, family, cls = q[0], q[1], tuple(q[2])
            expect = None
            if kind == "w3" and family == "deg6" and q[3] == 0:
                expect = g.TABLE4_L0.get(cls)
            elif kind == "w3" and family == "deg7":
                expect = g.TABLE3_L0.get(cls) if q[3] == 0 else None
                if expect is None:
                    expect = g.TABLE3_COLUMNS.get(cls, {}).get(q[3])
            elif kind == "gw3" and family == "deg6":
                expect = g.TABLE2.get(cls, (None,))[0]
            if expect is not None:
                overlap += 1
                if answer != expect:
                    problems.append(f"pinned {q} = {answer}, golden {expect}")
        if not overlap:
            problems.append("no pinned answer overlaps the golden tables")
        self.op(problems)

    # -- children -------------------------------------------------------------

    def child(self, args, name: str, traced: bool) -> dict:
        """Run child.py; returns its exit code, wall time, peak RSS (MB),
        stderr, result file (None if it wrote none), span file and speed
        scale (see REFERENCE_S)."""
        res = os.path.join(self.tmp, name + ".json")
        args = args + ["--result", res]
        trace = os.path.join(self.tmp, name + ".trace") if traced else None
        if trace:
            args += ["--trace", trace]
        err_path = os.path.join(self.tmp, name + ".err")
        with open(err_path, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD] + args, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        result = None
        scale = 1.0
        if os.path.exists(res):
            with open(res, encoding="utf-8") as fh:
                result = json.load(fh)
            refs = result["ref"] + result.get("ref_during", [])
            refs += [t for _, times in result.get("blocks", []) for t in times]
            # the child's own reference timings are not part of its work
            wall -= sum(refs)
            scale = speed_scale(refs)
        return {"code": proc.returncode, "wall": wall, "rss": usage.ru_maxrss / 1024.0,
                "stderr": stderr, "result": result, "trace": trace, "scale": scale}

    def cli(self, argv, name: str, traced: bool) -> dict:
        """One CLI command in a child; adds its stdout as ``text``."""
        out = os.path.join(self.tmp, name + ".out")
        run = self.child(["cli", "--argv", json.dumps(argv), "--stdout", out], name, traced)
        run["text"] = ""
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                run["text"] = fh.read()
        return run

    @staticmethod
    def record(phase: str, label: str, run: dict) -> Step:
        return Step(phase, label, run["wall"], run["rss"], run["trace"], run["scale"])

    # -- passes ---------------------------------------------------------------

    def cold_pass(self, tag: str, traced: bool) -> dict:
        """Every cold command once, each in a fresh process with an empty
        cache directory; then the inputs of the warm pass, made from the
        printed outputs and the rows the commands cached."""
        children, outputs, caches = [], [], []
        for i, argv in enumerate(wl.COLD[self.workload]):
            cache = os.path.join(self.tmp, f"{tag}-cold{i}")
            os.mkdir(cache)
            run = self.cli(["--cache-dir", cache] + argv, f"{tag}-cold{i}", traced)
            self.op(self.check_cold(argv, run, first=(i == 0)))
            children.append(self.record("cold", wl.command_label(argv), run))
            outputs.append(run["text"])
            caches.append(cache)
        try:
            inputs = wl.table_inputs(self.workload, outputs, wl.cache_rows(caches))
        except (ValueError, KeyError, IndexError) as exc:
            self.op([f"cannot parse the cold outputs: {exc!r}"])
            inputs = None
        for cache in caches:
            shutil.rmtree(cache)
        return {"children": children, "inputs": inputs}

    def warm_pass(self, tag: str, traced: bool, inputs) -> dict:
        """Write phase into an empty cache, then the read phase on it."""
        files, queries = inputs
        warm = os.path.join(self.tmp, tag + "-cache")
        os.mkdir(warm)
        result = {"children": [], "ingest_rows": 0, "ingest_s": [], "cache_dir": warm}
        for i, (space, text, rows, rejected) in enumerate(files):
            path = os.path.join(self.tmp, f"{tag}-ingest{i}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = ["--cache-dir", warm, "ingest", "--surface", space, "--file", path]
            run = self.cli(argv, f"{tag}-ingest{i}", traced)
            result["children"].append(self.record("write", "ingest", run))
            if self.corrupt_pin and i == 0 and not wl.COLD[self.workload]:
                rejected += 1
            self.op(self.check_ingest(space, run, rows, rejected))
            result["ingest_rows"] += rows
            main_s = run["result"]["main_s"] if run["result"] else math.inf
            result["ingest_s"].append(main_s * run["scale"])

        result["cache_bytes"] = sum(os.path.getsize(os.path.join(warm, n))
                                    for n in os.listdir(warm))
        qpath = os.path.join(self.tmp, tag + "-queries.json")
        with open(qpath, "w", encoding="utf-8") as fh:
            json.dump([q for q, _ in queries], fh)
        run = self.child(["read", "--cache-dir", warm, "--queries", qpath],
                         tag + "-read", traced)
        result["children"].append(self.record("read", "read", run))
        read = run["result"]
        if run["code"] != 0 or "Traceback" in run["stderr"] or read is None:
            self.op([f"read phase exited {run['code']}: {run['stderr'].strip()[-300:]}"])
            return result
        for (q, expected), answer in zip(queries, read["answers"]):
            if answer is None and expected is None:
                self.unavailable += 1
            self.op([] if answer == expected else [f"{q}: got {answer!r}, want {expected!r}"])
        if len(read["answers"]) != len(queries):
            self.op([f"read phase answered {len(read['answers'])} of {len(queries)}"])
        result["latencies_s"] = scaled_latencies(read)
        result["store_init_s"] = read["init_s"]
        result["entries"] = read["entries"]
        return result

    # -- checks ---------------------------------------------------------------

    def check_cold(self, argv, run, first) -> list:
        code, stderr, text = run["code"], run["stderr"], run["text"]
        pin = self.pins["commands"][" ".join(argv)]
        digest = pin["sha256"]
        if self.corrupt_pin and first:
            digest = "0" * 64
        problems = []
        if code != pin["exit"]:
            problems.append(f"exit {code}, want {pin['exit']}")
        if "Traceback" in stderr:
            problems.append("traceback: " + stderr.strip()[-300:])
        if sha256(text) != digest:
            problems.append(f"stdout digest {sha256(text)[:12]} != pinned {digest[:12]}")
        try:
            problems += self.check_golden(argv, text)
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"unparsable output: {exc!r}")
        return [f"{' '.join(argv)}: {p}" for p in problems]

    def check_golden(self, argv, text) -> list:
        g = self.golden
        pairs = []   # (where, printed, golden)
        if argv[:2] == ["table", "w-deg6"]:
            for (d, l), v in wl.parse_w_grid(text).items():
                if l == 0 and d in g.TABLE4_L0:
                    pairs.append((d, v, g.TABLE4_L0[d]))
        elif argv[:2] == ["table", "w-deg7"]:
            for (d, l), v in wl.parse_w_grid(text).items():
                if l == 0 and d in g.TABLE3_L0:
                    pairs.append((d, v, g.TABLE3_L0[d]))
                if l in g.TABLE3_COLUMNS.get(d, {}):
                    pairs.append(((d, l), v, g.TABLE3_COLUMNS[d][l]))
        elif argv[:2] == ["table", "gw-deg6"]:
            table = wl.parse_gw_table(text)
            for d, (count, members) in g.TABLE2.items():
                pairs.append((d, table.get(d), (count, list(members))))
        else:
            return []
        if not pairs:
            return ["no printed cell overlaps the golden tables"]
        return [f"golden {where}: printed {v}, golden {want}"
                for where, v, want in pairs if v != want]

    def check_ingest(self, space, run, rows, rejected) -> list:
        code, stderr, out = run["code"], run["stderr"], run["text"]
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        if "Traceback" in stderr:
            problems.append("traceback: " + stderr.strip()[-300:])
        want = f"inserted {rows - rejected} row(s)\n"
        if out != want:
            problems.append(f"stdout {out.strip()!r}, want {want.strip()!r}")
        got_rejected = sum(1 for line in stderr.splitlines() if line.startswith("rejected line"))
        if got_rejected != rejected:
            problems.append(f"{got_rejected} rows rejected, want {rejected}")
        return [f"ingest {space}: {p}" for p in problems]

    # -- set-up time ------------------------------------------------------------

    def setup_times(self, cache_dir: str, n: int) -> list:
        """Seconds from spawning a fresh interpreter until Store() returned,
        n times, each scaled by reference timings the same process takes
        right after.  Earlier children have already written the bytecode
        cache."""
        code = ("import sys, pezzo; pezzo.Store(cache_dir=sys.argv[1]); "
                "print('ready', flush=True); sys.path.insert(0, sys.argv[2]); "
                "import child; print(*child.reference_times(6))")
        times = []
        for _ in range(n):
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", code, cache_dir, HERE], cwd=ROOT,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True)
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                refs, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                refs, stderr = proc.communicate()
            ok = line == "ready\n" and proc.returncode == 0
            self.op([] if ok else [f"set-up exited {proc.returncode}: {stderr.strip()[-300:]}"])
            if ok:
                times.append(elapsed * moment_scale([float(t) for t in refs.split()]))
        return times


# -- metrics ---------------------------------------------------------------------

def end_to_end(cold: list, warm: list, setup: list) -> dict:
    """Metrics over the runs of each cold command and the warm passes.

    cold[i] lists the child records of every run of cold command i.  Each
    timed step counts with its median over runs, after scaling to the
    reference speed: a cold command, an ingest, the read child, and each
    query of the read phase (every pass asks the same queries in the same
    order).  wall_s adds up the cold commands, or, on a workload without
    any, the ingest and read children.  Query percentiles are nearest-rank
    over the per-query medians.  peak_rss_mb is the largest child, each
    child taken at its median; setup_s is the median of its spawns.
    """
    def median_steps(per_pass):
        return [statistics.median(step) for step in zip(*per_pass)]

    warm_steps = [list(step) for step in zip(*(p["children"] for p in warm))]
    lat = sorted(median_steps([p["latencies_s"] for p in warm]))
    return {
        "wall_s": sum(statistics.median(run.scaled for run in step)
                      for step in (cold or warm_steps)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(statistics.median(run.rss for run in step)
                           for step in cold + warm_steps),
        "ingest_rows_per_s": warm[0]["ingest_rows"]
        / sum(median_steps([p["ingest_s"] for p in warm])),
        "queries_per_s": len(lat) / sum(lat),
        "query_p50_ms": nearest_rank(lat, 0.50) * 1e3,
        "query_p99_ms": nearest_rank(lat, 0.99) * 1e3,
    }


def _self_times(spans) -> list:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += duration(span)
    return [duration(span) - child_time[i] for i, span in enumerate(spans)]


def _under_init(spans) -> list:
    """Per span: does it run inside a store.init span (the fixture load)?"""
    out = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[3]
        out[i] = parent >= 0 and (spans[parent][0] == "store.init" or out[parent])
    return out


def per_layer(traced: list, untraced: list, warm: dict) -> tuple:
    """(metrics, calls per span name, problems) from the traced passes'
    children; ``warm`` is the traced warm pass."""
    calls, total, self_s, counts, distinct = {}, {}, {}, {}, {}
    # the layers' shares are of the cold commands where the workload has any
    shared = {"cold"} if any(step.phase == "cold" for step in traced) else {"write", "read"}
    share_self = {}
    read_diagrams = 0
    cli_wall = {label: 0.0 for label in CLI_LABELS}
    n_spans = 0
    missing = []
    for step in traced:
        if step.label in cli_wall:
            cli_wall[step.label] += step.wall
        if not os.path.exists(step.trace):
            missing.append(f"{step.phase} {step.label}: no spans written")
            continue
        with open(step.trace, encoding="utf-8") as fh:
            data = json.load(fh)
        spans = data["spans"]
        n_spans += len(spans)
        for span, own, fixture in zip(spans, _self_times(spans), _under_init(spans)):
            if fixture:
                continue
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration(span)
            self_s[name] = self_s.get(name, 0.0) + own
            if step.phase in shared:
                share_self[name] = share_self.get(name, 0.0) + own
        for name, n in data["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, n in data["distinct"].items():
            distinct[name] = distinct.get(name, 0) + n
        if step.phase == "read":
            read_diagrams += data["counts"].get("floor.diagrams", 0)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def share(*names):
        return sum(share_self.get(name, 0.0) for name in names) / wall

    wall = sum(step.wall for step in traced if step.phase in shared)
    untraced_s = sum(step.scaled for step in untraced)
    overhead = sum(step.scaled for step in traced) - untraced_s
    gcalls = c("store.get_or_compute")
    m = {
        "floor.fd_count.calls": c("floor.fd_count"),
        "floor.fd_count.classes": distinct.get("floor.fd_count", 0),
        "floor.diagrams": counts.get("floor.diagrams", 0),
        "floor.enumerate_diagrams.s": total.get("floor.enumerate_diagrams", 0.0),
        "floor.fd_count.self_s": s("floor.fd_count"),
        "floor.share": share("floor.fd_count", "floor.enumerate_diagrams"),
        "gw.gw_surface.calls": c("gw.gw_surface"),
        "gw.gw_surface.distinct_keys": distinct.get("gw.gw_surface", 0),
        "gw.useful_ratio": (distinct.get("gw.gw_surface", 0) / c("gw.gw_surface")
                            if c("gw.gw_surface") else 0.0),
        "gw.gw_surface.self_s": s("gw.gw_surface"),
        "gw.share": share("gw.gw_surface"),
        "store.init_s": warm.get("store_init_s", 0.0),
        "store.entries_loaded": warm.get("entries", 0),
        "store.cache_bytes": warm.get("cache_bytes", 0),
        "store.get_or_compute.calls": gcalls,
        "store.hit_ratio": ((gcalls - counts.get("store.get_or_compute.misses", 0)) / gcalls
                            if gcalls else 0.0),
        "store.get_or_compute.self_s": s("store.get_or_compute"),
        "store.ingest_csv.rows": counts.get("store.ingest_csv.rows", 0),
        "store.ingest_csv.rejected": counts.get("store.ingest_csv.rejected", 0),
        "store.ingest_csv.self_s": s("store.ingest_csv"),
        "combine.w_threefold.calls": c("combine.w_threefold"),
        "combine.w_threefold.self_s": s("combine.w_threefold"),
        "combine.gw_threefold.calls": c("combine.gw_threefold"),
        "combine.gw_threefold.self_s": s("combine.gw_threefold"),
        "combine.unavailable": counts.get("combine.unavailable", 0),
        "tables.self_s": s("tables"),
        "lattice.fiber.calls": c("lattice.fiber"),
        "signs.sign_exponent.calls": c("signs.sign_exponent"),
        "read.floor.diagrams": read_diagrams,
        "read.queries": len(warm.get("latencies_s", [])),
        "trace.spans": n_spans,
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / untraced_s,
    }
    for label, value in cli_wall.items():
        m[f"cli.{label}.wall_s"] = value
    return m, calls, missing


PER_LAYER_UNITS = {
    ".calls": "count", ".classes": "count", ".diagrams": "count", "_keys": "count",
    ".unavailable": "count", ".rows": "count", ".queries": "count", ".rejected": "count", ".spans": "count",
    "_loaded": "count", "_bytes": "B", "_s": "s", ".s": "s", "_ratio": "ratio",
    ".share": "ratio", "_frac": "ratio",
}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


# -- runs -----------------------------------------------------------------------

def round_inputs(bench: Bench, tag: str, traced: bool) -> tuple:
    """(cold child records, warm pass inputs) of one round."""
    if not wl.COLD[bench.workload]:
        return [], bench.warm
    cold = bench.cold_pass(tag, traced)
    return cold["children"], cold["inputs"]


def timed_run(bench: Bench, seconds: float) -> tuple:
    """Rounds while the time lasts, at least MIN_ROUNDS: every cold command
    once, WARM_PER_COLD warm passes on what they computed (one pass on
    warm-store), and a few set-up spawns on the last warm pass's cache."""
    start = time.perf_counter()
    cold, warm, setup = [], [], []
    rounds = 0
    while True:
        children, inputs = round_inputs(bench, f"r{rounds}", traced=False)
        cold = cold or [[] for _ in children]
        for runs, child in zip(cold, children):
            runs.append(child)
        for _ in range(WARM_PER_COLD if children else 1):
            if not inputs:
                break
            if warm:
                shutil.rmtree(warm[-1]["cache_dir"])
            warm.append(bench.warm_pass(f"w{len(warm)}", False, inputs))
            if "latencies_s" not in warm[-1]:
                warm.pop()
                inputs = None
        if not inputs:
            break
        rounds += 1
        setup += bench.setup_times(warm[-1]["cache_dir"], SPAWNS_PER_ROUND)
        # stop before a round that would end after the measurement time
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            break
    if not warm:
        return {}, {}
    setup += bench.setup_times(warm[-1]["cache_dir"], max(0, SETUP_SPAWNS - len(setup)))
    print(f"rounds: {rounds}; warm passes: {len(warm)}; queries per read phase "
          f"(the sample count of the percentiles): "
          f"{len(warm[0]['latencies_s'])}; set-up spawns: {len(setup)}")
    for step in cold + [list(s) for s in zip(*(p["children"] for p in warm))]:
        print(f"{step[0].phase} {step[0].label}, raw s x scale: "
              + " ".join(f"{run.wall:.4f}x{run.scale:.3f}" for run in step))
    print("set-up: " + " ".join(f"{t:.4f}" for t in setup))
    return end_to_end(cold, warm, setup), dict(END_TO_END)


def traced_run(bench: Bench) -> tuple:
    """One untraced and one traced round without set-up spawns; per-layer
    metrics."""
    def one(tag, traced):
        children, inputs = round_inputs(bench, tag, traced)
        warm = bench.warm_pass(tag + "w", traced, inputs) if inputs else {}
        return children + warm.get("children", []), warm

    untraced, _ = one("u", False)
    traced, warm = one("t", True)
    metrics, calls, missing = per_layer(traced, untraced, warm)
    bench.op(missing)
    for name in REQUIRED_SPANS[bench.workload]:
        bench.op([] if calls.get(name) else [f"traced run: no {name} span"])
    floor_free = "floor.diagrams" if bench.workload == "complex-sweep" else "read.floor.diagrams"
    bench.op([] if metrics[floor_free] == 0 else
             [f"{floor_free} = {metrics[floor_free]}, want 0"])
    return metrics, {name: unit_of(name) for name in metrics}


# -- main ----------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.COLD))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-pin", action="store_true",
                        help="alter one pinned value; the run must then report failures")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "pezzo", "__init__.py")) \
            or not os.path.exists(GOLDEN):
        print(f"error: no pezzo source tree (src/pezzo) and tests/golden.py under {ROOT}",
              file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env))
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        bench = Bench(args.workload, args.seed, args.corrupt_pin, tmp)
        if args.trace:
            metrics, units = traced_run(bench)
        else:
            metrics, units = timed_run(bench, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(bench.failures)
    for problem in bench.failures[:20]:
        print("FAILED: " + problem)
    print(f"attempted {bench.attempted}, failed {failed}, "
          f"failed_frac {failed / bench.attempted:.6f}, "
          f"expected no-data answers {bench.unavailable}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
