"""One child process of the benchmark; ``run.py`` starts it with PYTHONPATH=src.

    python3 bench/child.py cli  --argv JSON --stdout FILE --result FILE [--trace FILE]
    python3 bench/child.py read --cache-dir DIR --queries FILE --result FILE [--trace FILE]

``cli`` runs one command through ``pezzo.cli.main``, exactly as the
``pezzo`` script does, and records how long ``main`` took.  ``read`` opens a
``Store`` over a cache directory and answers the queries of a JSON file one
at a time, recording each latency and answer.  With ``--trace`` the layer
wrappers of ``layers.py`` are installed first and the spans are written to
FILE at the end.

So that ``run.py`` can scale the child's times to the machine's speed while
it ran, each child also times ``reference_work``: three times before it
imports pezzo and three times when its work is done; during ``cli`` every
SAMPLE_EVERY_S from a timer signal; and during ``read`` between queries,
every REF_EVERY_S.  The result file lists every such timing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

SAMPLE_EVERY_S = 0.25
REF_EVERY_S = 0.05


def reference_work() -> int:
    """Fixed pure-Python work in the program's style, independent of it:
    tuple-keyed dict lookups and integer arithmetic, in little memory."""
    table = {}
    acc = 0
    for i in range(5000):
        key = (i & 255, i & 7)
        acc = (acc + table.get(key, 1) * 3) % 1000003
        table[key] = acc
    return acc


def reference_times(n: int = 3) -> list:
    """n timings of reference_work, in seconds."""
    times = []
    for _ in range(n):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return times


class _Sampler:
    """Times reference_work from a SIGALRM handler every SAMPLE_EVERY_S."""

    def __init__(self):
        self.samples = []

    def _tick(self, _signum, _frame):
        self.samples += reference_times(1)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_cli(args, tracer) -> dict:
    import pezzo.cli

    argv = json.loads(args.argv)
    with open(args.stdout, "w", encoding="utf-8") as out, _Sampler() as sampler:
        idx = tracer.begin("cli") if tracer else None
        t0 = time.perf_counter()
        code = pezzo.cli.main(argv, out=out)
        main_s = time.perf_counter() - t0
        if tracer:
            tracer.end(idx)
    # the handler's own work is not the command's
    return {"exit": code, "main_s": main_s - sum(sampler.samples),
            "ref_during": sampler.samples}


def _answer(pezzo, store, query):
    kind = query[0]
    if kind == "w3":
        _, family, cls, pairs = query
        return pezzo.w_threefold(pezzo.WelschingerQuery(family, tuple(cls), pairs), store)
    if kind == "gw3":
        _, family, cls = query
        return pezzo.gw_threefold(family, tuple(cls))
    if kind == "get":
        _, key_kind, space, cls, pairs = query
        return store.get_or_compute(pezzo.InvariantKey(key_kind, space, tuple(cls), pairs))
    raise ValueError(f"unknown query kind {kind!r}")


def _run_read(args, tracer) -> dict:
    import pezzo

    with open(args.queries, encoding="utf-8") as fh:
        queries = json.load(fh)
    t0 = time.perf_counter()
    store = pezzo.Store(cache_dir=args.cache_dir)
    init_s = time.perf_counter() - t0
    entries = len(store)
    latencies = []
    answers = []
    blocks = []   # (index of the block's first query, reference timings)
    clock = time.perf_counter
    last_ref = -REF_EVERY_S
    for i, query in enumerate(queries):
        if clock() - last_ref >= REF_EVERY_S:
            blocks.append((i, reference_times()))
            last_ref = clock()
        start = clock()
        try:
            answer = _answer(pezzo, store, query)
        except pezzo.DataUnavailableError:
            answer = None
        except pezzo.PezzoError as exc:
            answer = f"error: {exc}"
        latencies.append(clock() - start)
        answers.append(answer)
    blocks.append((len(queries), reference_times()))
    return {"exit": 0, "init_s": init_s, "entries": entries, "blocks": blocks,
            "latencies_s": latencies, "answers": answers}


def main() -> int:
    ref_before = reference_times()
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("cli", "read"))
    parser.add_argument("--argv")
    parser.add_argument("--stdout")
    parser.add_argument("--cache-dir")
    parser.add_argument("--queries")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from layers import Tracer, install

        tracer = Tracer(f"{args.mode}-{os.getpid()}")
        install(tracer)
    result = (_run_cli if args.mode == "cli" else _run_read)(args, tracer)
    if tracer:
        tracer.dump(args.trace)
    result["ref"] = ref_before + reference_times()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
