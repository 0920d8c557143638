"""Command-line front end.

Exit codes: 0 success, 1 usage or input errors, 2 when a requested value
needs surface data that has not been ingested.
"""

from __future__ import annotations

import argparse
import os
import sys

from .combine import WelschingerQuery, gw_threefold, w_threefold
from .errors import DataUnavailableError, PezzoError
from .gw import gw_surface
from .lattice import FAMILIES, SURFACES
from .store import InvariantKey, Store, check_pairs, clear_cache, gw_of, served_w
from .tables import TABLES


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _parse_class(text: str) -> tuple:
    parts = text.split(",")
    out = []
    for token in parts:
        token = token.strip()
        try:
            out.append(int(token))
        except ValueError:
            raise _UsageError(
                f"invalid class component {token!r} in {text!r}"
            ) from None
    return tuple(out)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pezzo", description=__doc__)
    # the one reader of PEZZO_CACHE_DIR: every command gets the directory resolved here
    parser.add_argument("--cache-dir", default=os.environ.get("PEZZO_CACHE_DIR") or None,
                        help="persistent cache directory (default: PEZZO_CACHE_DIR; "
                             "with neither, memory only)")
    sub = parser.add_subparsers(dest="command", required=True)

    gw3 = sub.add_parser("gw3", help="complex count of a threefold class")
    gw3.add_argument("--family", required=True, choices=sorted(FAMILIES))
    gw3.add_argument("--class", dest="cls", required=True)

    gw2 = sub.add_parser("gw2", help="complex count of a surface class")
    gw2.add_argument("--surface", required=True, choices=sorted(SURFACES))
    gw2.add_argument("--class", dest="cls", required=True)
    gw2.add_argument("--dump-diagrams", action="store_true")

    w3 = sub.add_parser("w3", help="real signed count of a threefold class")
    w3.add_argument("--family", required=True, choices=sorted(FAMILIES))
    w3.add_argument("--class", dest="cls", required=True)
    w3.add_argument("--pairs", type=int, default=0)

    w2 = sub.add_parser("w2", help="real signed count of a surface class")
    w2.add_argument("--surface", required=True,
                    choices=sorted({*SURFACES, *(f.member_space for f in FAMILIES.values())}))
    w2.add_argument("--class", dest="cls", required=True)
    w2.add_argument("--pairs", type=int, default=0)
    w2.add_argument("--dump-diagrams", action="store_true")

    table = sub.add_parser("table", help="reproduce a full invariant table")
    table.add_argument("kind", choices=sorted(TABLES))
    table.add_argument("--max-sum", type=int, default=None)
    table.add_argument("--max-d", type=int, default=None)
    table.add_argument("--max-a", type=int, default=None)
    table.add_argument("--format", dest="fmt", choices=("md", "csv"), default="md")

    ingest = sub.add_parser("ingest", help="load a CSV table of surface values")
    ingest.add_argument("--surface", required=True)
    ingest.add_argument("--file", required=True)

    cache = sub.add_parser("cache", help="cache control")
    cache.add_argument("action", choices=("info", "clear"))
    return parser


def _dump_diagrams(surface: str, cls: tuple, out) -> None:
    from . import floor
    for diag in floor.enumerate_diagrams(floor.polygon_of(surface, cls)):
        print(diag.dump_line(), file=out)


def _run(args, out) -> int:
    # the commands that read no stored value run before any Store: a damaged
    # cache must not block clearing it, nor a complex count
    if args.command == "cache" and args.action == "clear":
        print(f"removed {clear_cache(args.cache_dir)} cache file(s)", file=out)
        return 0
    if args.command == "gw3":
        print(gw_threefold(args.family, _parse_class(args.cls)), file=out)
        return 0
    if args.command == "gw2":
        cls = _parse_class(args.cls)
        if args.dump_diagrams:
            _dump_diagrams(args.surface, cls, out)
        print(gw_surface(args.surface, cls), file=out)
        return 0
    # cache info counts only what the cache files hold, not the bundled fixtures
    store = Store(cache_dir=args.cache_dir, load_fixtures=args.command != "cache")
    if args.command == "cache":
        print(f"cache dir: {store.cache_dir or '(memory only)'}", file=out)
        for space, count in sorted(store.spaces().items()):
            print(f"{space}: {count} entries", file=out)
        return 0
    if args.command == "w3":
        query = WelschingerQuery(args.family, _parse_class(args.cls), args.pairs)
        print(w_threefold(query, store), file=out)
        return 0
    if args.command == "w2":
        cls = _parse_class(args.cls)
        key = InvariantKey("W", args.surface, cls, args.pairs)
        check_pairs(key.space, key.cls, key.pairs)
        if args.dump_diagrams:
            _dump_diagrams(args.surface, cls, out)
        print(served_w(store, key, gw_of(key.space, key.cls)), file=out)
        return 0
    if args.command == "table":
        # each table takes one bound flag; the other two are ignored
        bound = {"w-deg7": "max_d", "w-deg6t": "max_a"}.get(args.kind, "max_sum")
        kwargs = {"fmt": args.fmt}
        if args.kind != "gw-deg6":  # the real tables read the store
            kwargs["store"] = store
        if getattr(args, bound) is not None:
            kwargs[bound] = getattr(args, bound)
        text, missing = TABLES[args.kind](**kwargs)
        out.write(text)
        return 2 if missing else 0
    # ingest, the one command left: the parser admits no other
    report = store.ingest_csv(args.file, args.surface)
    print(f"inserted {report.inserted} row(s)", file=out)
    for lineno, reason in report.rejected:
        print(f"rejected line {lineno}: {reason}", file=sys.stderr)
    return 0


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    # exact counts outgrow Python's 4300-digit int/str limit (the p2 degree
    # 600 count has 4552 digits)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    # memory held (zeroed by the allocator, so not touched) and given back
    # when a count runs out of memory: without it, closing the count's frames
    # can fail and the error line below is lost
    headroom = bytes(1 << 20)
    try:
        args = parser.parse_args(argv)
        return _run(args, out)
    except DataUnavailableError as exc:
        print("?", file=out)
        for key in exc.keys:
            print(f"missing: {key}", file=sys.stderr)
        return 2
    except (_UsageError, PezzoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError, OverflowError) as exc:
        # a large enough class outgrows this process's memory, stack or index size
        del headroom
        exhausted = type(exc).__name__
    # printed past the except block, once the failed count's frames and the
    # memory they hold are released
    print(f"error: out of resources ({exhausted})", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
