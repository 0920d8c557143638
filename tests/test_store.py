import contextlib
import io
import os
import random
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pezzo
from pezzo import cli, floor, store as store_mod
from pezzo.combine import WelschingerQuery, w_threefold, w_vanishes_a_priori
from pezzo.errors import (
    CacheError,
    CsvParseError,
    DataUnavailableError,
    DegeneratePolygonError,
    DomainError,
    WQueryError,
)
from pezzo.gw import gw_surface
from pezzo.lattice import (
    FAMILIES, SURFACES, constraint_count, fiber, genus, monodromy, plane_to_quadric,
    quadric_coords, quadric_to_plane,
)
from pezzo.store import (GW_TOKEN, IngestReport, InvariantKey, Store, _w_l0_surface,
                         csv_header, gw_of, pair_bound, space_rank, w_conflict)
from pezzo.tables import gw_deg6_table


def test_key_validation():
    with pytest.raises(DomainError):
        InvariantKey("GW", "qx2", (1, 2, 3))          # wrong rank
    with pytest.raises(DomainError):
        InvariantKey("XX", "qx2", (1, 2, 3, 4))
    with pytest.raises(DomainError):
        InvariantKey("GW", "qx2", (1, 2, 3, 4), 1)    # GW carries l = 0
    with pytest.raises(DomainError):
        InvariantKey("W", "what", (1,))


def test_canonical_monodromy():
    key1 = InvariantKey("W", "qx2", (3, 3, 1, 2), 0)
    key2 = InvariantKey("W", "qx2", (3, 3, 2, 1), 0)
    assert key1 == key2


@st.composite
def _key_fields(draw):
    space = draw(st.sampled_from(sorted(SURFACES) + sorted(FAMILIES) + ["qx2t"]))
    kind = draw(st.sampled_from(["GW", "W"]))
    cls = tuple(draw(st.lists(st.integers(-3, 9), min_size=space_rank(space),
                              max_size=space_rank(space))))
    return kind, space, cls, 0 if kind == "GW" else draw(st.integers(0, 3))


@settings(max_examples=500, deadline=None, database=None)
@given(_key_fields(), st.data())
def test_keys_are_built_canonical(fields, data):
    kind, space, cls, pairs = fields
    key = InvariantKey(kind, space, cls, pairs)
    assert InvariantKey(key.kind, key.space, key.cls, key.pairs) == key
    twins = []
    lattice = SURFACES.get(space)
    if lattice is not None and lattice.vanishing_cycle is not None:
        twins.append(monodromy(lattice, cls))
    if lattice is not None and lattice.side == "p2" and kind == "GW":
        twins.append(cls[:1] + tuple(data.draw(st.permutations(cls[1:]))))
    if space == "qx2t":
        twins.append((cls[0], cls[2], cls[1]))
    if space == "deg6":
        twins.append(tuple(data.draw(st.permutations(cls))))
    for twin in twins:
        assert InvariantKey(kind, space, twin, pairs) == key, twin


def test_get_or_compute_examples(store):
    assert store.get_or_compute(InvariantKey("GW", "qx2", (4, 4, 1, 3))) == 87304
    assert store.get_or_compute(InvariantKey("W", "p2", (3,), 0)) == 8
    assert store.get_or_compute(InvariantKey("W", "q", (2, 2), 0)) == 8


def test_missing_twisted_data(bare_store):
    with pytest.raises(DataUnavailableError) as err:
        bare_store.get_or_compute(InvariantKey("W", "qx2t", (1, 0, 1), 1))
    assert err.value.keys == [InvariantKey("W", "qx2t", (1, 0, 1), 1)]
    assert str(err.value) == "no data for key(s): (W qx2t (1,0,1) l=1)"


def test_zero_complex_count_forces_zero(bare_store):
    # no data needed when the complex count already vanishes
    assert bare_store.get_or_compute(InvariantKey("W", "qx2t", (1, 0, 3), 4)) == 0
    assert bare_store.get_or_compute(InvariantKey("W", "qx1", (1, 6, 2), 3)) == 0


def test_impossible_pair_count_is_a_query_error(bare_store):
    # no row could fill a key past its pair bound, so none is asked for
    for key in (InvariantKey("W", "qx2", (5, 5, 2, 3), 99), InvariantKey("W", "p2", (3,), 5)):
        with pytest.raises(WQueryError):
            bare_store.get_or_compute(key)
    with pytest.raises(DataUnavailableError):
        bare_store.get_or_compute(InvariantKey("W", "qx2", (5, 5, 2, 3), 2))


def test_rigid_classes_count_one(bare_store):
    # degenerate polygons: exceptional and line-type classes are rigid
    assert bare_store.get_or_compute(InvariantKey("W", "qx2", (0, 0, 0, -1), 0)) == 1
    assert bare_store.get_or_compute(InvariantKey("W", "qx2", (1, 0, 0, 1), 0)) == 1


def test_round_trip_persistence(tmp_path):
    cache = str(tmp_path / "cache")
    first = Store(cache_dir=cache, load_fixtures=False)
    rng = random.Random(17)
    keys = []
    for _ in range(1000):
        a, b = rng.randrange(0, 7), rng.randrange(0, 7)
        al = rng.randrange(0, min(a, b) + 1) if min(a, b) else 0
        be = rng.randrange(0, min(a, b) + 1) if min(a, b) else 0
        keys.append(InvariantKey("GW", "qx2", (a, b, al, be)))
    values = {key: first.get_or_compute(key) for key in keys}
    second = Store(cache_dir=cache, load_fixtures=False)
    for key, want in values.items():
        assert second.lookup(key) == want


def test_cache_hits_both_monodromy_images(tmp_path):
    store = Store(cache_dir=str(tmp_path), load_fixtures=False)
    key = InvariantKey("W", "qx2", (2, 2, 1, 2), 0)
    value = store.get_or_compute(key)
    twin = InvariantKey("W", "qx2", (2, 2, 2, 1), 0)
    assert store.lookup(twin) == value
    files = [p.name for p in tmp_path.iterdir()]
    assert files == ["qx2.store"]


def test_store_without_cache_dir_ignores_the_environment(tmp_path, monkeypatch):
    # only the CLI reads PEZZO_CACHE_DIR: a store given no cache_dir neither
    # serves a row planted under it nor writes there
    key = InvariantKey("W", "q", (2, 3), 0)
    value = Store(cache_dir=None, load_fixtures=False).get_or_compute(key)
    planted = tmp_path / "env"
    planted.mkdir()
    row = f"W,2,3,0,{value + 2}\n"
    (planted / "q.store").write_text(row, encoding="utf-8")
    monkeypatch.setenv("PEZZO_CACHE_DIR", str(planted))
    store = Store(cache_dir=None)
    assert store.get_or_compute(key) == value
    store.get_or_compute(InvariantKey("GW", "p2", (4,)))
    assert os.listdir(planted) == ["q.store"]
    assert (planted / "q.store").read_text(encoding="utf-8") == row


def test_cache_dir_keeps_other_files(tmp_path):
    # a file not named <space>.store is neither loaded nor cleared
    (tmp_path / "notes.txt").write_text("not a cache row\n", encoding="utf-8")
    (tmp_path / "p2.store").write_text("GW,3,0,12\n", encoding="utf-8")
    assert len(Store(cache_dir=str(tmp_path), load_fixtures=False)) == 1
    assert store_mod.clear_cache(str(tmp_path)) == 1
    assert os.listdir(tmp_path) == ["notes.txt"]
    assert store_mod.clear_cache(str(tmp_path / "absent")) == 0


def test_threefold_w_key_is_the_fiber_sum(tmp_path, monkeypatch):
    # w3 calls w_threefold itself; only get_or_compute on a family key
    # reaches the store's fiber-sum branch
    key = InvariantKey("W", "deg7", (5, 0), 0)
    store = Store(cache_dir=str(tmp_path))
    assert store.get_or_compute(key) == 45
    assert w_threefold(WelschingerQuery("deg7", (5, 0), 0), Store(cache_dir=None)) == 45
    assert (tmp_path / "deg7.store").read_text(encoding="utf-8") == "W,5,0,0,45\n"

    def no_compute(self, key):
        raise AssertionError(f"recomputed {key}")

    monkeypatch.setattr(Store, "_compute", no_compute)
    assert Store(cache_dir=str(tmp_path)).get_or_compute(key) == 45


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_ingest_valid_rows(tmp_path, bare_store):
    path = _write(tmp_path / "ok.csv",
                  "# comment\n"
                  "space,c1,c2,l,value\n"
                  "q,2,3,1,24\n"
                  "q,1,4,1,1\n"
                  "q,3,3,1,100\n")
    report = bare_store.ingest_csv(path, "q")
    assert report.inserted == 3
    assert report.rejected == []
    assert bare_store.lookup(InvariantKey("W", "q", (2, 3), 1)) == 24


def test_ingest_parity_violation(tmp_path, bare_store):
    # degree-3 plane classes have an even complex count, so 9 is impossible
    path = _write(tmp_path / "parity.csv",
                  "space,c1,l,value\n"
                  "p2,3,0,9\n")
    report = bare_store.ingest_csv(path, "p2")
    assert report.inserted == 0
    assert len(report.rejected) == 1
    assert "parity" in report.rejected[0][1]


def test_ingest_bound_violation(tmp_path, bare_store):
    path = _write(tmp_path / "bound.csv",
                  "space,c1,l,value\n"
                  "p2,3,1,14\n")
    report = bare_store.ingest_csv(path, "p2")
    assert report.inserted == 0
    assert "exceeds" in report.rejected[0][1]


def test_ingest_conflicting_duplicate(tmp_path, bare_store):
    path = _write(tmp_path / "dup.csv",
                  "space,c1,l,value\n"
                  "p2,5,1,9096\n"
                  "p2,5,1,9094\n")
    report = bare_store.ingest_csv(path, "p2")
    assert report.inserted == 1
    assert len(report.rejected) == 1
    assert "conflicts" in report.rejected[0][1]


def test_ingest_monodromy_duplicate_detected(tmp_path, bare_store):
    # the two rows name the same canonical key with different values
    path = _write(tmp_path / "mono.csv",
                  "space,c1,c2,c3,c4,l,value\n"
                  "qx2,3,3,1,2,1,100\n"
                  "qx2,3,3,2,1,1,102\n")
    report = bare_store.ingest_csv(path, "qx2")
    assert report.inserted == 1
    assert len(report.rejected) == 1


def test_ingest_parse_errors(tmp_path, bare_store):
    path = _write(tmp_path / "bad1.csv", "space,c1,l\np2,3,0\n")
    with pytest.raises(CsvParseError):
        bare_store.ingest_csv(path, "p2")
    path = _write(tmp_path / "bad2.csv", "space,c1,l,value\np2,3,0\n")
    with pytest.raises(CsvParseError) as err:
        bare_store.ingest_csv(path, "p2")
    assert err.value.lineno == 2
    path = _write(tmp_path / "bad3.csv", "space,c1,l,value\np2,x,0,1\n")
    with pytest.raises(CsvParseError):
        bare_store.ingest_csv(path, "p2")
    path = _write(tmp_path / "bad4.csv", "space,c1,l,value\np2,3,0,abc\n")
    with pytest.raises(CsvParseError) as err:
        bare_store.ingest_csv(path, "p2")
    assert err.value.lineno == 2
    path = _write(tmp_path / "bad5.csv", "# only\n# comments\n")
    with pytest.raises(CsvParseError) as err:
        bare_store.ingest_csv(path, "p2")
    assert err.value.lineno == 1 and "missing header line" in str(err.value)
    if not hasattr(sys, "set_int_max_str_digits"):
        return
    # past the int/str digit limit a value fails its line, not int(); the
    # limit is set here because cli.main lifts it for the whole process
    path = _write(tmp_path / "bad6.csv", "space,c1,l,value\np2,3,0," + "7" * 5000 + "\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(CsvParseError) as err:
            bare_store.ingest_csv(path, "p2")
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.lineno == 2


class _HeldHandle:
    """An ingest's append handle that writes at most ``chunk`` bytes a call
    and fails as kept row ``fail_row`` starts."""

    def __init__(self, fh, chunk, fail_row):
        self.fh, self.chunk, self.fail_row, self.rows, self.left = fh, chunk, fail_row, 0, 0

    def write(self, data):
        if not self.left:  # the first call of a row
            self.rows += 1
            if self.rows == self.fail_row:
                raise OSError(28, "No space left on device")
            self.left = len(data)
        written = self.fh.write(bytes(data[:self.chunk]))
        self.left -= written
        return written

    def close(self):
        self.fh.close()


@pytest.mark.parametrize("chunk", [None, 3], ids=["whole-writes", "short-writes"])
def test_failed_write_through_the_held_handle(tmp_path, monkeypatch, capsys, chunk):
    # the second kept row fails: the first stays whole in the file, the
    # second is neither there nor in the store, and the handle is closed
    # q has no bundled fixture, so the CLI's store keeps these rows too
    csv = _write(tmp_path / "rows.csv", "space,c1,c2,l,value\nq,2,3,1,24\nq,1,4,1,1\nq,3,3,1,100\n")
    handles = []

    def held_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if mode != "ab":
            return fh
        handles.append(_HeldHandle(fh, chunk, fail_row=2))
        return handles[-1]

    monkeypatch.setattr(store_mod, "open", held_open, raising=False)
    cache = tmp_path / "cache"
    store = Store(cache_dir=str(cache), load_fixtures=False)
    with pytest.raises(OSError, match="No space left"):
        store.ingest_csv(csv, "q")
    assert (cache / "q.store").read_bytes() == b"W,2,3,1,24\n"
    assert store.lookup(InvariantKey("W", "q", (2, 3), 1)) == 24
    assert store.lookup(InvariantKey("W", "q", (1, 4), 1)) is None
    assert len(handles) == 1 and handles[0].fh.closed
    # the same failure under ``pezzo ingest``: one error line, exit 1
    argv = ["--cache-dir", str(tmp_path / "cli"), "ingest", "--surface", "q", "--file", csv]
    capsys.readouterr()
    assert cli.main(argv, out=io.StringIO()) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert (tmp_path / "cli" / "q.store").read_bytes() == b"W,2,3,1,24\n"
    assert len(handles) == 2 and handles[1].fh.closed


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_parse_error_keeps_earlier_rows_and_no_descriptor(tmp_path):
    csv = _write(tmp_path / "rows.csv",
                 "space,c1,l,value\np2,3,0,8\np2,4,0,240\np2,x,0,1\np2,5,0,18264\n")
    store = Store(cache_dir=str(tmp_path / "cache"), load_fixtures=False)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(CsvParseError) as err:  # holds the ingest's frame
        store.ingest_csv(csv, "p2")
    assert err.value.lineno == 4
    assert len(os.listdir("/proc/self/fd")) == before
    assert (tmp_path / "cache" / "p2.store").read_bytes() == b"W,3,0,8\nW,4,0,240\n"


def test_clear_cache_between_ingests(tmp_path):
    # no handle outlives an ingest call: the second call's rows go to a new file
    cache = tmp_path / "cache"
    store = Store(cache_dir=str(cache), load_fixtures=False)
    store.ingest_csv(_write(tmp_path / "a.csv", "space,c1,l,value\np2,3,0,8\n"), "p2")
    assert store_mod.clear_cache(str(cache)) == 1
    store.ingest_csv(_write(tmp_path / "b.csv", "space,c1,l,value\np2,4,0,240\np2,5,0,18264\n"),
                     "p2")
    assert (cache / "p2.store").read_bytes() == b"W,4,0,240\nW,5,0,18264\n"


def test_clear_cache_leaves_a_live_store_holding_its_rows(tmp_path):
    # documented in clear_cache: a row the store still holds is not written
    # again, so its re-ingest reports it inserted and writes nothing; a new
    # Store writes it
    cache, csv = tmp_path / "cache", _write(tmp_path / "a.csv", "space,c1,l,value\np2,3,0,8\n")
    store = Store(cache_dir=str(cache), load_fixtures=False)
    store.ingest_csv(csv, "p2")
    assert store_mod.clear_cache(str(cache)) == 1
    assert store.ingest_csv(csv, "p2").inserted == 1
    assert os.listdir(cache) == [] and len(Store(cache_dir=str(cache), load_fixtures=False)) == 0
    assert Store(cache_dir=str(cache), load_fixtures=False).ingest_csv(csv, "p2").inserted == 1
    assert (cache / "p2.store").read_bytes() == b"W,3,0,8\n"


def test_ingest_cache_file_holds_the_kept_rows_in_csv_order(tmp_path):
    csv = _write(tmp_path / "rows.csv",
                 "space,c1,l,value\n"
                 "p2,4,0,240\n"
                 "p2,3,0,8\n"
                 "p2,3,0,8\n"      # consistent duplicate: kept once
                 "p2,3,0,10\n"     # conflict
                 "q,3,0,8\n"       # space mismatch
                 "p2,3,1,7\n"      # parity: GW(p2; 3) = 12
                 "p2,3,1,14\n"     # bound
                 "p2,3,1,6\n"
                 "p2,5,0,18264\n")
    cache = tmp_path / "cache"
    report = Store(cache_dir=str(cache), load_fixtures=False).ingest_csv(csv, "p2")
    assert report.inserted == 5
    assert [lineno for lineno, _ in report.rejected] == [5, 6, 7, 8]
    kept = {InvariantKey("W", "p2", (d,), l): v for d, l, v in
            [(4, 0, 240), (3, 0, 8), (3, 1, 6), (5, 0, 18264)]}
    text = "".join(store_mod.csv_row("W", key.cls, key.pairs, value)
                   for key, value in kept.items())
    assert (cache / "p2.store").read_bytes() == text.encode()
    again = Store(cache_dir=str(cache), load_fixtures=False)
    assert {key: again.lookup(key) for key in kept} == kept and len(again) == len(kept)


def test_ingest_writes_the_rows_as_this_text(tmp_path):
    # the cache files spelled out: a "+" sign and digit groups dropped,
    # negative values kept, a consistent duplicate written once, a twin
    # written as its canonical class
    cache = tmp_path / "cache"
    store = Store(cache_dir=str(cache), load_fixtures=False)
    report = store.ingest_csv(_write(tmp_path / "p2.csv",
                                     "space,c1,l,value\n"
                                     "p2,3,1,-6\n"
                                     "p2,4,0,+240\n"
                                     "p2,5,0,18_264\n"
                                     "p2,3,1,-6\n"
                                     "p2,4,2,-8_0\n"), "p2")
    assert (report.inserted, report.rejected) == (5, [])
    # GW(deg7; 5, 0) = 105; GW(qx2; 3, 3, 1, 2) = 620
    report = store.ingest_csv(_write(tmp_path / "deg7.csv",
                                     "space,c1,c2,l,value\n"
                                     "deg7,5,0,0,+5\n"
                                     "deg7,5,0,1,-1_01\n"), "deg7")
    assert (report.inserted, report.rejected) == (2, [])
    report = store.ingest_csv(_write(tmp_path / "qx2.csv",
                                     "space,c1,c2,c3,c4,l,value\n"
                                     "qx2,3,3,2,1,1,-100\n"), "qx2")
    assert (report.inserted, report.rejected) == (1, [])
    assert (cache / "p2.store").read_bytes() == b"W,3,1,-6\nW,4,0,240\nW,5,0,18264\nW,4,2,-80\n"
    assert (cache / "deg7.store").read_bytes() == b"W,5,0,0,5\nW,5,0,1,-101\n"
    assert (cache / "qx2.store").read_bytes() == b"W,3,3,1,2,1,-100\n"


def test_ingest_checks_each_class_once(tmp_path, monkeypatch):
    # pair_bound and gw_of run once per canonical class of one call, a row
    # past its class's bound never counts the class, and repeated rows of a
    # class keep their rejection texts and line numbers
    calls = []
    for name in ("pair_bound", "gw_of"):
        def spy(space, cls, name=name, real=getattr(store_mod, name)):
            calls.append((name, space, cls))
            return real(space, cls)
        monkeypatch.setattr(store_mod, name, spy)
    store = Store(load_fixtures=False)
    report = store.ingest_csv(_write(tmp_path / "p2.csv",
                                     "space,c1,l,value\n"
                                     "p2,3,0,8\n"
                                     "p2,3,1,7\n"
                                     "p2,3,1,6\n"
                                     "p2,3,5,0\n"
                                     "p2,3,2,14\n"
                                     "p2,3,5,0\n"
                                     "p2,6,9,0\n"
                                     "p2,4,1,144\n"
                                     "p2,3,1,7\n"
                                     "p2,3,1,8\n"
                                     "p2,4,0,240\n"), "p2")
    assert report.inserted == 4
    assert report.rejected == [(3, "parity of 7 conflicts with complex count 12"),
                               (5, "p2(3,): pairs 5 outside 0..4"),
                               (6, "|14| exceeds complex count 12"),
                               (7, "p2(3,): pairs 5 outside 0..4"),
                               (8, "p2(6,): pairs 9 outside 0..8"),
                               (10, "parity of 7 conflicts with complex count 12"),
                               (11, "conflicts with stored value 6")]
    assert calls == [("pair_bound", "p2", (3,)), ("gw_of", "p2", (3,)),
                     ("pair_bound", "p2", (6,)),
                     ("pair_bound", "p2", (4,)), ("gw_of", "p2", (4,))]
    # monodromy twins are one class; the dict lives for one call
    calls.clear()
    report = store.ingest_csv(_write(tmp_path / "qx2.csv",
                                     "space,c1,c2,c3,c4,l,value\n"
                                     "qx2,3,3,1,2,1,100\n"
                                     "qx2,3,3,2,1,2,98\n"), "qx2")
    assert (report.inserted, report.rejected) == (2, [])
    assert calls == [("pair_bound", "qx2", (3, 3, 1, 2)), ("gw_of", "qx2", (3, 3, 1, 2))]
    calls.clear()
    store.ingest_csv(_write(tmp_path / "again.csv", "space,c1,l,value\np2,3,0,8\n"), "p2")
    assert calls == [("pair_bound", "p2", (3,)), ("gw_of", "p2", (3,))]


def test_ingest_twisted_threefold_rows(tmp_path):
    # deg6t rows are checked against GW(deg6; 2, 2, 1) = 1
    store = Store(cache_dir=None, load_fixtures=False)
    header = "space,c1,c2,l,value\n"
    report = store.ingest_csv(_write(tmp_path / "ok.csv", header + "deg6t,2,1,0,1\n"), "deg6t")
    assert report.inserted == 1 and report.rejected == []
    assert store.lookup(InvariantKey("W", "deg6t", (2, 1), 0)) == 1
    store = Store(cache_dir=None, load_fixtures=False)
    report = store.ingest_csv(_write(tmp_path / "big.csv", header + "deg6t,2,1,0,3\n"), "deg6t")
    assert report.inserted == 0
    assert report.rejected == [(2, "|3| exceeds complex count 1")]


def test_ingest_non_utf8_reports_line(tmp_path, bare_store):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"space,c1,l,value\np2,3,0,8\np2,\xff4,0,1\n")
    with pytest.raises(CsvParseError) as err:
        bare_store.ingest_csv(str(path), "p2")
    assert err.value.lineno == 3 and "0xff" in str(err.value)


def test_ingest_ends_lines_as_open_does(tmp_path):
    # lines end at \n, \r\n or a lone \r and nowhere else: a form feed or a
    # U+2028 inside a row leaves it one row, and both paths count alike
    path = tmp_path / "t.csv"
    for data in ("space,c1,l,value\np2,3,0,8\x0c\np2,9,x,1\n".encode(),
                 b"space,c1,l,value\rp2,3,0,8\rp2,\xff4,0,1\r"):
        path.write_bytes(data)
        with pytest.raises(CsvParseError) as err:
            Store(load_fixtures=False).ingest_csv(str(path), "p2")
        assert err.value.lineno == 3
    path.write_bytes("space,c1,l,value\np2,3,\u20280,8\np2,3,0,10\n".encode())
    report = Store(load_fixtures=False).ingest_csv(str(path), "p2")
    assert report == (1, [(3, "conflicts with stored value 8")])
    rows = "# c\nspace,c1,l,value\np2,3,0,8\n\np2,3,1,7\np2,4,0,240\n"
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes(rows.replace("\n", end).encode())
        store = Store(load_fixtures=False)
        report = store.ingest_csv(str(path), "p2")
        assert report.inserted == 2 and [n for n, _ in report.rejected] == [5], end
        assert store.lookup(InvariantKey("W", "p2", (4,), 0)) == 240


def test_ingest_report_is_a_named_tuple(tmp_path):
    path = _write(tmp_path / "r.csv", "space,c1,l,value\np2,3,0,8\nq,3,0,8\n")
    report = Store(load_fixtures=False).ingest_csv(path, "p2")
    assert report == (1, [(3, "space 'q' != 'p2'")]) and type(report) is IngestReport
    assert repr(report) == "IngestReport(inserted=1, rejected=[(3, \"space 'q' != 'p2'\")])"
    assert report._fields == ("inserted", "rejected")
    with pytest.raises(AttributeError):
        report.inserted = 2


with open(os.path.join(os.path.dirname(store_mod.__file__), "data", "welschinger_plane.csv"),
          "rb") as _fh:
    _PLANE_CSV = _fh.read()


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, len(_PLANE_CSV)))
def test_ingest_truncated_csv(cut):
    # the bundled plane table cut at any byte: every whole data line goes in
    # with its value, and only the torn last line may differ
    full = _PLANE_CSV
    *whole, torn = full[:cut].decode("ascii").split("\n")
    torn_no = len(whole) + 1
    header_at = full.index(b"space,")
    header_no = full[:header_at].count(b"\n") + 1
    store = Store(cache_dir=None, load_fixtures=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cut.csv")
        with open(path, "wb") as fh:
            fh.write(full[:cut])
        try:
            report = store.ingest_csv(path, "p2")
        except CsvParseError as exc:
            if cut <= header_at:
                assert exc.lineno == 1 and "missing header line" in str(exc)
            else:
                assert exc.lineno == torn_no
            report = None
    rows = [line.split(",") for line in whole[header_no:]]
    for _, d, l, value in rows:
        assert store.lookup(InvariantKey("W", "p2", (int(d),), int(l))) == int(value)
    if report is None:
        assert len(store) == len(rows)
        return
    assert torn_no > header_no or torn == "space,c1,l,value"
    assert {lineno for lineno, _ in report.rejected} <= {torn_no}
    if report.inserted > len(rows):
        # a torn row that parses and validates goes in as its token reads:
        # p2,5,0,18264 cut to p2,5,0,1826 is stored as 1826
        _, d, l, value = torn.split(",")
        assert report.inserted == len(rows) + 1
        assert store.lookup(InvariantKey("W", "p2", (int(d),), int(l))) == int(value)
    else:
        assert report.inserted == len(rows)


def test_cache_torn_last_line_dropped(tmp_path, capsys):
    # an append cut short: the whole rows load, the torn tail leaves the file
    path = tmp_path / "p2.store"
    path.write_bytes(b"W,3,0,8\nW,1,")
    store = Store(cache_dir=str(tmp_path), load_fixtures=False)
    assert store.lookup(InvariantKey("W", "p2", (3,), 0)) == 8
    err = capsys.readouterr().err
    assert err.startswith(f"warning: {path}:2: ") and "W,1," in err
    assert path.read_bytes() == b"W,3,0,8\n"
    # later appends start on a line of their own
    assert store.get_or_compute(InvariantKey("W", "p2", (4,), 0)) == 240
    again = Store(cache_dir=str(tmp_path), load_fixtures=False)
    assert again.lookup(InvariantKey("W", "p2", (4,), 0)) == 240
    assert capsys.readouterr().err == ""


@st.composite
def _torn_cache(draw):
    row = st.tuples(st.integers(1, 30), st.integers(0, 5), st.integers(-10**6, 10**6))
    rows = draw(st.lists(row, min_size=1, max_size=12, unique_by=lambda r: r[:2]))
    size = sum(len(f"W,{d},{l},{v}\n") for d, l, v in rows)
    return rows, draw(st.integers(0, size))


@settings(max_examples=200, deadline=None, database=None)
@given(_torn_cache())
def test_cache_round_trip_under_truncation(case):
    rows, cut = case
    keys = [InvariantKey("W", "p2", (d,), l) for d, l, _ in rows]
    with tempfile.TemporaryDirectory() as cache:
        store = Store(cache_dir=cache, load_fixtures=False)
        for key, (_, _, value) in zip(keys, rows):
            assert store.insert(key, value)
        path = os.path.join(cache, "p2.store")
        with open(path, "rb") as fh:
            data = fh.read()
        os.truncate(path, cut)
        kept = data.rfind(b"\n", 0, cut) + 1  # bytes of the rows whose newline precedes the cut
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            again = Store(cache_dir=cache, load_fixtures=False)
        whole = data.count(b"\n", 0, kept)
        assert len(again) == whole
        for i, (key, (_, _, value)) in enumerate(zip(keys, rows)):
            assert again.lookup(key) == (value if i < whole else None)
        with open(path, "rb") as fh:
            assert fh.read() == data[:kept]
        torn = data[kept:cut]
        assert err.getvalue() == (
            f"warning: {path}:{whole + 1}: dropping torn last line {torn!r}\n" if torn else "")


def test_bundled_fixture_rows_all_load():
    data_dir = os.path.join(os.path.dirname(pezzo.__file__), "data")
    total = 0
    for name in sorted(os.listdir(data_dir)):
        path = os.path.join(data_dir, name)
        with open(path, encoding="utf-8") as fh:
            _, *rows = [line for line in fh.read().splitlines()
                        if line and not line.startswith("#")]
        report = Store(load_fixtures=False).ingest_csv(path, rows[0].split(",")[0])
        assert (report.inserted, report.rejected) == (len(rows), []), name
        total += len(rows)
    # and the store loads every one of those files
    assert len(Store()) == total == 42


# the first six ids are pytest's default ids for (body, lineno), kept stable
@pytest.mark.parametrize("name, body, message", [
    pytest.param("p2", b"W,1,\nW,3,0,8\n",
                 "1: bad row b'W,1,': invalid literal for int() with base 10: ''",
                 id="W,1,\nW,3,0,8\n-1"),  # torn row that is not the last line
    pytest.param("p2", b"W,3,0,8\nW\n", "2: bad row b'W': list index out of range",
                 id="W,3,0,8\nW\n-2"),  # too few fields
    pytest.param("p2", b"W,3,0,8\nW,3,x,8\n",
                 "2: bad row b'W,3,x,8': invalid literal for int() with base 10: 'x'",
                 id="W,3,0,8\nW,3,x,8\n-2"),  # not an integer
    pytest.param("p2", b"W,3,1,0,8\n",
                 "1: bad row b'W,3,1,0,8': space p2: class (3, 1) has length 2, want 1",
                 id="W,3,1,0,8\n-1"),  # class of the wrong rank
    pytest.param("p2", b"# note\nW,\xff,0,8\n",
                 "2: bad row b'W,\\xff,0,8': 'utf-8' codec can't decode byte 0xff in position 2: "
                 "invalid start byte", id="# note\nW,\xff,0,8\n-2"),  # not UTF-8
    pytest.param("p2", b"W,3,0,8\nW,3,0,9\n", "2: (W p2 (3) l=0) is 8, not 9",
                 id="W,3,0,8\nW,3,0,9\n-2"),  # conflicting duplicate
    pytest.param("p2", b"X,3,0,8\n", "1: bad row b'X,3,0,8': bad kind 'X'", id="kind"),
    pytest.param("p2", b"W,3,-1,8\n", "1: bad row b'W,3,-1,8': pairs must be nonnegative",
                 id="negative-pairs"),
    pytest.param("p2", b"GW,3,1,12\n", "1: bad row b'GW,3,1,12': GW keys carry pairs = 0",
                 id="gw-pairs"),
    # monodromy twins with different values: the second row's class is made canonical
    pytest.param("q", b"W,2,3,0,4\nW,3,2,0,6\n", "2: (W q (2,3) l=0) is 4, not 6",
                 id="twin-conflict"),
])
def test_cache_bad_row_names_file_and_line(tmp_path, name, body, message):
    path = tmp_path / f"{name}.store"
    path.write_bytes(body)
    with pytest.raises(CacheError) as err:
        Store(cache_dir=str(tmp_path), load_fixtures=False)
    assert str(err.value) == f"{path}:{message}"
    assert path.read_bytes() == body


def test_ingest_space_mismatch_rejected(tmp_path, bare_store):
    path = _write(tmp_path / "mix.csv",
                  "space,c1,l,value\n"
                  "q,3,0,8\n")
    report = bare_store.ingest_csv(path, "p2")
    assert report.inserted == 0
    assert "space" in report.rejected[0][1]


@pytest.mark.parametrize("space, header, good, bad, bound", [
    # degree 3 passes through 8 points: at most 4 pairs
    ("p2", "space,c1,l,value", "p2,3,4,0", "p2,3,7,0", "0..4"),
    # (1, 0, 1) is (1, 1; 0, 1) on qx2, through 2 points
    ("qx2t", "space,c1,c2,c3,l,value", "qx2t,1,0,1,1,1", "qx2t,1,0,1,2,1", "0..1"),
    # k_d = 1, and the one point stays real
    ("deg6", "space,c1,c2,c3,l,value", "deg6,1,0,0,0,1", "deg6,1,0,0,5,1", "0..0"),
], ids=["surface", "qx2t", "threefold"])
def test_ingest_pair_count_bounded(tmp_path, bare_store, space, header, good, bad, bound):
    path = _write(tmp_path / "pairs.csv", f"{header}\n{good}\n{bad}\n")
    report = bare_store.ingest_csv(path, space)
    assert report.inserted == 1
    assert [lineno for lineno, _ in report.rejected] == [3]
    assert f"outside {bound}" in report.rejected[0][1]


@pytest.mark.parametrize("space, header, row, reason", [
    ("p2", "space,c1,l,value", "p2,3,-1,8", "pairs must be nonnegative"),
    ("deg6-gw", "space,c1,c2,c3,l,value", "deg6-gw,1,1,1,1,1", "GW keys carry pairs = 0"),
], ids=["negative-pairs", "gw-pairs"])
def test_ingest_rejects_pairs_the_key_rejects(tmp_path, bare_store, space, header, row, reason):
    path = _write(tmp_path / "pairs.csv", f"{header}\n# note\n{row}\n")
    report = bare_store.ingest_csv(path, space)
    assert (report.inserted, report.rejected) == (0, [(3, reason)])


# every token ingest reads, with its rank: the seven surfaces, the twisted member
# space, the four families and the complex-count tokens of the untwisted families
TOKEN_RANKS = {"p2": 1, "p2x1": 2, "p2x2": 3, "p2x3": 4, "q": 2, "qx1": 3, "qx2": 4, "qx2t": 3,
               "deg8": 1, "deg7": 2, "deg6": 3, "deg6t": 2,
               "deg8-gw": 1, "deg7-gw": 2, "deg6-gw": 3}


@pytest.mark.parametrize("token, rank", sorted(TOKEN_RANKS.items()))
def test_header_alone_ingests(tmp_path, token, rank):
    if not token.endswith("-gw"):
        assert space_rank(token) == rank
    store = Store(cache_dir=str(tmp_path / "cache"), load_fixtures=False)
    report = store.ingest_csv(_write(tmp_path / "header.csv", csv_header(rank) + "\n"), token)
    assert (report.inserted, report.rejected, len(store)) == (0, [], 0)
    assert os.listdir(tmp_path / "cache") == []


def test_rank_table_covers_every_token():
    spaces = {*SURFACES, *FAMILIES, *(f.member_space for f in FAMILIES.values())}
    assert spaces | set(GW_TOKEN.values()) == set(TOKEN_RANKS)
    assert csv_header(2) == "space,c1,c2,l,value"
    with pytest.raises(DomainError, match="unknown space token 'deg6t-gw'"):
        space_rank("deg6t-gw")


@pytest.mark.parametrize("alias", ["deg6-gw", "deg7-gw", "deg8-gw"])
def test_csv_alias_is_not_a_key_space(tmp_path, alias):
    rank = FAMILIES[alias[:-3]].rank
    with pytest.raises(DomainError):
        InvariantKey("GW", alias, (1,) * rank)
    path = tmp_path / f"{alias}.store"
    path.write_bytes(b"GW," + b"1," * rank + b"0,1\n")
    with pytest.raises(CacheError) as err:
        Store(cache_dir=str(tmp_path), load_fixtures=False)
    assert str(err.value).startswith(f"{path}:1: ")


def test_csv_alias_ingests_complex_counts(tmp_path, bare_store):
    text, _ = gw_deg6_table(max_sum=6, fmt="csv")
    rows = text.splitlines()[1:]
    report = bare_store.ingest_csv(_write(tmp_path / "gw.csv", text), "deg6-gw")
    assert (report.inserted, report.rejected) == (len(rows), [])
    _, *cls, _, value = rows[-1].split(",")
    assert bare_store.lookup(InvariantKey("GW", "deg6", tuple(map(int, cls)))) == int(value)


def test_bundled_fixture_consistent_with_diagrams(store):
    # the shipped blown-quadric classes agree with the totally real backend
    for k, want in ((0, 1), (1, 1), (2, 8), (3, 240), (4, 18264)):
        key = InvariantKey("W", "qx1", (k, k + 1, k), 0)
        assert store.lookup(key) == want


def test_concurrent_get_or_compute(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    store = Store(cache_dir=str(tmp_path), load_fixtures=False)
    key = InvariantKey("GW", "qx2", (4, 4, 1, 3))
    with ThreadPoolExecutor(8) as pool:
        results = list(pool.map(lambda _: store.get_or_compute(key), range(32)))
    assert set(results) == {87304}
    lines = [l for l in (tmp_path / "qx2.store").read_text().splitlines() if l]
    assert len(lines) == 1


def test_served_values_respect_complex_bound(store):
    rng = random.Random(29)
    for _ in range(200):
        a, b = rng.randrange(1, 5), rng.randrange(1, 5)
        al = rng.randrange(0, min(a, b) + 1)
        be = rng.randrange(0, min(a, b) + 1)
        cls = (a, b, al, be)
        w = store.get_or_compute(InvariantKey("W", "qx2", cls, 0))
        total = gw_surface(SURFACES["qx2"], cls)
        assert abs(w) <= total and (w - total) % 2 == 0


def _quadric_keys(top):
    """W keys of every q, qx1 and qx2 class with entries 0..top, cuts from -1."""
    cuts = range(-1, top + 1)
    for a in range(top + 1):
        for b in range(top + 1):
            yield InvariantKey("W", "q", (a, b))
            for k in cuts:
                yield InvariantKey("W", "qx1", (a, b, k))
                for alpha in cuts:
                    yield InvariantKey("W", "qx2", (a, b, alpha, k))


def test_orbit_rectangle_sweep(monkeypatch):
    # with the count replaced by the polygon it is given, _w_l0_surface shows
    # which rectangle it counts: the class's own, or a lower one with the
    # same count.  A class with no polygon of its own raises that polygon's
    # error, or counts +1 when it is rigid.
    count = floor.fd_count_real_l0
    monkeypatch.setattr(floor, "fd_count_real_l0", lambda pc: pc)
    keys = moved = 0
    for key in _quadric_keys(5):
        keys += 1
        total = gw_of(key.space, key.cls)
        try:
            counted = _w_l0_surface(key, total)
        except DegeneratePolygonError as exc:
            with pytest.raises(DegeneratePolygonError) as own:
                floor.polygon_of(key.space, key.cls)
            assert str(own.value) == str(exc)
            continue
        if counted == 1:
            with pytest.raises(DegeneratePolygonError):
                floor.polygon_of(key.space, key.cls)
            assert total == 1 and constraint_count(SURFACES[key.space], key.cls) == 0
            continue
        own = floor.polygon_of(key.space, key.cls)
        if counted != own:
            assert counted.height < own.height, key
            assert count(counted) == count(own), key
            moved += 1
    assert keys == 2052 and moved == 52


@st.composite
def _quadric_classes(draw):
    space = draw(st.sampled_from(["q", "qx1", "qx2"]))
    a, b = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cuts = [draw(st.integers(0, min(a, b))) for _ in range(SURFACES[space].rank - 2)]
    return space, (a, b, *cuts)


@settings(max_examples=40, deadline=None, database=None)
@given(_quadric_classes())
def test_orbit_rectangle_keeps_the_count(case):
    # the rectangle counted is an orbit mate: same complex count, constraint
    # count and genus, and the same real count as the class's own polygon
    space, cls = case
    key = InvariantKey("W", space, cls)
    total = gw_of(space, key.cls)
    assume(total)
    with mock.patch.object(floor, "fd_count_real_l0", wraps=floor.fd_count_real_l0) as spy:
        value = _w_l0_surface(key, total)
    (pc,) = spy.call_args.args
    own = floor.polygon_of(space, key.cls)
    if pc != own:
        assert pc.height < own.height
        assert value == floor.fd_count_real_l0(own)
    mate, lattice = SURFACES[pc.surface_id], SURFACES[space]
    assert gw_surface(mate, pc.class_vec) == total
    assert constraint_count(mate, pc.class_vec) == constraint_count(lattice, key.cls)
    assert genus(mate, pc.class_vec) == genus(lattice, key.cls)


def _outcome(thunk):
    try:
        return "ok", thunk()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_real_point_cut_sweep(monkeypatch):
    # a cut of 1 is a real blown-up point: on every canonical class that
    # _quadric_keys yields, _compute returns what the class's own rule gives,
    # count or error, though it counts a cut-1 class on a cut-0 rectangle:
    # the cut-0 class's own polygon, unless the class has a strictly lower
    # orbit mate (d; a2, a3, a1), max(a1, a2) < a3 < d in plane coordinates
    count, memo, counted = floor.fd_count_real_l0, {}, []

    def shared(pc):  # one count per polygon shape, on both sides
        counted.append(pc)
        shape = (pc.slabs, pc.d_b, pc.d_t)
        if shape not in memo:
            memo[shape] = count(pc)
        return memo[shape]

    monkeypatch.setattr(floor, "fd_count_real_l0", shared)
    store = Store(load_fixtures=False)
    keys = sorted(set(_quadric_keys(5)), key=str)
    traded = mates = 0
    for key in keys:
        total = gw_of(key.space, key.cls)
        own = _outcome(lambda: 0 if total == 0 else _w_l0_surface(key, total))
        counted.clear()
        assert _outcome(lambda: store._compute(key)) == own, key
        zero = store_mod._cut_zero(key)
        if total == 0 or zero is None:
            continue
        traded += 1
        (pc,) = counted
        cut0 = floor.polygon_of(zero.space, zero.cls)
        d, a1, a2, a3 = quadric_to_plane(quadric_coords(SURFACES[key.space], key.cls))
        if max(a1, a2) < a3 < d:
            mate = floor.polygon_of("qx2", plane_to_quadric((d, a2, a3, a1)))
            assert pc == mate and mate.height < cut0.height, key
            mates += 1
        else:
            assert pc == cut0, key
    assert len(keys) == 1176 and traded == 95 and mates == 4
    assert not store._data


@st.composite
def _real_point_classes(draw):
    space = draw(st.sampled_from(["qx1", "qx2"]))
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cuts = [1] + [draw(st.integers(0, min(a, b)))] * (space == "qx2")
    return space, (a, b, *draw(st.permutations(cuts)))


@settings(max_examples=30, deadline=None, database=None)
@given(_real_point_classes())
def test_real_point_cut_keeps_the_count(case):
    # W(X~, D - E, l) = W(X, D, l) at a real blown-up point: each class's
    # own polygon, with every cut of 1 made 0, has the same real count
    space, cls = case
    zero = cls[:2] + tuple(0 if x == 1 else x for x in cls[2:])
    assert (floor.fd_count_real_l0(floor.polygon_of(space, cls))
            == floor.fd_count_real_l0(floor.polygon_of(space, zero)))


@settings(max_examples=40, deadline=None, database=None)
@given(_quadric_classes())
def test_computed_real_counts_respect_the_complex_count(case):
    # W = GW mod 2 and |W| <= GW on computed l = 0 counts, cut-1 classes
    # included, whether counted or read off the stored cut-0 class
    space, cls = case
    store = Store(load_fixtures=False)
    key = InvariantKey("W", space, cls)
    zero = store_mod._cut_zero(key)
    for k in ([zero] if zero else []) + [key]:
        w, total = store.get_or_compute(k), gw_of(k.space, k.cls)
        assert (w - total) % 2 == 0 and abs(w) <= total, k


def _run_on_tampered_cache(space, cls, value, argv):
    """``cli.main(argv)`` on a fresh cache holding the one row ``W,<cls>,0,<value>``
    in ``<space>.store``: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as cache:
        with open(os.path.join(cache, f"{space}.store"), "w", encoding="utf-8") as fh:
            fh.write(f"W,{','.join(map(str, cls))},0,{value}\n")
        with contextlib.redirect_stderr(err):
            code = cli.main(["--cache-dir", cache] + argv, out=out)
    return code, out.getvalue(), err.getvalue()


def _check_tampered_run(run, key, value, total, fixtures):
    # the run serves a value, or names the key in one error line: exactly when
    # the row breaks W = GW mod 2 or |W| <= GW, or contradicts a bundled fixture
    code, out, err = run
    bad = w_conflict(value, total) or fixtures.lookup(key) not in (None, value)
    if bad:
        assert (code, out) == (1, ""), (key, value, run)
        assert err.startswith("error: ") and err.count("\n") == 1 and str(key) in err, err
    else:
        assert (code, err) == (0, ""), (key, value, run)
    return bad


def _w_values(total):
    # half of them obey the rules against the complex count ``total``
    return st.one_of(st.integers(0, total).map(lambda j: total - 2 * j),
                     st.integers(-total - 3, total + 3))


@st.composite
def _tampered_surface_rows(draw):
    space = draw(st.sampled_from(["p2", "q", "qx1", "qx2"]))
    if space == "p2":
        cls = (draw(st.integers(1, 5)),)
    else:
        a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        cls = (a, b, *(draw(st.integers(-1, 3)) for _ in range(SURFACES[space].rank - 2)))
    total = gw_of(space, cls)
    return space, cls, total, draw(_w_values(total))


@settings(max_examples=80, deadline=None, database=None)
@given(_tampered_surface_rows())
def test_w2_serves_a_tampered_row_only_within_the_rules(case):
    space, cls, total, value = case
    assume(pair_bound(space, cls) >= 0)
    key = InvariantKey("W", space, cls)
    run = _run_on_tampered_cache(space, cls, value, ["w2", "--surface", space,
                                                     "--class", ",".join(map(str, cls))])
    if not _check_tampered_run(run, key, value, total, Store()):
        assert run[1] == f"{value}\n"


@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(0, 2).flatmap(lambda h: st.tuples(
    st.just(2 * h + 1), st.integers(0, 2 * h + 1), st.data())))
def test_w3_serves_a_tampered_member_only_within_the_rules(case):
    # one qx1 member row of a deg7 class is tampered with; a served fiber sum
    # of members that obey the rules obeys them against the threefold count
    d, k, data = case
    assume(not w_vanishes_a_priori("deg7", (d, k)))  # else no member is read
    members = fiber(FAMILIES["deg7"], (d, k))
    members = [m for m in members[:len(members) // 2] if gw_of("qx1", m)]  # the ones read
    assume(members)
    member = data.draw(st.sampled_from(members))
    total = gw_of("qx1", member)
    value = data.draw(_w_values(total))
    run = _run_on_tampered_cache("qx1", member, value,
                                 ["w3", "--family", "deg7", "--class", f"{d},{k}"])
    key = InvariantKey("W", "qx1", member)
    if not _check_tampered_run(run, key, value, total, Store()):
        w3 = int(run[1])
        assert w_conflict(w3, gw_of("deg7", (d, k))) is None, (d, k, member, value, w3)


def test_cache_rows_pass_the_digit_limit(tmp_path, monkeypatch):
    # GW(p2; 200) has 1227 digits, past a 640-digit int/str limit: a row the
    # CLI wrote with the limit lifted loads again, a value computed under the
    # limit is written and loads again, and a write that fails leaves no trace
    key = InvariantKey("GW", "p2", (200,))
    value = gw_of("p2", (200,))
    w_key = InvariantKey("W", "p2", (200,))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        csv = _write(tmp_path / "big.csv", f"space,c1,l,value\np2,200,0,{value}\n")
        c1, c2, c3 = (str(tmp_path / name) for name in ("c1", "c2", "c3"))
        assert cli.main(["--cache-dir", c1, "ingest", "--surface", "p2", "--file", csv],
                        out=io.StringIO()) == 0
        sys.set_int_max_str_digits(640)
        assert Store(cache_dir=c1).lookup(w_key) == value
        assert Store(cache_dir=c2).get_or_compute(key) == value
        assert Store(cache_dir=c2).lookup(key) == value
        store = Store(cache_dir=c3)
        monkeypatch.setattr(store_mod, "csv_row", mock.Mock(side_effect=OSError("full")))
        with pytest.raises(OSError):
            store.get_or_compute(key)
        assert store.lookup(key) is None and os.listdir(c3) == []
    finally:
        sys.set_int_max_str_digits(limit)


def test_messages_pass_the_digit_limit(tmp_path):
    # under a 640-digit int/str limit, conflicting cache rows with a
    # 1001-digit value or class entry are a CacheError naming file and line,
    # and an ingest row that breaks the parity of the 1227-digit GW(p2; 200)
    # is rejected, not a ValueError
    big, total = 10 ** 1000, gw_of("p2", (200,))
    value, entry = tmp_path / "value", tmp_path / "entry"
    csv = _write(tmp_path / "w.csv", "space,c1,l,value\np2,200,0,1\n")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        for cache, rows in ((value, f"GW,200,0,{big + 1}\nGW,200,0,{big + 3}\n"),
                            (entry, f"GW,{big},0,1\nGW,{big},0,3\n")):
            cache.mkdir()
            _write(cache / "p2.store", rows)
        want = [f"{value / 'p2.store'}:2: (GW p2 (200) l=0) is {big + 1}, not {big + 3}",
                f"{entry / 'p2.store'}:2: (GW p2 ({big}) l=0) is 1, not 3"]
        parity = f"parity of 1 conflicts with complex count {str(total)[:3]}…(1227 digits)"
        sys.set_int_max_str_digits(640)
        errors = []
        for cache in (value, entry):
            with pytest.raises(CacheError) as err:
                Store(cache_dir=str(cache), load_fixtures=False)
            errors.append(str(err.value))
        report = Store(load_fixtures=False).ingest_csv(csv, "p2")
    finally:
        sys.set_int_max_str_digits(limit)
    assert errors == want
    assert report.inserted == 0 and report.rejected == [(2, parity)]
