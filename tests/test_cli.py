import hashlib
import io
import os
import subprocess
import sys
import time

import pytest

from pezzo import cli, floor
from pezzo.cli import main
from pezzo.gw import gw_surface
from pezzo.tables import gw_deg6_table


def run(argv, env_cache=None, monkeypatch=None):
    out = io.StringIO()
    if env_cache is not None and monkeypatch is not None:
        monkeypatch.setenv("PEZZO_CACHE_DIR", env_cache)
    code = main(argv, out=out)
    return code, out.getvalue()


def test_gw3_values():
    assert run(["gw3", "--family", "deg6", "--class", "3,3,3"]) == (0, "728\n")
    assert run(["gw3", "--family", "deg6", "--class", "4,4,4"]) == (0, "359136\n")
    assert run(["gw3", "--family", "deg6", "--class", "3,1,1"]) == (0, "0\n")
    assert run(["gw3", "--family", "deg8", "--class", "1"]) == (0, "1\n")


def test_w3_values():
    assert run(["w3", "--family", "deg7", "--class", "5,0", "--pairs", "0"]) == (0, "45\n")
    assert run(["w3", "--family", "deg6", "--class", "3,3,3", "--pairs", "0"]) == (0, "216\n")


def test_w3_fixture_column():
    code, text = run(["w3", "--family", "deg7", "--class", "5,2", "--pairs", "2"])
    assert (code, text) == (0, "-4\n")


def test_w3_twisted_needs_ingestion(tmp_path, capsys):
    code, text = run(["w3", "--family", "deg6t", "--class", "1,1", "--pairs", "0"])
    assert code == 2 and text == "?\n"
    assert capsys.readouterr().err == "missing: (W qx2t (1,0,1) l=0)\n"
    csv = tmp_path / "twist.csv"
    csv.write_text("space,c1,c2,c3,l,value\nqx2t,1,0,1,0,1\n", encoding="utf-8")
    cache = str(tmp_path / "cache")
    code, text = run(["--cache-dir", cache, "ingest", "--surface", "qx2t",
                      "--file", str(csv)])
    assert code == 0 and "inserted 1" in text
    code, text = run(["--cache-dir", cache, "w3", "--family", "deg6t",
                      "--class", "1,1", "--pairs", "0"])
    assert (code, text) == (0, "-1\n")


def test_gw2_and_w2():
    assert run(["gw2", "--surface", "qx2", "--class", "4,4,1,3"]) == (0, "87304\n")
    assert run(["w2", "--surface", "p2", "--class", "3", "--pairs", "0"]) == (0, "8\n")
    assert run(["w2", "--surface", "p2", "--class", "4", "--pairs", "3"]) == (0, "40\n")


def test_w2_pair_count_bounded(capsys):
    # degree 3 passes through 8 points: at most 4 conjugate pairs
    assert run(["w2", "--surface", "p2", "--class", "3", "--pairs", "7"]) == (1, "")
    assert capsys.readouterr().err == "error: p2(3,): pairs 7 outside 0..4\n"


def test_w2_without_newton_polygon_needs_ingestion(capsys):
    # p2x2 has no Newton polygon, so even its totally real count is ingested
    assert run(["w2", "--surface", "p2x2", "--class", "4,1,1"]) == (2, "?\n")
    assert capsys.readouterr().err == "missing: (W p2x2 (4,1,1) l=0)\n"


def test_w2_dump_without_newton_polygon(capsys):
    # no diagrams to dump: the flag is an input error on every such space
    for surface, cls in (("p2x1", "3,1"), ("qx2t", "1,0,1")):
        argv = ["w2", "--surface", surface, "--class", cls, "--dump-diagrams"]
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == f"error: no Newton polygon for surface {surface!r}\n"


def test_cache_row_cannot_override_a_fixture(tmp_path, capsys):
    # 42 passes the parity and bound checks, but the bundled W(p2; 4, l=3) is 40
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "p2.store").write_text("W,4,3,42\n", encoding="utf-8")
    argv = ["--cache-dir", str(cache), "w2", "--surface", "p2", "--class", "4", "--pairs", "3"]
    assert run(argv) == (1, "")
    err = capsys.readouterr().err
    assert err == f"error: {cache / 'p2.store'}:1: (W p2 (4) l=3) is 40, not 42\n"


def test_w3_rejects_stored_value_breaking_the_bound(tmp_path, capsys):
    # GW(q; 1,2) = 1, so a stored W of 5 cannot be served; the true w3 is -1
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "q.store").write_text("W,1,2,0,5\n", encoding="utf-8")
    code, text = run(["--cache-dir", str(cache), "w3", "--family", "deg8", "--class", "3"])
    assert (code, text) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(W q (1,2) l=0)" in err
    (cache / "q.store").write_text("W,1,2,0,1\n", encoding="utf-8")
    assert run(["--cache-dir", str(cache), "w3", "--family", "deg8", "--class", "3"]) == (0, "-1\n")


def test_w2_rejects_stored_value_breaking_the_bound(tmp_path, capsys):
    # GW(q; 3,1) = GW(q; 1,3) = 1, so a stored W of 5 cannot be served
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "q.store").write_text("W,3,1,0,5\n", encoding="utf-8")
    argv = ["--cache-dir", str(cache), "w2", "--surface", "q", "--class", "3,1"]
    assert run(argv) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(W q (1,3) l=0)" in err
    (cache / "q.store").write_text("W,3,1,0,1\n", encoding="utf-8")
    assert run(argv) == (0, "1\n")


def test_dump_diagrams():
    code, text = run(["gw2", "--surface", "p2", "--class", "2", "--dump-diagrams"])
    assert code == 0
    lines = text.splitlines()
    assert lines[-1] == "1"
    assert lines[0].startswith("floors=2 ")


def test_dump_diagrams_enumerates_once(monkeypatch):
    calls = []
    enumerate_diagrams = floor.enumerate_diagrams

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_diagrams(*args, **kwargs)

    monkeypatch.setattr(floor, "enumerate_diagrams", counting)
    code, text = run(["gw2", "--surface", "qx2", "--class", "3,3,1,2", "--dump-diagrams"])
    assert code == 0 and len(calls) == 1
    # 31 diagrams, then the recursion's count 620, byte for byte as printed
    # when the dump printed its own floor sum
    assert text.splitlines()[-1] == "620"
    assert hashlib.md5(text.encode()).hexdigest() == "fd01e9451201cc4e38bf6660dffa6a5e"


@pytest.mark.parametrize("command, last, digest", [
    ("gw2", "401172", "32a4babe0a140b56c87d62e1a5e0dfa0"),
    ("w2", "71360", "fe1209cdb69a32bbe893ee62122a1c54"),
])
def test_dump_keeps_the_class_polygon(command, last, digest):
    # W of qx2 (5,5;3,4) is counted on its orbit mate (3,5;1,2), but the dump
    # lists the class's own 1346 diagrams, byte for byte as when W was
    # counted on them
    argv = [command, "--surface", "qx2", "--class", "5,5,3,4", "--dump-diagrams"]
    code, text = run(argv)
    assert code == 0 and text.splitlines()[-1] == last
    assert hashlib.md5(text.encode()).hexdigest() == digest


def _floor_sum(dump_lines) -> int:
    """Sum of decorations * markings * prod(w^2 over edges) over dump lines."""
    total = 0
    for line in dump_lines:
        fields = dict(token.split("=", 1) for token in line.split())
        term = int(fields["decorations"]) * int(fields["markings"])
        if fields["edges"] != "-":
            for edge in fields["edges"].split(","):
                term *= int(edge.rsplit(":", 1)[1]) ** 2
        total += term
    return total


@pytest.mark.parametrize("surface, cls", [("p2", (2,)), ("qx2", (3, 3, 1, 2)), ("q", (3, 6))])
def test_gw2_dump_prints_the_recursion_count(surface, cls):
    argv = ["gw2", "--surface", surface, "--class", ",".join(map(str, cls))]
    code, text = run(argv + ["--dump-diagrams"])
    *dumped, last = text.splitlines()
    assert code == 0 and dumped
    assert run(argv) == (0, last + "\n")
    assert int(last) == gw_surface(surface, cls) == _floor_sum(dumped)


def test_gw2_large_blowup_class_in_budget():
    # the recursion over every splitting (tests/oracles.py) took 7-11 s on 2 vCPUs
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pezzo.cli", "gw2", "--surface", "p2x3", "--class", "24,7,7,7"],
        capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (
        0, "12610600368907269249977375895402133525029865990825433762131200\n"), proc.stderr
    assert elapsed < 5, elapsed


def test_usage_errors():
    code, _ = run(["gw3", "--family", "deg9", "--class", "1"])
    assert code == 1
    code, _ = run(["gw3", "--family", "deg6", "--class", "3,x,3"])
    assert code == 1
    code, _ = run(["w3", "--family", "deg6", "--class", "3,3,3", "--pairs", "99"])
    assert code == 1
    code, _ = run(["gw3", "--family", "deg6t", "--class", "1,1"])
    assert code == 1


@pytest.mark.parametrize("exc", [MemoryError, RecursionError, OverflowError])
def test_running_out_of_resources_is_one_error_line(monkeypatch, capsys, exc):
    def exhausted(*args):
        raise exc()

    monkeypatch.setattr(cli, "gw_threefold", exhausted)
    assert run(["gw3", "--family", "deg6", "--class", "3,3,3"]) == (1, "")
    assert capsys.readouterr().err == f"error: out of resources ({exc.__name__})\n"


@pytest.mark.parametrize("family, cls", [
    ("deg8", "99999999999999999999"),
    ("deg7", "99999999999999999999,0"),
    ("deg6", "99999999999999999999,1,1"),
])
def test_class_past_the_index_size_is_one_error_line(capsys, family, cls):
    # the fiber of such a class has more members than a sequence can index
    assert run(["gw3", "--family", family, "--class", cls]) == (1, "")
    assert capsys.readouterr().err == "error: out of resources (OverflowError)\n"


def test_capped_child_runs_out_of_memory_with_one_error_line():
    # under a 100 MB address-space cap (set in the child only) this count
    # runs out of memory in about 2 s on 2 vCPUs.  A suspended generator
    # closed while memory is exhausted can fail to close, and Python then
    # reports it on stderr ("Exception ignored in ..."), so only the error
    # line is pinned here; the in-process test pins the whole of stderr.
    resource = pytest.importorskip("resource")
    cap = 100 << 20
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PEZZO_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pezzo.cli", "w2", "--surface", "qx2", "--class", "9,9,1,1"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: out of resources (MemoryError)"], proc.stderr


def test_table_deterministic_and_reingestable(tmp_path):
    code1, text1 = run(["table", "gw-deg6", "--max-sum", "9", "--format", "md"])
    code2, text2 = run(["table", "gw-deg6", "--max-sum", "9", "--format", "md"])
    assert code1 == code2 == 0
    assert text1 == text2
    assert "| (3,3,3) | 728 | (3,3;0,3) | 3 | 12 |" in text1

    code, csv_text = run(["table", "gw-deg6", "--max-sum", "9", "--format", "csv"])
    assert code == 0
    path = tmp_path / "gw.csv"
    path.write_text(csv_text, encoding="utf-8")
    code, out = run(["ingest", "--surface", "deg6-gw", "--file", str(path)])
    assert code == 0
    assert "rejected" not in out
    rows = [line for line in csv_text.splitlines() if line.startswith("deg6-gw")]
    assert f"inserted {len(rows)} row(s)" in out


def test_table_defaults_come_from_the_table_functions():
    code, text = run(["table", "gw-deg6"])
    assert (code, text) == (0, gw_deg6_table()[0])
    # a bound flag the table does not take is ignored
    assert run(["table", "gw-deg6", "--max-d", "3", "--max-a", "1"]) == (0, text)


@pytest.fixture
def digit_limit():
    # main lifts the interpreter-wide int/str digit limit; put it back
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    yield
    if old is not None:
        sys.set_int_max_str_digits(old)


def test_gw2_prints_counts_past_digit_limit(monkeypatch, digit_limit):
    monkeypatch.setattr("pezzo.cli.gw_surface", lambda surface, cls: 10 ** 5000)
    code, text = run(["gw2", "--surface", "p2", "--class", "600"])
    assert code == 0 and text == "1" + "0" * 5000 + "\n"


def test_ingest_huge_value_rejected_by_bound(tmp_path, capsys, digit_limit):
    path = tmp_path / "huge.csv"
    path.write_text("space,c1,l,value\np2,3,0," + "9" * 5000 + "\n", encoding="utf-8")
    code, text = run(["--cache-dir", str(tmp_path / "cache"), "ingest",
                      "--surface", "p2", "--file", str(path)])
    assert (code, text) == (0, "inserted 0 row(s)\n")
    err = capsys.readouterr().err
    assert err.startswith("rejected line 2: |") and "exceeds complex count 12" in err


def test_ingest_rejection_shortens_long_counts(tmp_path, capsys, digit_limit):
    # GW(p2; 200) has 1227 digits; the rejection shows its first three and its length
    path = tmp_path / "p2.csv"
    path.write_text("space,c1,l,value\np2,200,0,1\n", encoding="utf-8")
    code, text = run(["--cache-dir", str(tmp_path / "cache"), "ingest", "--surface", "p2",
                      "--file", str(path)])
    assert (code, text) == (0, "inserted 0 row(s)\n")
    err = capsys.readouterr().err
    assert err == "rejected line 2: parity of 1 conflicts with complex count 107…(1227 digits)\n"
    assert len(err.encode()) < 120


def test_ingest_rejects_400000_digit_value_fast(tmp_path, capsys, digit_limit):
    path = tmp_path / "huge.csv"
    path.write_text("space,c1,l,value\np2,3,0," + "9" * 400000 + "\n", encoding="utf-8")
    argv = ["--cache-dir", str(tmp_path / "cache"), "ingest", "--surface", "p2",
            "--file", str(path)]
    start = time.perf_counter()
    code, text = run(argv)
    elapsed = time.perf_counter() - start
    assert (code, text) == (0, "inserted 0 row(s)\n")
    err = capsys.readouterr().err
    assert err == "rejected line 2: |999…(400000 digits)| exceeds complex count 12\n"
    assert len(err.encode()) < 200 and elapsed < 0.5, elapsed


def test_ingest_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "no_such.csv")
    code, text = run(["--cache-dir", str(tmp_path / "cache"), "ingest",
                      "--surface", "p2", "--file", missing])
    assert (code, text) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err and "Traceback" not in err


def test_ingest_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_bytes(b"space,c1,l,value\np2,\xff3,0,8\n")
    code, text = run(["--cache-dir", str(tmp_path / "cache"), "ingest",
                      "--surface", "p2", "--file", str(path)])
    assert (code, text) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: not UTF-8") and "Traceback" not in err


def test_torn_cache_does_not_brick_the_cli(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "q.store").write_bytes(b"W,2,2,0,8\nW,1,")
    code, text = run(["--cache-dir", str(cache), "w2", "--surface", "q",
                      "--class", "1,2", "--pairs", "0"])
    assert (code, text) == (0, "1\n")
    assert "warning: " in capsys.readouterr().err
    assert (cache / "q.store").read_bytes() == b"W,2,2,0,8\nW,1,2,0,1\n"
    code, _ = run(["--cache-dir", str(cache), "cache", "info"])
    assert code == 0 and capsys.readouterr().err == ""


def test_cache_clear_skips_loading(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "p2.store").write_bytes(b"W,1,\nW,3,0,8\n")
    code, text = run(["--cache-dir", str(cache), "cache", "info"])
    assert (code, text) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cache / 'p2.store'}:1: ") and "Traceback" not in err
    code, text = run(["--cache-dir", str(cache), "cache", "clear"])
    assert (code, text) == (0, "removed 1 cache file(s)\n")
    assert os.listdir(cache) == []
    assert run(["--cache-dir", str(cache), "cache", "info"])[0] == 0


def test_complex_counts_ignore_a_damaged_cache(tmp_path, capsys):
    # gw2 and gw3 read no stored value, so they build no Store; the commands
    # that read the cache still name its bad row
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "p2.store").write_bytes(b"W,3,0,x\n")
    base = ["--cache-dir", str(cache)]
    assert run(base + ["gw2", "--surface", "p2", "--class", "3"]) == (0, "12\n")
    assert run(base + ["gw3", "--family", "deg8", "--class", "1"]) == (0, "1\n")
    assert capsys.readouterr().err == ""
    for argv in (["w2", "--surface", "p2", "--class", "3"], ["cache", "info"]):
        assert run(base + argv) == (1, "")
        assert capsys.readouterr().err.startswith(f"error: {cache / 'p2.store'}:1: bad row ")
    assert (cache / "p2.store").read_bytes() == b"W,3,0,x\n"


def test_table_w_deg7_grid():
    code, text = run(["table", "w-deg7", "--max-d", "3"])
    assert code == 2  # rows with pairs need data beyond the fixture
    assert "| 0 | -1 | 1 | 0 | 0 |" in text
    assert "?" in text


def test_table_w_deg7_csv_roundtrip(tmp_path):
    code, csv_text = run(["table", "w-deg7", "--max-d", "5", "--format", "csv"])
    assert code == 2
    path = tmp_path / "w7.csv"
    path.write_text(csv_text, encoding="utf-8")
    code, out = run(["ingest", "--surface", "deg7", "--file", str(path)])
    assert code == 0
    rows = [line for line in csv_text.splitlines() if line.startswith("deg7")]
    assert f"inserted {len(rows)} row(s)" in out


def test_table_warm_cache_identical(tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    _, cold = run(["--cache-dir", cache, "table", "w-deg6", "--max-sum", "7"])
    _, warm = run(["--cache-dir", cache, "table", "w-deg6", "--max-sum", "7"])
    assert cold == warm
    assert os.path.isdir(cache)


def test_cache_commands(tmp_path):
    cache = str(tmp_path / "cache")
    run(["--cache-dir", cache, "gw3", "--family", "deg6", "--class", "2,2,2"])
    code, text = run(["--cache-dir", cache, "w2", "--surface", "q",
                      "--class", "2,2", "--pairs", "0"])
    assert code == 0
    code, text = run(["--cache-dir", cache, "cache", "info"])
    assert code == 0 and cache in text
    code, text = run(["--cache-dir", cache, "cache", "clear"])
    assert code == 0 and "removed" in text
    assert not [p for p in os.listdir(cache) if p.endswith(".store")]


def test_cache_info_counts_only_cache_files(tmp_path):
    # the bundled fixtures are loaded by every store but live in no cache file
    cache = str(tmp_path / "cache")
    assert run(["--cache-dir", cache, "cache", "info"]) == (0, f"cache dir: {cache}\n")
    code, text = run(["--cache-dir", cache, "w2", "--surface", "qx2", "--class", "3,3,1,2"])
    assert code == 0
    code, text = run(["--cache-dir", cache, "cache", "info"])
    assert (code, text) == (0, f"cache dir: {cache}\nqx2: 1 entries\n")


def test_real_point_cut_reads_the_cut_zero_value(tmp_path, monkeypatch):
    # qx1 (4,5;1) has a real blown-up point at its cut of 1: it is served the
    # stored (4,5;0) value without a count, and only the two keys asked for
    # reach the cache
    cache = str(tmp_path / "cache")
    code, text = run(["--cache-dir", cache, "w2", "--surface", "qx1", "--class", "4,5,0"])
    assert code == 0

    def no_count(pc):
        raise AssertionError(f"counted {pc.class_vec}")

    monkeypatch.setattr(floor, "fd_count_real_l0", no_count)
    assert run(["--cache-dir", cache, "w2", "--surface", "qx1", "--class", "4,5,1"]) == (0, text)
    info = run(["--cache-dir", cache, "cache", "info"])
    assert info == (0, f"cache dir: {cache}\nqx1: 2 entries\n")
    value = text.strip()
    with open(os.path.join(cache, "qx1.store"), encoding="utf-8") as fh:
        assert fh.read() == f"W,4,5,0,0,{value}\nW,4,5,1,0,{value}\n"


def test_twisted_cuts_are_not_real_points():
    # the qx2t cuts are a conjugate pair of blown-up points, not real ones:
    # the real-point rule leaves w-deg6t's ? cells as they were
    code, text = run(["table", "w-deg6t"])
    assert code == 2
    assert hashlib.md5(text.encode()).hexdigest() == "39dadb7ee4c2d3f01bf147a7f2272b23"


def test_table_empty_csv(tmp_path):
    # a table with no column prints its header alone, and that re-ingests
    for argv, token, header in (
        (["w-deg7", "--max-d", "0"], "deg7", "space,c1,c2,l,value\n"),
        (["w-deg6", "--max-sum", "0"], "deg6", "space,c1,c2,c3,l,value\n"),
        (["w-deg6t", "--max-a", "0"], "deg6t", "space,c1,c2,l,value\n"),
        (["gw-deg6", "--max-sum", "0"], "deg6-gw", "space,c1,c2,c3,l,value\n"),
    ):
        assert run(["table", *argv, "--format", "csv"]) == (0, header)
        path = tmp_path / f"{token}.csv"
        path.write_text(header, encoding="utf-8")
        assert run(["ingest", "--surface", token, "--file", str(path)]) \
            == (0, "inserted 0 row(s)\n")


def test_env_cache_dir(tmp_path, monkeypatch):
    cache = str(tmp_path / "envcache")
    monkeypatch.setenv("PEZZO_CACHE_DIR", cache)
    code, _ = run(["w2", "--surface", "q", "--class", "1,2", "--pairs", "0"])
    assert code == 0
    assert os.path.isdir(cache)
    assert any(p.endswith(".store") for p in os.listdir(cache))
