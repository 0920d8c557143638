"""Each demo script runs to completion in a fresh interpreter, and the
README's examples print what the README says they print."""

import doctest
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest

from pezzo.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("PEZZO_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_every_demo_is_collected():
    assert DEMOS


def test_readme_library_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted and not result.failed


def test_readme_command_values(monkeypatch):
    # each "pezzo ... # -> N" line: N is the last line the command prints
    monkeypatch.delenv("PEZZO_CACHE_DIR", raising=False)
    text = README.read_text(encoding="utf-8")
    commands = re.findall(r"^pezzo (.*?)\s+# -> (-?\d+)", text, re.M)
    assert len(commands) == 5
    for argv, want in commands:
        out = io.StringIO()
        assert main(argv.split(), out=out) == 0, argv
        assert out.getvalue().splitlines()[-1] == want, argv
