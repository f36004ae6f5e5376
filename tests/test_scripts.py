"""The scripts under ``scripts/``, and the check run README gives in their
place, run against the package as it is."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_run_checks_all_hold():
    """The three ``check`` commands README lists, at small sizes, report
    every suite and every verdict holds."""
    rows = []
    for args in (["eq2", "--kmax", "2", "--nmax", "5"],
                 ["tamari", "--nmax", "5"],
                 ["conjectures", "--kmax", "2", "--nmax", "5"]):
        proc = subprocess.run(
            [sys.executable, "-m", "hookcomb", "check", "--suite", *args],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.returncode == 0, proc.stderr
        rows += [json.loads(line) for line in proc.stdout.splitlines()]
    assert rows and all(r["verdict"] == "holds" for r in rows)

@pytest.fixture
def bench_pair(monkeypatch):
    """``scripts/bench_pair.py`` as a module; it reads BENCHMARK.json from
    the working directory when it is imported."""
    monkeypatch.chdir(ROOT)
    spec = importlib.util.spec_from_file_location(
        "bench_pair", ROOT / "scripts" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compare(bench_pair):
    return bench_pair.compare


def test_snapshot_holds_the_working_tree_and_leaves_the_index(
        bench_pair, tmp_path, monkeypatch):
    """An edit and an untracked file land in the snapshot tree, an ignored
    file does not, and ``git status`` reads the same afterwards."""
    monkeypatch.chdir(tmp_path)
    git = bench_pair.git
    git("init", "-q")
    (tmp_path / ".gitignore").write_text("ignored.txt\n")
    (tmp_path / "tracked.txt").write_text("old\n")
    git("add", ".gitignore", "tracked.txt")
    git("-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
        "commit", "-q", "-m", "base")
    (tmp_path / "tracked.txt").write_text("edited\n")
    (tmp_path / "new.txt").write_text("untracked\n")
    (tmp_path / "ignored.txt").write_text("ignored\n")
    status = git("status", "--porcelain")

    tree = bench_pair.snapshot()

    assert git("status", "--porcelain") == status
    assert git("ls-tree", "--name-only", tree).splitlines() == [
        ".gitignore", "new.txt", "tracked.txt"]
    assert git("show", f"{tree}:tracked.txt") == "edited"
    assert git("show", f"{tree}:new.txt") == "untracked"
    unpacked = tmp_path / "unpacked"
    bench_pair.unpack(tree, unpacked)
    assert (unpacked / "tracked.txt").read_text() == "edited\n"


def test_gain_rule_ties_count_for_neither_side(compare):
    base = [10.0] * 10
    change = [10.0] * 5 + [9.0] * 3 + [11.0] * 2
    result = compare(base, change, "lower")
    assert (result["pairs_won"], result["pairs_lost"]) == (3, 2)
    assert not result["gain_rule_holds"]
    assert compare(base, base, "lower")["pairs_won"] == 0


def test_gain_rule_needs_nine_of_ten_pairs(compare):
    base = [10.0] * 10  # no spread, so only the pair count can decide
    nine = compare(base, [5.0] * 9 + [10.0], "lower")
    assert nine["pairs_won"] == 9 and nine["gain_rule_holds"]
    eight = compare(base, [5.0] * 8 + [10.0] * 2, "lower")
    assert eight["pairs_won"] == 8 and not eight["gain_rule_holds"]
    higher = compare(base, [15.0] * 9 + [10.0], "higher")
    assert higher["pairs_won"] == 9 and higher["gain_rule_holds"]


def test_gain_rule_needs_medians_apart_by_more_than_the_base_iqr(compare):
    base = [8.0, 9.0, 10.0, 11.0, 12.0] * 2  # median 10, quartiles 9 and 11
    quartiles = compare(base, base, "lower")["base"]
    assert (quartiles["q1"], quartiles["q3"]) == (9.0, 11.0)
    close = compare(base, [b - 1.5 for b in base], "lower")
    assert close["pairs_won"] == 10 and not close["gain_rule_holds"]
    apart = compare(base, [b - 2.5 for b in base], "lower")
    assert apart["pairs_won"] == 10 and apart["gain_rule_holds"]
