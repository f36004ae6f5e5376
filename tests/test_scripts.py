"""The scripts under ``scripts/``, and the check run README gives in their
place, run against the package as it is."""

import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hookcomb

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


@pytest.fixture
def measure_caps():
    spec = importlib.util.spec_from_file_location(
        "measure_caps", ROOT / "scripts" / "measure_caps.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cap_keys() -> dict:
    """Every cap key ``(module, name, key)`` with its ``(value, cost)``:
    the module-level names ending in ``_LIMIT`` in every module of the
    package, each one pair or a dict of pairs (``key`` is None for a pair)."""
    caps = {}
    for module in (info.name for info in pkgutil.iter_modules(hookcomb.__path__)):
        for name, limit in vars(importlib.import_module(f"hookcomb.{module}")).items():
            if name.endswith("_LIMIT"):
                pairs = limit.items() if isinstance(limit, dict) else [(None, limit)]
                caps.update(((module, name, key), pair) for key, pair in pairs)
    return caps


def size_cap_rows() -> dict:
    """README's Size caps table as ``{cap: (module, value, cost)}``, the cap
    and module cells without their backticks."""
    section = (ROOT / "README.md").read_text().split("\n## Size caps\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 5 and cells[0].startswith("`"):
            cap, module, _, value, cost = cells
            assert cap not in rows, f"two rows for {cap}"
            rows[cap.strip("`")] = (module.strip("`"), value, cost)
    return rows


def test_every_cap_has_one_readme_row_and_one_script_entry(measure_caps):
    """Each cap key has a row in README's Size caps table with its module,
    its value and its cost text verbatim, each row names a cap, and
    ``scripts/measure_caps.py`` has commands for every cap and no other.
    The cost names the value, so a changed value needs a re-measured cost."""
    caps = cap_keys()
    labels = {measure_caps.label(cap): cap for cap in caps}
    rows = size_cap_rows()
    assert labels.keys() - rows.keys() == set(), "caps with no README row"
    assert rows.keys() - labels.keys() == set(), "README rows that name no cap"
    for text, cap in labels.items():
        value, cost = caps[cap]
        assert rows[text] == (cap[0], str(value), cost), text
        assert re.search(rf"(?<!\d)(?<!\d\.){value}(?!\d|\.\d)", cost), text
        assert measure_caps.limit(cap) == (value, cost)
    assert set(measure_caps.COMMANDS) == set(caps)
    for at_cap, past in measure_caps.COMMANDS.values():
        assert at_cap and all("{n}" in command for command in [*at_cap, past])


def test_measure_caps_raises_the_cap_in_its_child(measure_caps):
    """The step past a cap runs in a child that raises the cap; without
    the raise the same command is refused."""
    cap = ("vhc", "_EXHAUSTIVE_LIMIT", 2)
    command = "hookcomb count --pattern 21 --n 2001"
    seconds, peak = measure_caps.run_once(cap, command, 2001)
    assert seconds > 0 and peak > 0
    with pytest.raises(RuntimeError, match="capped at n <= 2000"):
        measure_caps.run_once(cap, command)
