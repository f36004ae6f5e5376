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


def test_make_figures_writes_svgs(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_figures.py"), str(tmp_path)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == [
        "path_UDEUEUDD.svg", "vhc_3215647.svg", "vhc_324156.svg",
    ]



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
def compare(monkeypatch):
    """``bench_pair.compare``; the module reads BENCHMARK.json from the
    working directory when it is imported."""
    monkeypatch.chdir(ROOT)
    spec = importlib.util.spec_from_file_location(
        "bench_pair", ROOT / "scripts" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


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
