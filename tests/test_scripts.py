"""The scripts under ``scripts/`` run against the package as it is."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def run_script(name: str, *args: str) -> str:
    proc = script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_checks_all_hold():
    out = run_script("run_checks.py", "--kmax", "2", "--nmax", "5",
                     "--tamari-nmax", "5")
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(r["verdict"] == "holds" for r in rows)


def test_run_checks_over_cap_fails_like_the_cli():
    proc = script("run_checks.py", "--kmax", "41")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("hookcomb: ") and "k <= 40" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_fit_growth_runs():
    assert "growth:" in run_script("fit_growth.py", "--lo", "50", "--hi", "110")


def test_make_figures_writes_svgs(tmp_path):
    run_script("make_figures.py", str(tmp_path))
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == [
        "path_UDEUEUDD.svg", "vhc_3215647.svg", "vhc_324156.svg",
    ]
