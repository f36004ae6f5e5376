#!/usr/bin/env python3
"""Run the benchmark in alternating pairs, base commit against working tree.

Usage: python3 scripts/bench_pair.py --base REF --out BENCH_name.json [--trace]

Run it from the repository root.  Both sides are unpacked the same way,
with ``git archive``, into sibling temporary directories (so no worktree
is registered in the repository): the base side from the tree of ``REF``,
the change side from a snapshot of the working tree.  The snapshot is a
tree written through a scratch index, so it holds tracked edits and
untracked files that are not ignored, and the repository's own index is
left as it is.  Both sides run their own ``perfbench/run.py`` with
BENCHMARK.json's ``run_seconds``; ``perfbench/`` and BENCHMARK.json must
be the same in both trees, since ``perfbench/reference.json`` decides
which outputs are correct.  Every workload in BENCHMARK.json gets 10
pairs; pair ``i`` uses seed ``701 + i`` on both sides, and the side that
runs first alternates from pair to pair.  ``--trace`` adds one traced run
per side and workload, for the per-layer metrics.

The JSON written to ``--out`` holds, per workload and end-to-end metric,
each side's runs, median and quartiles, the ratio of medians (change over
base), the pairs the change won (ties count for neither side), and whether
the gain rule holds: at least nine tenths of the pairs won and the medians
apart by more than the base's interquartile range.  It also records the
host (nproc, CPU model, Python, from ``run.py``'s run record), the base
commit and both trees, and the commit checked out (``head``).
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())
PAIRS = 10
FIRST_SEED = 701


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()


def snapshot() -> str:
    """The working tree as a tree id: tracked edits and untracked files
    that are not ignored, added to a scratch index, not the repository's."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("add", "--all", env=env)
        return git("write-tree", env=env)


def unpack(tree: str, into: Path) -> None:
    data = subprocess.run(
        ["git", "archive", "--format=tar", tree], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def run(root: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
            str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n"
                         + proc.stderr)
    lines = proc.stdout.splitlines()
    record = next(json.loads(line.removeprefix("run record: "))
                  for line in lines if line.startswith("run record: "))
    result = json.loads(lines[-1])
    return {
        "host": {k: record[k] for k in ("nproc", "cpu_model", "python")},
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(base: list[float], change: list[float], better: str) -> dict:
    sign = 1 if better == "lower" else -1
    won = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    lost = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b, c = summary(base), summary(change)
    return {
        "base": b,
        "change": c,
        "ratio_of_medians": c["median"] / b["median"],
        "pairs": len(base),
        "pairs_won": won,
        "pairs_lost": lost,
        "gain_rule_holds": won >= 0.9 * len(base)
        and sign * (b["median"] - c["median"]) > b["q3"] - b["q1"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    report = {
        "host": None,
        "base_commit": git("rev-parse", args.base),
        "base_tree": git("rev-parse", f"{args.base}^{{tree}}"),
        "change_tree": snapshot(),
        "head": git("rev-parse", "HEAD"),
        "seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    if subprocess.run(["git", "diff", "--quiet", report["base_tree"],
                       report["change_tree"], "--", "perfbench", "BENCHMARK.json"]
                      ).returncode != 0:
        raise SystemExit("perfbench/ or BENCHMARK.json differ between the sides")
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in ("base", "change")}
        for side in sides:
            unpack(report[f"{side}_tree"], sides[side])
        for workload in (w["name"] for w in SPEC["workloads"]):
            runs = {"base": [], "change": []}
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run(sides[side], workload, FIRST_SEED + i, 0))
                print(f"{workload} pair {i + 1}/{PAIRS}: " + ", ".join(
                    f"{s} wall_s {runs[s][-1]['metrics']['wall_s']:.3f}" for s in order),
                    file=sys.stderr)
            report["host"] = runs["change"][0]["host"]
            entry = {
                "seeds": [FIRST_SEED, FIRST_SEED + PAIRS - 1],
                "all_correct": all(r["correct"] for s in runs for r in runs[s]),
                "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
                "metrics": {
                    name: compare([r["metrics"][name] for r in runs["base"]],
                                  [r["metrics"][name] for r in runs["change"]],
                                  better[name])
                    for name in better
                },
            }
            if args.trace:
                entry["traced"] = {
                    side: run(sides[side], workload, FIRST_SEED, 1)
                    for side in ("base", "change")
                }
            report["workloads"][workload] = entry
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:<8} {name:<14} base {m['base']['median']:.4g} "
                  f"change {m['change']['median']:.4g} "
                  f"ratio {m['ratio_of_medians']:.3f} "
                  f"won {m['pairs_won']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
