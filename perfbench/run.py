"""The hookcomb benchmark: real CLI commands, timed end to end, with a
separate traced run for the layers underneath.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

Run it from the repository root; it imports nothing from the program and
starts every command as ``python3 -m hookcomb ...`` (through ``launch.py``,
which also reports the process's peak RSS) with ``PYTHONPATH=src``, one
process at a time (a closed loop with one client).  Fresh processes
also keep hookcomb's ``lru_cache``s from carrying over between commands.

``--trace 0`` runs the workload's commands round after round until the
next round would end past ``--seconds`` (at least one round) and reports
the end-to-end metrics from per-command medians.  ``--trace 1`` runs one
plain round and one traced round (see ``tracer.py``) and reports the
per-layer metrics.  ``--quick`` runs every workload once at tiny sizes, in
both modes, and fails unless every metric named in ``BENCHMARK.json`` is
emitted and every output is correct.

Every output is checked (see ``workloads.py``).  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import launch  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_STARTS = 11
COMMAND_TIMEOUT_S = 150
RUN_DIR = Path(".perfbench_run")

#: per-layer function metrics: (span name, what each of its counters means)
FUNCTION_METRICS = {
    "walks.count_walks": {"calls": "calls", "items": "entries"},
    "walks.vhc312_count": {"calls": "calls"},
    "perm.avoiders": {"calls": "calls", "yields": "perms"},
    "vhc.enumerate_vhcs": {"calls": "calls", "yields": "configs"},
    "vhc.is_reduced": {},
    "maps.guard": {"calls": "calls"},
    "maps.revalidate": {"calls": "calls"},
    "maps.w_map": {},
    "maps.ll_map": {"calls": "calls"},
    "motzkin.enumerate_intervals": {"yields": "intervals"},
    "motzkin.leq": {"calls": "calls"},
    "experiments.real_rooted": {},
    "experiments.asymptotic_fit": {},
}
MODULES = ("cli", "perm", "vhc", "walks", "maps", "motzkin", "experiments")
SUBCOMMANDS = ("walks", "fit", "count", "check", "triangle", "intervals", "map")


class Runner:
    """Starts commands one at a time and tallies attempts and failures."""

    def __init__(self) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p
        )
        self.env["PYTHONHASHSEED"] = "0"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_kb = 0  # largest reported by launch.py

    def start(self, argv: list[str]) -> tuple[subprocess.CompletedProcess | None, float, float]:
        """Run ``python3 argv...``; returns the process, wall and CPU seconds."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], env=self.env,
                                  capture_output=True, timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return proc, wall, cpu

    def run(self, command: workloads.Command, argv: list[str], outputs: dict,
            launcher: list[str]) -> tuple[str, float, float]:
        """Run one command and check its output; a failure is counted."""
        proc, wall, cpu = self.start([*launcher, *argv])
        self.attempted += 1
        if proc is None:
            problems = [f"timed out after {COMMAND_TIMEOUT_S} s"]
            text = ""
        else:
            text = proc.stdout.decode("utf-8", "replace")
            stderr = proc.stderr.decode("utf-8", "replace")
            head, found, peak = stderr.rpartition(launch.MARK)
            if found:
                self.peak_rss_kb = max(self.peak_rss_kb, int(peak))
                stderr = head
            problems = [] if proc.returncode == 0 else [
                f"exit {proc.returncode}: {stderr.strip()}"]
            problems += command.check(text, outputs)
        if problems:
            self.failed += 1
            self.problems += [f"{command.key} ({' '.join(argv)}): {p}" for p in problems]
        return text, wall, cpu

    def round(self, commands, launcher=lambda key: [str(HERE / "launch.py")], argvs=None):
        """Run every command once, in order; returns per-key
        (argv, stdout, wall, cpu)."""
        outputs: dict[str, str] = {}
        results = {}
        for command in commands:
            argv = argvs[command.key] if argvs else command.argv(outputs)
            text, wall, cpu = self.run(command, argv, outputs, launcher(command.key))
            outputs[command.key] = text
            results[command.key] = (argv, text, wall, cpu)
        return results


def setup_seconds(runner: Runner) -> float:
    """Median wall time of a no-op start: interpreter plus
    ``import hookcomb.cli``, which loads every module."""
    starts = []
    for i in range(SETUP_STARTS + 1):
        proc, wall, _ = runner.start(["-c", "import hookcomb.cli"])
        if proc is None or proc.returncode != 0:
            raise SystemExit("hookcomb.cli does not import")
        if i:  # the first start may compile bytecode
            starts.append(wall)
    return statistics.median(starts)


def run_record(seed: int) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "loadavg_at_start": os.getloadavg(),
        "commit": commit,
        "seed": seed,
    }


def end_to_end(runner: Runner, commands, seconds: float) -> dict:
    """Rounds until the next would end past ``seconds``; metrics from
    per-command medians."""
    samples: dict[str, list[tuple[float, float]]] = {c.key: [] for c in commands}
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for key, (_, _, wall, cpu) in runner.round(commands).items():
            samples[key].append((wall, cpu))
        now = time.perf_counter()
        if now - t0 + (now - r0) > seconds:
            break
    wall = {k: statistics.median(w for w, _ in v) for k, v in samples.items()}
    cpu = {k: statistics.median(c for _, c in v) for k, v in samples.items()}
    for key, values in samples.items():
        walls = [w for w, _ in values]
        print(f"  {key:<20} median {wall[key]:8.4f} s  min {min(walls):8.4f}  "
              f"max {max(walls):8.4f}  n={len(walls)}")
    for name, value in per_command(commands, wall).items():
        if value:
            print(f"  {name:<20} {value:.4f} s")
    return {
        "wall_s": sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "peak_rss_mb": runner.peak_rss_kb / 1024,
        "cmd_geomean_s": math.exp(statistics.fmean(math.log(w) for w in wall.values())),
    }


def per_command(commands, wall: dict[str, float]) -> dict[str, float]:
    """``cmd.<subcommand>_s``: summed wall time of that subcommand's
    invocations (zero where the workload runs none)."""
    out = {f"cmd.{sub}_s": 0.0 for sub in SUBCOMMANDS}
    for command in commands:
        out[f"cmd.{command.subcommand}_s"] += wall[command.key]
    return out


def traced(runner: Runner, commands, workload: str) -> dict:
    """One plain round, then one traced round; the per-layer metrics."""
    plain = runner.round(commands)
    RUN_DIR.mkdir(exist_ok=True)
    paths = {c.key: str(RUN_DIR / f"{workload}.{c.key}") for c in commands}
    spans_of = {
        key: [str(HERE / "tracer.py"), paths[key], key, "--"] for key in paths
    }
    argvs = {key: argv for key, (argv, _, _, _) in plain.items()}
    traced_round = runner.round(commands, launcher=spans_of.__getitem__, argvs=argvs)
    for key, (_, text, _, _) in traced_round.items():
        if text != plain[key][1]:
            runner.failed += 1
            runner.problems.append(f"{key}: traced stdout differs from the plain run")

    self_s: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    spans = 0
    for key, path in paths.items():
        try:
            meta, arrays = tracer.read_spans(path)
        except (OSError, ValueError, EOFError) as exc:
            runner.failed += 1
            runner.problems.append(f"{key}: no spans ({exc})")
            continue
        spans += meta["spans"]
        for name, seconds in tracer.self_times(meta, arrays).items():
            self_s[name] = self_s.get(name, 0.0) + seconds
        for field in ("calls", "yields", "items"):
            for name, value in zip(meta["names"], meta[field]):
                counts.setdefault(name, {}).setdefault(field, 0)
                counts[name][field] += value

    def count(name: str, field: str) -> int:
        return counts.get(name, {}).get(field, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name, fields in FUNCTION_METRICS.items():
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        for field, label in fields.items():
            m[f"{name}.{label}"] = count(name, field)
    module_self = {
        mod: sum(s for name, s in self_s.items() if name.startswith(mod + "."))
        for mod in MODULES
    }
    for mod, seconds in module_self.items():
        m[f"{mod}.self_s"] = seconds
    m["perm.avoiders.us_per_perm"] = 1e6 * ratio(
        m["perm.avoiders.self_s"], m["perm.avoiders.perms"])
    m["vhc.configs_per_perm"] = ratio(
        m["vhc.enumerate_vhcs.configs"], m["vhc.enumerate_vhcs.calls"])
    m["maps.guard_share"] = ratio(
        m["maps.guard.self_s"] + m["maps.revalidate.self_s"], module_self["maps"])
    m["motzkin.leq.hit_frac"] = ratio(
        m["motzkin.enumerate_intervals.intervals"], m["motzkin.leq.calls"])
    m["cli.stdout_bytes"] = sum(len(text.encode()) for _, text, _, _ in plain.values())
    plain_wall = sum(w for _, _, w, _ in plain.values())
    traced_wall = sum(w for _, _, w, _ in traced_round.values())
    m["trace.overhead_frac"] = traced_wall / plain_wall - 1
    m["trace.spans"] = spans
    m.update(per_command(commands, {k: w for k, (_, _, w, _) in plain.items()}))
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
    print("largest self times: " + ", ".join(f"{n} {s:.3f} s" for n, s in top))
    print("module self times: " + ", ".join(
        f"{mod} {s:.3f} s" for mod, s in sorted(module_self.items(), key=lambda kv: -kv[1])))
    return m


def measure(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    commands = workloads.WORKLOADS[workload](quick, seed)
    runner = Runner()
    record = run_record(seed)
    record["workload"] = workload
    record["seed_used"] = workload == "orders"
    print("run record: " + json.dumps(record))
    if trace:
        metrics = traced(runner, commands, workload)
    else:
        metrics = {"setup_s": setup_seconds(runner)}
        metrics.update(end_to_end(runner, commands, seconds))
    fail_frac = runner.failed / max(runner.attempted, 1)
    print(f"  {'fail_frac':<20} {fail_frac:.4f} ratio  "
          f"({runner.failed} of {runner.attempted} commands)")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    out = {}
    for spec in SPEC["per_layer" if trace else "end_to_end"]:
        if spec["name"] in metrics:
            out[spec["name"]] = {"value": metrics[spec["name"]], "unit": spec["unit"]}
            print(f"  {spec['name']:<36} {metrics[spec['name']]:.6g} {spec['unit']}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": out,
    }


def missing(result: dict, trace: int) -> list[str]:
    """Metrics named in BENCHMARK.json that a result lacks."""
    names = [s["name"] for s in SPEC["per_layer" if trace else "end_to_end"]]
    return [name for name in names if name not in result["metrics"]]


def quick() -> int:
    """Every workload once at tiny sizes, in both modes."""
    bad = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = measure(name, 1, 0, trace, quick=True)
            if missing(result, trace) or not result["correct"]:
                bad.append(f"{name} --trace {trace}")
    print(json.dumps({"quick": "fail" if bad else "ok", "failed_runs": bad}))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if not Path("src/hookcomb/cli.py").is_file():
        print("perfbench: run from the repository root; src/hookcomb is missing",
              file=sys.stderr)
        return 2
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, args.trace, quick=False)
    if missing(result, args.trace):
        print(f"perfbench: metrics not emitted: {missing(result, args.trace)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
