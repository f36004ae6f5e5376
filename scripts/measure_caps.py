#!/usr/bin/env python3
"""Re-measure the cost that each size cap states.

Usage: python3 scripts/measure_caps.py

Each cap is a module-level ``(value, cost)`` pair named ``*_LIMIT`` in a
module of ``hookcomb``, or a dict of such pairs; the refusal past the cap
ends with the cost text.  For each cap key, ``COMMANDS`` holds the
commands its cost text times at the cap and the one it times one step
past it.  Each command at the cap runs in three fresh processes, and the
script prints the median wall time and the largest peak RSS; the step
past runs once, in a child that raises the cap's value before it runs
the command, so the package has no switch for it.  The stated cost is
printed above the measured figures.  Nothing is written: a cost is
re-stated by editing its constant, and README's Size caps table, which
``tests/test_scripts.py`` holds to the constants.

The children run the package under ``src/`` of this checkout.  Each
reports its peak RSS as ``VmHWM`` from ``/proc/self/status``, which counts
only the address space since ``exec`` (a child's ``ru_maxrss`` carries the
high-water mark of the parent it was forked from), so the script runs on
Linux.  It takes a few minutes, most of it in the interval listings past
their caps.
"""

import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 3

#: per cap key ``(module, name, key)``: the commands its cost text times
#: at the cap, and the one it times one step past the cap, with ``{n}`` for
#: the size; a command is a ``hookcomb`` command line or a Python statement
#: run in the cap's module
COMMANDS = {
    ("walks", "_KMAX_LIMIT", None): (["count_walks({n})"], "count_walks({n})"),
    ("walks", "_TRIANGLE_LIMIT", None): (
        ["hookcomb check --suite conjectures --kmax {n}"],
        "hookcomb check --suite conjectures --kmax {n}"),
    ("experiments", "_TAMARI_LIMIT", None): (
        ["hookcomb check --suite tamari --nmax {n}"],
        "hookcomb check --suite tamari --nmax {n}"),
    ("vhc", "_EXHAUSTIVE_LIMIT", 2): (
        ["hookcomb count --pattern 123 --n 1..{n}",
         "hookcomb count --pattern 213 --n 1..{n}"],
        "hookcomb count --pattern 123 --n 1..{n}"),
    ("vhc", "_EXHAUSTIVE_LIMIT", 3): (
        ["hookcomb count --pattern 1234 --n 1..{n}",
         "hookcomb count --pattern 132 --n 1..{n}"],
        "hookcomb count --pattern 1234 --n {n}"),
    ("vhc", "_EXHAUSTIVE_LIMIT", 4): (
        ["hookcomb count --pattern 623451 --n 1..{n}"],
        "hookcomb count --pattern 623451 --n {n}"),
    ("motzkin", "_INTERVAL_LIMIT", "S"): (
        ["hookcomb intervals --order S --n {n}",
         "hookcomb intervals --order S --n {n} --count-only"],
        "hookcomb intervals --order S --n {n}"),
    ("motzkin", "_INTERVAL_LIMIT", "C"): (
        ["hookcomb intervals --order C --n {n}"],
        "hookcomb intervals --order C --n {n}"),
    ("motzkin", "_INTERVAL_LIMIT", "T"): (
        ["hookcomb intervals --order T --n {n}"],
        "hookcomb intervals --order T --n {n}"),
}

#: the child: raise one cap to ``value`` (when given), keeping its cost
#: text, run the command, and end stderr with its peak RSS
_CHILD = """\
import importlib, json, sys
module, name, key, value, command = sys.argv[1:]
m = importlib.import_module("hookcomb." + module)
if value:
    limit = getattr(m, name)
    if key:
        limit[json.loads(key)] = (int(value), limit[json.loads(key)][1])
    else:
        setattr(m, name, (int(value), limit[1]))
try:
    if command.startswith("hookcomb "):
        from hookcomb.cli import main
        sys.exit(main(command.split()[1:]))
    exec(command, vars(m))
finally:
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write(f"\\npeak-rss-kb {peak}\\n")
"""


def label(cap) -> str:
    """``name``, or ``name[key]`` with the key as JSON, as README's Size
    caps table names the cap."""
    _, name, key = cap
    return name if key is None else f"{name}[{json.dumps(key)}]"


def limit(cap) -> tuple[int, str]:
    """The cap's ``(value, cost)`` as the package states it."""
    module, name, key = cap
    pair = getattr(importlib.import_module(f"hookcomb.{module}"), name)
    return pair if key is None else pair[key]


def run_once(cap, command: str, value: int | None = None) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one fresh process that runs
    ``command``, with the cap raised to ``value`` first when one is given.
    Raises ``RuntimeError`` when the process fails."""
    module, name, key = cap
    argv = [sys.executable, "-c", _CHILD, module, name,
            "" if key is None else json.dumps(key),
            "" if value is None else str(value), command]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    error, _, peak = proc.stderr.rstrip("\n").rpartition("\npeak-rss-kb ")
    if proc.returncode != 0:
        raise RuntimeError(f"{command} exited {proc.returncode}: {error}")
    return seconds, int(peak) / 1024


def host() -> str:
    model = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip()
                      for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), model)
    return (f"{model}, {os.cpu_count()} CPUs, Python {platform.python_version()}, "
            f"{time.strftime('%Y-%m-%d %H:%M UTC', time.gmtime())}")


def main() -> int:
    sys.path.insert(0, str(SRC))
    print(f"host: {host()}")
    for cap, (at_cap, past) in COMMANDS.items():
        value, cost = limit(cap)
        print(f"\n{label(cap)} = {value} ({cap[0]})\n  stated: {cost}")
        for command in at_cap:
            runs = [run_once(cap, command.format(n=value)) for _ in range(RUNS)]
            seconds = statistics.median(s for s, _ in runs)
            peak = max(mb for _, mb in runs)
            print(f"  {command.format(n=value):<52} {seconds:7.2f} s {peak:6.0f} MB"
                  f"  median of {RUNS}", flush=True)
        seconds, peak = run_once(cap, past.format(n=value + 1), value + 1)
        print(f"  {past.format(n=value + 1):<52} {seconds:7.2f} s {peak:6.0f} MB"
              f"  once, cap raised to {value + 1}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
