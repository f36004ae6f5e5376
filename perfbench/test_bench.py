"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _triangle_command(expected_rows) -> workloads.Command:
    return workloads.Command("triangle", workloads.fixed("triangle", "--kmax", 2),
                             workloads.check_triangle(expected_rows))


def test_wrong_expected_value_counts_as_a_failure():
    runner = run.Runner()
    runner.round([_triangle_command(((1,), (3, 6)))])
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "rows" in runner.problems[0]
    runner.round([_triangle_command(workloads.TRIANGLE[:2])])
    assert (runner.attempted, runner.failed) == (2, 1)


def test_quick_mode_emits_every_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == '{"quick": "ok", "failed_runs": []}'


def test_independent_references():
    assert workloads.brute_walk_counts(10) == [1, 0, 1, 1, 3, 8, 19, 65, 177, 611, 1928]
    walk = workloads.brute_walk_counts(9)
    assert [workloads.configurations_312(n, walk) for n in range(1, 10)] == list(
        workloads.COUNT_312_HEAD)
    assert [len(workloads.motzkin_words(n)) for n in range(7)] == [1, 1, 2, 4, 9, 21, 51]
    assert workloads.is_configuration((3, 2, 1, 5, 6, 4, 7), {4, 5, 7})
    pi = (3, 2, 4, 1, 5, 6)
    assert [ne for ne in itertools.combinations(range(1, 7), 2)
            if workloads.is_configuration(pi, set(ne))] == [(3, 5), (3, 6), (5, 6)]
    assert not workloads.is_configuration((2, 1, 3), {2})


def test_seeded_inputs_repeat_and_are_valid():
    a, b = workloads.make_map_inputs(7, 10), workloads.make_map_inputs(7, 10)
    assert a == b
    assert not workloads.contains(a.tau, (1, 3, 2))
    assert workloads.is_configuration(a.tau, set(a.ne))


def test_self_times_split_nested_spans(tmp_path):
    t = tracer.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        inner_wrapped()

    def gen():
        for _ in range(2):
            time.sleep(0.01)
            yield

    inner_wrapped = t.wrap(inner, t.name_id("inner"), tracer.CALL)
    t.wrap(outer, t.name_id("outer"), tracer.CALL)()
    for _ in t.wrap(gen, t.name_id("gen"), tracer.GENERATOR)():
        time.sleep(0.03)  # the consumer's time is not the generator's
    path = str(tmp_path / "spans")
    t.write(path, "test")
    meta, arrays = tracer.read_spans(path)
    self_s = tracer.self_times(meta, arrays)
    assert 0.01 <= self_s["outer"] < 0.02
    assert 0.02 <= self_s["inner"] < 0.03
    assert 0.02 <= self_s["gen"] < 0.03
    assert meta["yields"][t.ids["gen"]] == 2
    assert meta["spans"] == 6  # root, outer, inner and three resumptions
