"""The benchmark's workloads, the inputs made from the seed, and the checks
on every output.

A workload is a list of ``hookcomb`` CLI commands run in order.  A command
may take its arguments from earlier outputs (the map round trips).  Every
output is checked against a reference the program did not compute: a
brute-force enumeration written here, a closed form, a published value, or,
for values with no independent reference, the output that hookcomb's first
commit printed, kept in ``reference.json``.

``series`` and ``sweep`` do not use the seed: their inputs are fixed sizes.
The seed picks the ``orders`` map inputs only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text()
)

#: rows 1..4 of the reduced-configuration triangle
TRIANGLE = ((1,), (3, 5), (14, 51, 42), (84, 485, 849, 462))
#: configurations on 312-avoiders of sizes 1..9
COUNT_312_HEAD = (1, 1, 2, 5, 14, 44, 148, 528, 1972)
GROWTH, GROWTH_TOL = 5.729, 0.02
ALPHA, ALPHA_TOL = 4.515, 1.0

# the quarter-plane step set of the walk series
STEPS = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1))


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``key`` is unique within the workload and starts with the subcommand
    name.  ``argv`` builds the arguments from the outputs of earlier
    commands (a dict from key to stdout text); ``check`` returns the
    problems found in this command's output, none when it is correct.
    """

    key: str
    argv: Callable[[dict], list[str]]
    check: Callable[[str, dict], list[str]]

    @property
    def subcommand(self) -> str:
        return self.key.partition(".")[0]


def fixed(*argv) -> Callable[[dict], list[str]]:
    args = [str(a) for a in argv]
    return lambda outputs: list(args)


# --- independent references ------------------------------------------------


def brute_walk_counts(k_max: int) -> list[int]:
    """Closed quarter-plane walks of each length ``0..k_max``, counted by
    listing every walk depth first.  A walk is cut once ``x + y`` exceeds
    the steps left before ``k_max``, since no step lowers it by more
    than one."""
    counts = [0] * (k_max + 1)

    def go(x: int, y: int, k: int) -> None:
        if x == 0 and y == 0:
            counts[k] += 1
        if k == k_max:
            return
        left = k_max - k - 1
        for dx, dy in STEPS:
            nx, ny = x + dx, y + dy
            if nx >= 0 and ny >= 0 and nx + ny <= left:
                go(nx, ny, k + 1)

    go(0, 0, 0)
    return counts


def configurations_312(n: int, walk: list[int]) -> int:
    """``sum(C(n-1, k) * w(k))``, the configurations on 312-avoiders of
    size ``n``."""
    return sum(math.comb(n - 1, k) * walk[k] for k in range(n))


def motzkin_words(n: int) -> list[str]:
    """Every Motzkin path of length ``n``, lexicographic with U < D < E."""
    out = []

    def go(word: str, h: int) -> None:
        if len(word) == n:
            out.append(word)
            return
        left = n - len(word) - 1
        for step, d in (("U", 1), ("D", -1), ("E", 0)):
            if 0 <= h + d <= left:
                go(word + step, h + d)

    go("", 0)
    return out


def heights(word: str) -> tuple[int, ...]:
    h, out = 0, []
    for step in word:
        h += {"U": 1, "D": -1, "E": 0}[step]
        out.append(h)
    return tuple(out)


def s_intervals_csv(n: int) -> str:
    """The S-order interval listing of length-``n`` paths, lower path major."""
    words = motzkin_words(n)
    hs = [heights(w) for w in words]
    lines = ["lower,upper,order"]
    for a, ha in zip(words, hs):
        for b, hb in zip(words, hs):
            if all(x <= y for x, y in zip(ha, hb)):
                lines.append(f"{a},{b},S")
    return "\n".join(lines) + "\n"


def contains(perm: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    for idx in itertools.combinations(range(len(perm)), len(pattern)):
        values = [perm[i] for i in idx]
        if tuple(sorted(values).index(v) + 1 for v in values) == pattern:
            return True
    return False


def _hook_cells(hook):
    i, a, j, b = hook
    return {(i, y) for y in range(a, b + 1)} | {(x, b) for x in range(i + 1, j + 1)}


def is_configuration(perm: tuple[int, ...], ne: set[int]) -> bool:
    """Whether the 1-based indices ``ne`` are the northeast endpoints of a
    valid hook configuration on ``perm``, by trying every assignment of
    descent tops to them.  A hook runs up from a descent top ``(i, a)`` and
    right to ``(j, b)`` with ``i < j`` and ``a < b``; no plot point may lie
    above a hook, and two hooks may share only a point that ends both."""
    n = len(perm)
    tops = [i for i in range(1, n) if perm[i - 1] > perm[i]]
    if len(tops) != len(ne):
        return False
    for assigned in itertools.permutations(sorted(ne)):
        if any(j <= i or perm[j - 1] <= perm[i - 1] for i, j in zip(tops, assigned)):
            continue
        hooks = [(i, perm[i - 1], j, perm[j - 1]) for i, j in zip(tops, assigned)]
        if any(perm[k - 1] > b for i, _, j, b in hooks for k in range(i, j + 1)):
            continue
        cells = [_hook_cells(h) for h in hooks]
        ends = [{(i, a), (j, b)} for i, a, j, b in hooks]
        if all(
            len(cells[p] & cells[q]) <= 1 and cells[p] & cells[q] <= ends[p] & ends[q]
            for p, q in itertools.combinations(range(len(hooks)), 2)
        ):
            return True
    return False


# --- seeded inputs -----------------------------------------------------------


@dataclass(frozen=True)
class MapInputs:
    """Inputs of the ``orders`` map calls: a 132-avoider ``tau`` with a
    configuration ``ne`` on it, and a class-order interval for ``llinv``."""

    tau: tuple[int, ...]
    ne: tuple[int, ...]
    lower: str
    upper: str


def make_map_inputs(seed: int, size: int) -> MapInputs:
    rng = random.Random(seed)
    while True:
        # only permutations ending in their maximum carry a configuration
        head = list(range(1, size))
        rng.shuffle(head)
        tau = tuple(head) + (size,)
        tops = sum(1 for i in range(size - 1) if tau[i] > tau[i + 1])
        if tops == 0 or contains(tau, (1, 3, 2)):
            continue
        configs = [
            ne for ne in itertools.combinations(range(2, size + 1), tops)
            if is_configuration(tau, set(ne))
        ]
        if configs:
            break
    words = motzkin_words(size - 1)
    lower = rng.choice(words)
    lower_h = heights(lower)
    uppers = [
        w for w in words
        if w.replace("D", "") == lower.replace("D", "")
        and all(x <= y for x, y in zip(lower_h, heights(w)))
    ]
    return MapInputs(tau, rng.choice(configs), lower, rng.choice(uppers))


# --- output parsing ----------------------------------------------------------


def perm_text(perm: tuple[int, ...]) -> str:
    """One-line notation as hookcomb prints it."""
    return ",".join(map(str, perm)) if len(perm) >= 10 else "".join(map(str, perm))


def parse_perm(text: str) -> tuple[int, ...]:
    if "," in text:
        return tuple(int(v) for v in text.split(","))
    return tuple(int(ch) for ch in text)


def parse_csv(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"missing header {header!r}")
    return [line.split(",") for line in lines[1:]]


def parse_json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines()]


def walk_values(text: str) -> list[int]:
    rows = parse_csv(text, "k,value")
    if [int(k) for k, _ in rows] != list(range(len(rows))):
        raise ValueError("walk table is not indexed 0, 1, 2, ...")
    return [int(v) for _, v in rows]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def checked(fn: Callable[[str, dict], list[str]]) -> Callable[[str, dict], list[str]]:
    """Turn a parse error in a check into a reported problem."""

    def run(text: str, outputs: dict) -> list[str]:
        try:
            return fn(text, outputs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    return run


def expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def recorded(text: str, argv: list[str]) -> list[str]:
    """Compare with the output recorded from hookcomb's first commit."""
    key = " ".join(argv)
    want = REFERENCE["stdout_sha256"].get(key)
    if want is None:
        return [f"no recorded output for {key!r}"]
    return [] if sha256(text) == want else [f"output differs from the recording of {key!r}"]


# --- checks --------------------------------------------------------------------


def check_walks(k_max: int, brute: list[int]):
    @checked
    def check(text: str, outputs: dict) -> list[str]:
        problems: list[str] = []
        values = walk_values(text)
        expect(problems, "walk table length", len(values), k_max + 1)
        expect(problems, "walks by brute force", values[: len(brute)], brute)
        return problems + recorded(text, ["walks", "--kmax", str(k_max)])

    return check


def check_fit(lo: int, hi: int):
    @checked
    def check(text: str, outputs: dict) -> list[str]:
        problems: list[str] = []
        fit = json.loads(text)
        if abs(fit["growth"] / GROWTH - 1) > GROWTH_TOL:
            problems.append(f"growth {fit['growth']} not within {GROWTH_TOL:.0%} of {GROWTH}")
        if abs(fit["alpha"] - ALPHA) > ALPHA_TOL:
            problems.append(f"exponent {fit['alpha']} not within {ALPHA_TOL} of {ALPHA}")
        expect(problems, "fit window", fit["window"], [lo, hi])
        return problems

    return check


def check_count_312(n_max: int):
    @checked
    def check(text: str, outputs: dict) -> list[str]:
        problems: list[str] = []
        walk = walk_values(outputs["walks"])
        rows = parse_csv(text, "n,count")
        expect(problems, "sizes", [int(n) for n, _ in rows], list(range(1, n_max + 1)))
        got = [int(c) for _, c in rows]
        expect(problems, "binomial transform of the walks output", got,
               [configurations_312(n, walk) for n in range(1, n_max + 1)])
        head = min(n_max, len(COUNT_312_HEAD))
        expect(problems, "first terms", got[:head], list(COUNT_312_HEAD[:head]))
        return problems

    return check


def check_count_recorded(pattern: str, n_max: int):
    @checked
    def check(text: str, outputs: dict) -> list[str]:
        problems: list[str] = []
        rows = parse_json_lines(text)
        expect(problems, "sizes", [r["n"] for r in rows], list(range(1, n_max + 1)))
        expect(problems, "patterns", {r["pattern"] for r in rows}, {pattern})
        expect(problems, f"{pattern} counts against the recording",
               [r["count"] for r in rows], REFERENCE["count"][pattern][:n_max])
        return problems

    return check


def check_triangle(rows_expected):
    @checked
    def check(text: str, outputs: dict) -> list[str]:
        problems: list[str] = []
        rows = parse_json_lines(text)
        expect(problems, "rows", [[int(e) for e in r["entries"]] for r in rows],
               [list(r) for r in rows_expected])
        expect(problems, "row numbers", [r["k"] for r in rows],
               list(range(1, len(rows_expected) + 1)))
        return problems

    return check


def check_all_hold(argv: list[str], prefix: str):
    @checked
    def check(text: str, outputs: dict) -> list[str]:
        problems: list[str] = []
        rows = parse_json_lines(text)
        if not rows:
            problems.append("empty report")
        for r in rows:
            if not r["check"].startswith(prefix):
                problems.append(f"unexpected entry {r['check']!r}")
            elif r["verdict"] != "holds":
                problems.append(f"{r['check']} at n={r.get('n')} says {r['verdict']}")
        return problems + recorded(text, argv)

    return check


def check_conjectures(argv: list[str]):
    @checked
    def check(text: str, outputs: dict) -> list[str]:
        rows = parse_json_lines(text)
        want = REFERENCE["conjecture_verdicts"][" ".join(argv)]
        got = [[r["check"], r.get("k", r.get("sigma")), r.get("tau"), r["verdict"]]
               for r in rows]
        problems: list[str] = []
        expect(problems, "conjecture verdicts against the recording", got, want)
        return problems + recorded(text, argv)

    return check


def check_count_only(want: int, label: str):
    @checked
    def check(text: str, outputs: dict) -> list[str]:
        problems: list[str] = []
        expect(problems, label, int(text), want)
        return problems

    return check


def check_text(want: str, label: str):
    def check(text: str, outputs: dict) -> list[str]:
        return [] if text == want else [f"{label} differs"]

    return check


def check_json(label: str, want: dict):
    @checked
    def check(text: str, outputs: dict) -> list[str]:
        problems: list[str] = []
        expect(problems, label, json.loads(text), want)
        return problems

    return check


# --- workloads ---------------------------------------------------------------


def series(quick: bool, seed: int) -> list[Command]:
    """The walk DP and its three consumers."""
    k_max, n_max, (lo, hi) = (60, 40, (50, 110)) if quick else (400, 300, (200, 400))
    brute = brute_walk_counts(10)
    return [
        Command("walks", fixed("walks", "--kmax", k_max), check_walks(k_max, brute)),
        Command("fit", fixed("fit", "--window", f"{lo}:{hi}"), check_fit(lo, hi)),
        Command("count.312",
                fixed("count", "--pattern", "312", "--n", f"1..{n_max}", "--output", "csv"),
                check_count_312(n_max)),
    ]


def sweep(quick: bool, seed: int) -> list[Command]:
    """Exhaustive sweeps over avoiders and their configurations."""
    if quick:
        k_tri, n132, conj, tamari, eq2, n1324 = (
            2, 6, ["--kmax", "2", "--nmax", "5"], 5, ["--kmax", "2", "--nmax", "6"], 5)
    else:
        k_tri, n132, conj, tamari, eq2, n1324 = 4, 10, [], 8, ["--kmax", "3"], 7
    conj_argv = ["check", "--suite", "conjectures", *conj]
    tamari_argv = ["check", "--suite", "tamari", "--nmax", str(tamari)]
    eq2_argv = ["check", "--suite", "eq2", *eq2]
    return [
        Command("triangle", fixed("triangle", "--kmax", k_tri), check_triangle(TRIANGLE[:k_tri])),
        Command("count.132",
                fixed("count", "--pattern", "132", "--n", f"1..{n132}", "--method", "enumerate"),
                check_count_recorded("132", n132)),
        Command("check.conjectures", fixed(*conj_argv), check_conjectures(conj_argv)),
        Command("check.tamari", fixed(*tamari_argv),
                check_all_hold(tamari_argv, "tamari_")),
        Command("check.eq2", fixed(*eq2_argv), check_all_hold(eq2_argv, "eq2")),
        Command("count.1324",
                fixed("count", "--pattern", "1324", "--n", f"1..{n1324}", "--method", "enumerate"),
                check_count_recorded("1324", n1324)),
    ]


def orders(quick: bool, seed: int) -> list[Command]:
    """Interval enumeration in the Motzkin orders and the maps."""
    n_ct, n_s, size = (5, 4, 6) if quick else (9, 8, 10)
    inp = make_map_inputs(seed, size)
    c_count = configurations_312(n_ct + 1, brute_walk_counts(n_ct))
    t_count = int(REFERENCE["count"]["132"][n_ct])
    interval = {"lower": inp.lower, "upper": inp.upper, "order": "C"}
    paths = set(motzkin_words(size - 1))

    def avoider_problems(label: str, perm: tuple[int, ...]) -> list[str]:
        if sorted(perm) != list(range(1, size + 1)) or contains(perm, (3, 1, 2)):
            return [f"{label} gave {perm}, not a 312-avoider of size {size}"]
        return []

    def configuration_problems(label: str, got: dict) -> list[str]:
        if not is_configuration(parse_perm(got["perm"]), set(got["ne"])):
            return [f"{label} gave an invalid configuration {got}"]
        return []

    @checked
    def llinv(text: str, outputs: dict) -> list[str]:
        got = json.loads(text)
        return (avoider_problems("llinv", parse_perm(got["perm"]))
                or configuration_problems("llinv", got))

    @checked
    def swl(text: str, outputs: dict) -> list[str]:
        return avoider_problems("swl", parse_perm(json.loads(text)["perm"]))

    @checked
    def w(text: str, outputs: dict) -> list[str]:
        got = json.loads(text)
        problems: list[str] = []
        expect(problems, "w lands on the slid permutation", got["perm"],
               json.loads(outputs["map.swl"])["perm"])
        return problems + configuration_problems("w", got)

    @checked
    def phi(text: str, outputs: dict) -> list[str]:
        got = json.loads(text)
        problems: list[str] = []
        expect(problems, "phi keeps the lower path", got["y"], inp.lower)
        if got["x"] not in paths:
            problems.append(f"phi gave {got['x']!r}, not a Motzkin path of length {size - 1}")
        return problems

    def mapped(name: str, key: str, *fields: str) -> Callable[[dict], list[str]]:
        """``map --name name`` on fields of an earlier map output."""

        def argv(outputs: dict) -> list[str]:
            got = json.loads(outputs[key])
            args = ["map", "--name", name]
            for f in fields:
                value = got[f]
                args += [f"--{f}", ",".join(map(str, value)) if f == "ne" else value]
            return args

        return argv

    tau = perm_text(inp.tau)
    return [
        Command("intervals.C",
                fixed("intervals", "--order", "C", "--n", n_ct, "--count-only"),
                check_count_only(c_count, "C-intervals = configurations on 312-avoiders")),
        Command("intervals.T",
                fixed("intervals", "--order", "T", "--n", n_ct, "--count-only"),
                check_count_only(t_count, "T-intervals = configurations on 132-avoiders")),
        Command("intervals.S",
                fixed("intervals", "--order", "S", "--n", n_s, "--output", "csv"),
                check_text(s_intervals_csv(n_s), "S-interval listing")),
        Command("map.llinv",
                fixed("map", "--name", "llinv", "--lower", inp.lower, "--upper", inp.upper,
                      "--n", size),
                llinv),
        Command("map.ll", mapped("ll", "map.llinv", "perm", "ne"),
                check_json("ll after llinv", interval)),
        Command("map.swl", fixed("map", "--name", "swl", "--perm", tau), swl),
        Command("map.swr", mapped("swr", "map.swl", "perm"),
                check_json("swr after swl", {"perm": tau})),
        Command("map.w",
                fixed("map", "--name", "w", "--perm", tau, "--ne", ",".join(map(str, inp.ne))),
                w),
        Command("map.winv", mapped("winv", "map.w", "perm", "ne"),
                check_json("winv after w", {"perm": tau, "ne": list(inp.ne), "valid": True})),
        Command("map.phi",
                fixed("map", "--name", "phi", "--lower", inp.lower, "--upper", inp.upper),
                phi),
        Command("map.phiinv", mapped("phiinv", "map.phi", "x", "y"),
                check_json("phiinv after phi", interval)),
    ]


WORKLOADS: dict[str, Callable[[bool, int], list[Command]]] = {
    "series": series,
    "sweep": sweep,
    "orders": orders,
}
