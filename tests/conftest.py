"""Shared oracles and fixtures.

The brute-force helpers here are deliberately dumb: they filter full
symmetric groups or full step products so that the package's pruned
generators and dynamic programs have something independent to agree with.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import pytest

from hookcomb.perm import PATTERN_312, Permutation, avoiders, contains_pattern
from hookcomb.vhc import enumerate_vhcs, is_reduced


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple[Permutation, ...]:
    return tuple(
        Permutation(word) for word in itertools.permutations(range(1, n + 1))
    )


def brute_avoiders(n: int, sigma: Permutation) -> list[Permutation]:
    """Filter-all oracle for the avoiders generator."""
    return [pi for pi in all_permutations(n) if not contains_pattern(pi, sigma)]


@lru_cache(maxsize=None)
def vhc_tallies_312(n: int) -> tuple[dict[int, int], dict[int, int]]:
    """Oracle for the hook-weighted walk DP: hook-count histograms over
    every configuration on the 312-avoiders of size ``n``, as (all
    configurations, reduced configurations).  Cached for the whole run, so
    the size-12 sweep runs once."""
    total: dict[int, int] = {}
    reduced: dict[int, int] = {}
    for pi in avoiders(n, PATTERN_312):
        for v in enumerate_vhcs(pi):
            k = v.hook_count
            total[k] = total.get(k, 0) + 1
            if is_reduced(v):
                reduced[k] = reduced.get(k, 0) + 1
    return total, reduced


def enumerate_walks(k: int):
    """Oracle for ``count_walks``: every closed quadrant walk of length
    ``k``, once each, in step-tuple lexicographic order.  Exponential;
    refuses ``k > 10``."""
    from hookcomb.walks import STEPS

    if k < 0:
        raise ValueError("k must be >= 0")
    if k > 10:
        raise ValueError("enumerate_walks is exponential; k <= 10")
    path: list[tuple[int, int]] = []

    def rec(x: int, y: int, remaining: int):
        if remaining == 0:
            if x == 0 and y == 0:
                yield tuple(path)
            return
        if x + y > remaining:
            return
        for step in STEPS:
            nx, ny = x + step[0], y + step[1]
            if nx >= 0 and ny >= 0:
                path.append(step)
                yield from rec(nx, ny, remaining - 1)
                path.pop()

    yield from rec(0, 0, k)


def dict_walk_counts(k_max: int) -> tuple[int, ...]:
    """Oracle for ``count_walks``: the plain DP over a dict of ``(x, y)``
    states, pruning a state once ``x + y`` exceeds the steps left."""
    from hookcomb.walks import STEPS

    values = [0] * (k_max + 1)
    values[0] = 1
    grid: dict[tuple[int, int], int] = {(0, 0): 1}
    for t in range(1, k_max + 1):
        budget = min(t, k_max - t)
        nxt: dict[tuple[int, int], int] = {}
        for (x, y), c in grid.items():
            for dx, dy in STEPS:
                nx, ny = x + dx, y + dy
                if nx >= 0 and ny >= 0 and nx + ny <= budget:
                    nxt[nx, ny] = nxt.get((nx, ny), 0) + c
        grid = nxt
        values[t] = grid.get((0, 0), 0)
    return tuple(values)


def enumerate_restricted_pairs(n: int):
    """Oracle for ``count_pairs``: all pairs of length-``n`` Motzkin paths
    with allowed coordinatewise steps, by filtering the full product."""
    from hookcomb.motzkin import enumerate_paths
    from hookcomb.walks import ALLOWED_STEP_PAIRS

    paths = list(enumerate_paths(n))
    for x in paths:
        for y in paths:
            if all((a, b) in ALLOWED_STEP_PAIRS for a, b in zip(x.steps, y.steps)):
                yield x, y


def binomial_sum(walks, m: int) -> int:
    """Oracle for the binomial transform: ``sum(C(m, k) * walks[k])``."""
    return sum(math.comb(m, k) * walks[k] for k in range(m + 1))


@pytest.fixture(scope="session")
def walk_table_small():
    from hookcomb.walks import count_walks

    return count_walks(16)
