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

from hookcomb.perm import Permutation, contains_pattern


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


def binomial_sum(walks, m: int) -> int:
    """Oracle for the binomial transform: ``sum(C(m, k) * walks[k])``."""
    return sum(math.comb(m, k) * walks[k] for k in range(m + 1))


@pytest.fixture(scope="session")
def walk_table_small():
    from hookcomb.walks import count_walks

    return count_walks(16)
