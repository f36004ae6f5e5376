"""Exact counting of closed first-quadrant lattice walks and derived sums.

``walk_count(k)`` is the number of length-``k`` walks that start and end at
the origin, stay in the quadrant ``x >= 0, y >= 0``, and use the step set

    (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1).

Everything is computed with exact big integers: the counts grow roughly
like ``4.729^k`` and overflow 64 bits near ``k = 34``.  The dynamic program
is the single source of truth at scale; ``enumerate_walks`` is the
exponential oracle used to cross-check it at small ``k``.

The same table feeds two binomial transforms:

* ``count_pairs(n)``: pairs ``(X, Y)`` of length-``n`` Motzkin paths whose
  coordinatewise steps avoid ``(D, D)``, ``(U, U)`` and ``(U, E)``.  Such a
  pair flattens to a quadrant walk by dropping its ``(E, E)`` positions.
* ``vhc312_count(n)``: the number of valid hook configurations on
  312-avoiding permutations of size ``n``, which equals
  ``sum(C(n-1, k) * walk_count(k))``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .motzkin import MotzkinPath, enumerate_paths

STEPS: tuple[tuple[int, int], ...] = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1))

#: coordinatewise step pairs allowed in a restricted path pair
ALLOWED_STEP_PAIRS = frozenset(
    [("D", "E"), ("D", "U"), ("E", "D"), ("E", "E"), ("E", "U"), ("U", "D")]
)

_ENUM_LIMIT = 10


@dataclass(frozen=True)
class CountTable:
    """An exact integer sequence indexed from 0."""

    label: str
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> int:
        if k < 0:
            raise IndexError("CountTable is indexed from 0")
        return self.values[k]

    def at(self, k: int) -> int:
        """Value at ``k``, extended by the empty-walk convention at -1.

        The alternating-sum identity for reduced configurations needs the
        convention ``walk_count(-1) = 1``; it is exposed only here and never
        stored at a negative index.
        """
        if k == -1:
            return 1
        if k < -1:
            raise ValueError(f"index {k} below the -1 convention")
        return self.values[k]

    def to_csv(self) -> str:
        lines = ["k,value"]
        lines.extend(f"{k},{v}" for k, v in enumerate(self.values))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps([str(v) for v in self.values], separators=(",", ":"))


def count_walks(k_max: int) -> CountTable:
    """Walk counts for lengths ``0..k_max`` by dynamic programming.

    One forward pass over states ``(x, y)``; a state with ``x + y`` larger
    than the steps still available can never return to the origin and is
    pruned (each step lowers ``x + y`` by at most 1).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    values = [0] * (k_max + 1)
    values[0] = 1
    grid: dict[tuple[int, int], int] = {(0, 0): 1}
    for t in range(1, k_max + 1):
        budget = min(t, k_max - t)
        nxt: dict[tuple[int, int], int] = {}
        get = nxt.get
        for (x, y), c in grid.items():
            for dx, dy in STEPS:
                nx, ny = x + dx, y + dy
                if nx >= 0 and ny >= 0 and nx + ny <= budget:
                    key = (nx, ny)
                    prev = get(key)
                    nxt[key] = c if prev is None else prev + c
        grid = nxt
        values[t] = grid.get((0, 0), 0)
    return CountTable("w", tuple(values))


def enumerate_walks(k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every closed quadrant walk of length ``k``, once each, in step-tuple
    lexicographic order.  Exponential; refuses ``k > 10``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > _ENUM_LIMIT:
        raise ValueError(f"enumerate_walks is exponential; k <= {_ENUM_LIMIT}")
    path: list[tuple[int, int]] = []

    def rec(x: int, y: int, remaining: int) -> Iterator[tuple[tuple[int, int], ...]]:
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


def enumerate_restricted_pairs(n: int) -> Iterator[tuple[MotzkinPath, MotzkinPath]]:
    """All pairs of length-``n`` Motzkin paths with allowed coordinatewise
    steps, by filtering the full product."""
    paths = list(enumerate_paths(n))
    for x in paths:
        for y in paths:
            if all((a, b) in ALLOWED_STEP_PAIRS for a, b in zip(x.steps, y.steps)):
                yield x, y


def count_pairs(n: int, table: CountTable | None = None) -> int:
    """Number of restricted path pairs: ``sum(C(n, k) * walk_count(k))``.

    A pair flattens to a quadrant walk of length ``n - (number of (E, E)
    positions)`` plus the choice of those positions, hence the binomial
    transform.  ``enumerate_restricted_pairs`` is the oracle the tests
    compare it with.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if table is None or len(table) <= n:
        table = count_walks(n)
    return sum(comb(n, k) * table[k] for k in range(n + 1))


def vhc312_count(n: int, table: CountTable | None = None) -> int:
    """Hook-configuration count over 312-avoiders of size ``n``, exactly
    ``sum(C(n-1, k) * walk_count(k) for k in 0..n-1)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if table is None or len(table) < n:
        table = count_walks(n - 1)
    return sum(comb(n - 1, k) * table[k] for k in range(n))
