"""Exact counting of closed first-quadrant lattice walks and derived sums.

``walk_count(k)`` is the number of length-``k`` walks that start and end at
the origin, stay in the quadrant ``x >= 0, y >= 0``, and use the step set

    (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1).

Everything is computed with exact big integers: the counts grow roughly
like ``4.729^k`` and overflow 64 bits near ``k = 34``.  The dynamic program
``count_walks`` is the single source of truth at scale; ``enumerate_walks``
is the exponential oracle used to cross-check it at small ``k``.

The DP indexes a state ``(x, y)`` by its level ``u = x + y`` and by ``x``,
so row ``u`` holds the ``u + 1`` states ``0 <= x <= u``.  In these
coordinates one step reads

    new[u][x] = old[u+1][x] + old[u+1][x+1] + old[u][x+1] + old[u][x-1]
                + old[u-1][x]

(the steps (0,-1), (-1,0), (-1,1), (1,-1) and (0,1), in that order).  Each
row is packed into one Python integer, ``x`` in the slot of bits
``[x*W, (x+1)*W)`` with ``W = (5**k_max).bit_length()``.  No count at step
``t`` exceeds ``5^t <= 5^k_max < 2^W``, and neither does any partial sum
of the five terms, so a slot never carries into the next one: a whole row
updates with a few shifts, additions and one subtraction that clears the
slot past its end, all in C.  (Clearing it with a stored mask per row was
no faster and kept a third copy of the table alive: 55 MB against 36 MB
peak at ``k_max = 800``.)

The same table feeds one binomial transform, ``vhc312_series``, which
yields every term from a single difference-table pass:

* ``vhc312_series(n)[n]``: the number of valid hook configurations on
  312-avoiding permutations of size ``n``, which equals
  ``sum(C(n-1, k) * walk_count(k))`` for ``n >= 1``, and 1 at ``n = 0``
  (the empty configuration on the empty permutation).
* ``count_pairs(n)``: pairs ``(X, Y)`` of length-``n`` Motzkin paths whose
  coordinatewise steps avoid ``(D, D)``, ``(U, U)`` and ``(U, E)``.  Such a
  pair flattens to a quadrant walk by dropping its ``(E, E)`` positions, so
  it is the same sum one size up: ``vhc312_series(n + 1)[n + 1]``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .motzkin import MotzkinPath, enumerate_paths

STEPS: tuple[tuple[int, int], ...] = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1))

#: coordinatewise step pairs allowed in a restricted path pair
ALLOWED_STEP_PAIRS = frozenset(
    [("D", "E"), ("D", "U"), ("E", "D"), ("E", "E"), ("E", "U"), ("U", "D")]
)

_ENUM_LIMIT = 10
#: largest ``k_max`` that ``count_walks`` builds: about 20 s and 60 MB peak
#: at the cap on a 2-core Xeon with Python 3.11 (0.5 s at 400, 8 s at 800)
_KMAX_LIMIT = 1000


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

    One forward pass over packed rows: ``rows[u]`` holds the counts of the
    states on level ``u = x + y``, state ``x`` in the ``W``-bit slot ``x``
    (see the module docstring for the recurrence and the no-carry bound
    ``5^k_max < 2^W``).  A state with ``x + y`` larger than the steps still
    available can never return to the origin (each step lowers ``x + y``
    by at most 1), so step ``t`` keeps only the rows
    ``u <= min(t, k_max - t)``.  Row 0 is the origin alone, so its integer
    is the count of closed walks.  Tables longer than ``_KMAX_LIMIT + 1``
    are refused before any work.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if k_max > _KMAX_LIMIT:
        raise ValueError(
            f"a walk table of length {k_max + 1} (k = 0..{k_max}) is over "
            f"the cap of {_KMAX_LIMIT + 1} (k <= {_KMAX_LIMIT})"
        )
    width = (5**k_max).bit_length()
    values = [0] * (k_max + 1)
    values[0] = 1
    rows = [1]
    for t in range(1, k_max + 1):
        budget = min(t, k_max - t)
        padded = [0, *rows, 0, 0]  # padded[u + 1] is row u
        rows = []
        for u, down, cur, up in zip(
            range(budget + 1), padded, padded[1:], padded[2:]
        ):
            # old[u+1][x] + old[u][x-1], with a stray slot u + 1 to clear
            low = up + (cur << width)
            top = width * (u + 1)
            # old[u+1][x+1] + old[u][x+1] is one shift of the slotwise sum
            rows.append(low - (low >> top << top) + ((up + cur) >> width) + down)
        values[t] = rows[0]
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
    transform, which is the 312 configuration count one size up.
    ``enumerate_restricted_pairs`` is the oracle the tests compare it with.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return vhc312_series(n + 1, table)[n + 1]


def vhc312_count(n: int, table: CountTable | None = None) -> int:
    """Hook-configuration count over 312-avoiders of size ``n``, exactly
    ``sum(C(n-1, k) * walk_count(k) for k in 0..n-1)``.  For many sizes,
    read them off one ``vhc312_series``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return vhc312_series(n, table)[n]


def vhc312_series(n_max: int, table: CountTable | None = None) -> CountTable:
    """Hook-configuration counts over 312-avoiders for every size
    ``0..n_max``: 1 at ``n = 0``, then ``sum(C(n-1, k) * walk_count(k))``.

    ``table`` must reach ``n_max - 1`` or is rebuilt.  The binomial
    transform comes from one difference-table pass: after ``m`` rounds of
    ``row <- [a + b for a, b in zip(row, row[1:])]`` on the walk counts,
    ``row[i] == sum(C(m, k) * walk_count(i + k))`` (Pascal's rule), so the
    head of the row is the term ``n = m + 1``.  That is ``O(n_max^2)``
    additions for the whole series and no binomial coefficient.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if table is None or len(table) < n_max:
        table = count_walks(max(n_max - 1, 0))
    values = [1]
    row = list(table.values[:n_max])
    while row:
        values.append(row[0])
        row = [a + b for a, b in zip(row, row[1:])]
    return CountTable("vhc312", tuple(values))
