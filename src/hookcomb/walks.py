"""Exact counting of closed first-quadrant lattice walks, and the numbers
read off the walk table: the 312 configuration counts, the reduced series
and triangle, and the growth fit.

``walk_count(k)`` is the number of length-``k`` walks that start and end at
the origin, stay in the quadrant ``x >= 0, y >= 0``, and use the step set

    (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1).

Everything is computed with exact big integers: the counts grow roughly
like ``4.729^k`` and overflow 64 bits near ``k = 34``.  The dynamic program
``count_walks`` is the single source of truth; the tests cross-check it
against a walk enumerator and a plain dict DP.

The DP keeps one Python integer per row ``y``, the count of state
``(x, y)`` in the slot of bits ``[x*W, (x+1)*W)``.  One step reads

    new[y][x] = old[y][x+1] + old[y-1][x+1] + old[y+1][x] + old[y-1][x]
                + old[y+1][x-1]

(the steps (-1,0), (-1,1), (0,-1), (0,1) and (1,-1), in that order).  With
``D[y] = old[y] + (old[y] << W)``, whose slot ``x`` is ``old[y][x] +
old[y][x-1]``, that is

    new[y] = D[y+1] + ((D[y-1] + old[y]) >> W),

two big-int operations for ``D[y]`` and three for the row, all in C.  The
layout by level ``u = x + y`` that this replaced took nine, among them a
shift, a shift and a subtraction to clear the slot past the level's end.
Here neither boundary costs an operation: ``x >= 0`` is the slot that falls
off the right shift, and ``y >= 0`` is the end of the row list
(``D[-1] = 0``).  No count at step ``t`` exceeds ``5^t``, one factor per
step in ``STEPS`` (``_slot_bits`` derives the base from it).  A slot of
``D[y]`` holds two counts of step ``t - 1``, at most ``2 * 5^(t-1)``, and
a slot of ``D[y-1] + old[y]`` at most ``3 * 5^(t-1) < 5^t``, so while
``2^W > 5^t`` no slot carries into the next one.  Each row is rewritten in
place as soon as its ``D`` is taken, so one table is alive, not two.

The rows hold only states a walk can reach, with no code for it.  Only
(1,-1) raises ``x``, and each (1,-1) or (0,-1) needs an earlier y-raising
step, so after ``t`` steps ``x <= (t - y) / 2``: row ``y`` grows by one
slot a step only through ``D[y+1]``, and a Python integer stores no slot
past its top nonzero one.  A state with ``x + y`` above the steps left,
``k_max - t``, cannot return to the origin, so from the middle on step
``t`` keeps only the rows ``y <= k_max - t``, and every ``_TRIM`` steps
masks each row to ``x <= k_max - t - y``.  The states left over between
masks are counted but never reach the origin.  At ``k = 800`` a period of
1 to 16 timed alike (2.9-3.3 s at best), and never masking was slower
(4.5 s).

The slot width grows with the step instead of being sized for ``5^k_max``
from the start, since the counts of step ``t`` need only
``(5**t).bit_length()`` bits.  When step ``t`` needs more bits than the
rows have, every row is repacked once, through bytes, into slots of whole
bytes wide enough for step ``t + _HEADROOM`` (or ``k_max``); a row's slot
count is its ``bit_length`` over the old width.  That is 12 repacks at
``k = 400``.

The same loop splits the counts by the number ``h`` of y-raising steps,
(-1,1) and (0,1), when it weights each such step by ``Z = 2^b`` with ``b =
(5**k_max).bit_length()``.  Both come from row ``y - 1``, at ``x + 1`` and
``x``, which is slot ``x`` of ``D[y-1] >> W``, so

    new[y] = D[y+1] + (old[y] >> W) + ((D[y-1] >> W) << b).

A slot then holds a polynomial ``sum(c_h * Z^h)`` with ``h <= t`` at step
``t`` and every ``c_h`` and partial sum ``<= 5^t < Z``, so the slot stays
below ``Z^(t+1)`` and ``W >= b * (t + 1)`` bits never carry; entry ``k``
is ``sum(w(k, h) * Z^h)``.  A slot of ``D[y-1]`` has degree ``<= t - 1``
and coefficients ``<= 2 * 5^(t-1) < Z``, so it is below ``Z^t <=
2^(W - b)``, and ``(D[y-1] >> W) << b`` equals the one shift ``D[y-1] >>
(W - b)``, which the loop uses.

That split is the reduced-configuration triangle, with no sweep.  Through
``ll_map`` and ``phi`` of ``maps`` the hooks of a configuration become the
U letters of the lower path, that is the y-raising steps of its walk, and
restricting to the hook endpoints and descent bottoms keeps every hook, so
the identity that ``experiments.check_eq2`` checks refines by hook count:

    reduced(n, h) = sum((-1)^i * w(n-1-i, h))   over i = 0..n,

with ``w(-1, 0) = 1`` and ``w(k, h)`` counting closed walks of length
``k`` with ``h`` y-raising steps.  ``reduced_series`` takes every such sum
off one running series, ``r(0) = 1`` and ``r(n) = w(n - 1) - r(n - 1)``.
On the hook-weighted table term ``n`` holds every ``reduced(n, h)`` in its
``b``-bit slot ``h`` (each is at most ``w(n-1, h) < Z``, since
``reduced(n) = w(n-1) - reduced(n-1)``), and ``triangle`` reads entry
``i`` of row ``k`` as slot ``k`` at ``n = 2k+i``.  Checked against
exhaustive hook histograms for every ``(n, h)`` with ``n <= 12``, and the
diagonal against the 3-D Catalan numbers through ``k = 40``.

On a 2-core Xeon with Python 3.11, in alternating fresh processes against
the level layout, ``count_walks(400)`` took 0.21-0.39 s against 0.38-0.52
s, ``count_walks(800)`` 3.1-4.0 s against 3.9-4.8 s, and
``_walk_counts(179, by_hooks=True)`` 2.1-3.0 s against 2.4-3.2 s; the
cost at the cap is ``_KMAX_LIMIT``'s.  The tables equal the level layout's for every
``k_max <= 150``, at 299, 400, 800 and 1000, and the hook-weighted ones
for every ``k_max <= 60``, at 119 and at 179.  The tests keep the dict-DP
equality to 80 and at 200, the prefix check to 150, the hook split against
a dict DP to 40, the hook-slot sums to 80, and the digests of ``walks
--kmax 400``, ``count --pattern 312 --n 1..300`` and ``fit --window
200:400``.

Besides the reduced series, the plain table feeds one binomial
transform, ``vhc312_series``, which yields every term from a single
difference-table pass:

* ``vhc312_series(n)[n]``: the number of valid hook configurations on
  312-avoiding permutations of size ``n``, which equals
  ``sum(C(n-1, k) * walk_count(k))`` for ``n >= 1``, and 1 at ``n = 0``
  (the empty configuration on the empty permutation).
* ``vhc312_series(n + 1)[n + 1]``: pairs ``(X, Y)`` of length-``n``
  Motzkin paths whose coordinatewise steps avoid ``(D, D)``, ``(U, U)`` and
  ``(U, E)``.  Such a pair flattens to a quadrant walk of length ``n`` minus
  its ``(E, E)`` positions, which gives ``sum(C(n, k) * walk_count(k))``,
  the same sum one size up.

``asymptotic_fit`` fits the growth of that series by least squares.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

STEPS: tuple[tuple[int, int], ...] = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1))

#: largest ``k_max`` that ``count_walks`` builds, and its cost at the cap
_KMAX_LIMIT = (1000, "count_walks(1000) takes about 5.5 s and 29 MB peak on a 2-core Xeon")

#: rows of ``triangle``: its largest ``k_max`` and its cost at the cap
_TRIANGLE_LIMIT = (40, "check --suite conjectures took 1.2 s over rows 1..40, and the "
                       "rows with their Sturm checks 1.4 s over rows 1..41, on a 2-core Xeon")
_MIN_FIT_POINTS = 50

#: steps of growth a repack of the walk DP leaves room for; 16 to 64 timed
#: alike at k = 300, 400 and 800 (2.9-3.1 s at best at 800), 8 and below
#: repack too often (3.4 and 3.7 s)
_HEADROOM = 32

#: steps between the masks that cut each row to the states that can still
#: return to the origin (see the module docstring for the timings)
_TRIM = 8


def count_walks(k_max: int) -> tuple[int, ...]:
    """Walk counts for lengths ``0..k_max`` by the packed DP.  Tables
    longer than the cap in ``_KMAX_LIMIT`` are refused before any work."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    cap, cost = _KMAX_LIMIT
    if k_max > cap:
        raise ValueError(
            f"a walk table of length {k_max + 1} (k = 0..{k_max}) is over the "
            f"cap of {cap + 1} (k <= {cap}): {cost}"
        )
    return _walk_counts(k_max)


def _walk_counts(k_max: int, by_hooks: bool = False) -> tuple[int, ...]:
    """The packed DP over rows ``y``; with ``by_hooks`` each y-raising step
    is weighted by ``Z = 2^b`` and ``_hook_slot`` reads ``w(k, h)`` off
    entry ``k``.  Step ``t`` keeps the rows ``y <= min(t, k_max - t)``, and
    past the middle masks every ``_TRIM``-th step each row to
    ``x + y <= k_max - t``; entry ``t`` is slot 0 of row 0, the origin."""
    bits = _slot_bits(k_max)

    def need(t: int) -> int:  # slot bits that step t's counts need
        return bits * (t + 1) if by_hooks else _slot_bits(t)

    width = 8  # bits per slot, always whole bytes; the origin fits
    values = [0] * (k_max + 1)
    values[0] = 1
    rows = [1]
    for t in range(1, k_max + 1):
        if need(t) > width:
            wider = -(-need(min(t + _HEADROOM, k_max)) // 8) * 8
            for y, row in enumerate(rows):
                rows[y] = _repack(row, width, wider)
            width = wider
        budget = min(t, k_max - t)
        lift = width - bits  # (D >> W) << b as one shift, in hook mode
        # Row y is rewritten in place once D[y] = old[y] + (old[y] << W),
        # slot x old[y][x] + old[y][x-1], is taken, so one table is alive.
        rows += (0, 0)  # two empty rows past the top, the last read as D[y+1]
        down, cur = 0, rows[0]  # D[y-1] and old[y]
        here = cur + (cur << width)  # D[y]
        for y in range(budget + 1):
            above = rows[y + 1]
            up = above + (above << width)  # D[y+1]
            if by_hooks:
                rows[y] = up + (cur >> width) + (down >> lift)
            else:
                rows[y] = up + ((down + cur) >> width)
            down, cur, here = here, above, up
        del rows[budget + 1 :]
        if budget < t and t % _TRIM == 0:  # x <= budget - y, slots 0..budget - y
            for y, row in enumerate(rows):
                rows[y] = row & (1 << width * (budget + 1 - y)) - 1
        values[t] = rows[0] & (1 << width) - 1
    return tuple(values)


def _slot_bits(t: int) -> int:
    """Bits that hold any count of step ``t``: at most ``len(STEPS)**t``
    walks of length ``t``."""
    return (len(STEPS) ** t).bit_length()


def _repack(row: int, width: int, wider: int) -> int:
    """``row``'s slots of ``width`` bits moved into slots of ``wider`` bits;
    both widths are whole bytes."""
    size = width // 8
    data = row.to_bytes(-(-row.bit_length() // width) * size, "little")
    pad = bytes((wider - width) // 8)
    return int.from_bytes(
        pad.join(data[i : i + size] for i in range(0, len(data), size)), "little"
    )


def _hook_slot(value: int, h: int, k_max: int) -> int:
    """The ``Z^h`` slot of ``value``, an entry of ``_walk_counts(k_max,
    by_hooks=True)`` or a signed sum of entries whose every slot lies in
    ``[0, Z)``; for entry ``k`` it is ``w(k, h)``."""
    bits = _slot_bits(k_max)
    return value >> bits * h & (1 << bits) - 1


def vhc312_series(n_max: int) -> tuple[int, ...]:
    """Hook-configuration counts over 312-avoiders for every size
    ``0..n_max``: 1 at ``n = 0``, then ``sum(C(n-1, k) * walk_count(k))``.

    The binomial transform comes from one difference-table pass: after
    ``m`` rounds of ``row <- [a + b for a, b in zip(row, row[1:])]`` on the
    walk counts, ``row[i] == sum(C(m, k) * walk_count(i + k))`` (Pascal's
    rule), so the head of the row is the term ``n = m + 1``.  That is
    ``O(n_max^2)`` additions for the whole series and no binomial
    coefficient.  Sizes past the walk table's cap, one size up, are
    refused before any work.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    cap, cost = _KMAX_LIMIT
    if n_max > cap + 1:
        raise ValueError(f"312 configuration counts are capped at n <= {cap + 1}: {cost}")
    values = [1]
    row = list(count_walks(max(n_max - 1, 0))[:n_max])
    while row:
        values.append(row[0])
        row = [a + b for a, b in zip(row, row[1:])]
    return tuple(values)


def reduced_series(walks: tuple[int, ...]) -> list[int]:
    """``r(n) = sum((-1)^i * w(n - 1 - i))`` over ``i = 0..n``, with
    ``w(-1) = 1``, for every ``n <= len(walks)``: the reduced counts when
    ``walks`` holds walk counts.  One running series, ``r(0) = 1`` and
    ``r(n) = w(n - 1) - r(n - 1)``."""
    return list(accumulate(walks, lambda r, w: w - r, initial=1))


# --- the coefficient triangle ----------------------------------------------


class TriangleRow(NamedTuple):
    """Row ``k``: reduced k-hook configuration counts on 312-avoiders of
    sizes ``2k+1 .. 3k`` (the only sizes where any exist)."""

    k: int
    entries: tuple[int, ...]


def triangle(k_max: int) -> list[TriangleRow]:
    """Rows ``1..k_max``, read off the hook-weighted walk DP: entry ``i``
    of row ``k`` is slot ``k`` of ``reduced_series`` at ``n = 2k+i`` (the
    module docstring derives it).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    cap, cost = _TRIANGLE_LIMIT
    if k_max > cap:
        raise ValueError(f"triangle rows are capped at k <= {cap}: {cost}")
    length = 3 * k_max - 1
    reduced = reduced_series(_walk_counts(length, by_hooks=True))
    return [
        TriangleRow(k, tuple(
            _hook_slot(reduced[2 * k + i], k, length) for i in range(1, k + 1)
        ))
        for k in range(1, k_max + 1)
    ]


# --- asymptotic growth fit --------------------------------------------------


class AsymptoticFit(NamedTuple):
    """Least-squares fit of ``log f(n) ~ n log(growth) - alpha log n + c``."""

    growth_hat: float
    alpha_hat: float
    window: tuple[int, int]
    residual: float


def asymptotic_fit(n_lo: int, n_hi: int) -> AsymptoticFit:
    """Fit the growth constant and polynomial correction of the exact
    312-avoiding configuration counts over ``n_lo..n_hi``.

    The counts are read off one ``vhc312_series``, which builds the walk
    table once.  Exact integers are used throughout and converted to
    floating point only at the final log stage.
    """
    if n_lo < 1:
        raise ValueError("window must start at n >= 1")
    if n_hi - n_lo + 1 < _MIN_FIT_POINTS:
        raise ValueError(f"window too small: need >= {_MIN_FIT_POINTS} points")
    counts = vhc312_series(n_hi)
    ns = list(range(n_lo, n_hi + 1))
    ys = [math.log(counts[n]) for n in ns]
    cols = [[float(n) for n in ns], [-math.log(n) for n in ns], [1.0] * len(ns)]
    normal = [
        [sum(cols[i][t] * cols[j][t] for t in range(len(ns))) for j in range(3)]
        for i in range(3)
    ]
    rhs = [sum(cols[i][t] * ys[t] for t in range(len(ns))) for i in range(3)]
    sol = _solve3(normal, rhs)
    fitted = [
        sol[0] * cols[0][t] + sol[1] * cols[1][t] + sol[2] for t in range(len(ns))
    ]
    residual = math.sqrt(
        sum((y - f) ** 2 for y, f in zip(ys, fitted)) / len(ns)
    )
    return AsymptoticFit(
        growth_hat=math.exp(sol[0]),
        alpha_hat=sol[1],
        window=(n_lo, n_hi),
        residual=residual,
    )


def _solve3(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(3):
        pivot = max(range(col, 3), key=lambda r: abs(m[r][col]))
        m[col], m[pivot] = m[pivot], m[col]
        if m[col][col] == 0:
            raise ValueError("singular fit system")
        for row in range(3):
            if row != col:
                f = m[row][col] / m[col][col]
                m[row] = [m[row][j] - f * m[col][j] for j in range(4)]
    return [m[i][3] / m[i][i] for i in range(3)]
