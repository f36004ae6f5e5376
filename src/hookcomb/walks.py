"""Exact counting of closed first-quadrant lattice walks and derived sums.

``walk_count(k)`` is the number of length-``k`` walks that start and end at
the origin, stay in the quadrant ``x >= 0, y >= 0``, and use the step set

    (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1).

Everything is computed with exact big integers: the counts grow roughly
like ``4.729^k`` and overflow 64 bits near ``k = 34``.  The dynamic program
``count_walks`` is the single source of truth; the tests cross-check it
against a walk enumerator and a plain dict DP.

The DP indexes a state ``(x, y)`` by its level ``u = x + y`` and by ``x``,
so row ``u`` holds the ``u + 1`` states ``0 <= x <= u``.  In these
coordinates one step reads

    new[u][x] = old[u+1][x] + old[u+1][x+1] + old[u][x+1] + old[u][x-1]
                + old[u-1][x]

(the steps (0,-1), (-1,0), (-1,1), (1,-1) and (0,1), in that order).  Each
row is packed into one Python integer, ``x`` in the slot of bits
``[x*W, (x+1)*W)``.  No count at step ``t`` exceeds ``5^t``, and neither
does any partial sum of the five terms, so while ``2^W > 5^t`` a slot
never carries into the next one: a whole row updates with a few shifts,
additions and one subtraction that clears the slot past its end, all in C.
(A stored mask per row was no faster and kept a third copy of the table
alive: 55 MB against 36 MB at k = 800.)

The slot width grows with the step instead of being sized for ``5^k_max``
from the start, since the counts of step ``t`` need only
``(5**t).bit_length()`` bits.  When step ``t`` needs more bits than the
rows have, every live row is repacked once, through bytes, into slots of
whole bytes wide enough for step ``t + _HEADROOM`` (or ``k_max``).  That
is 12 repacks at ``k = 400`` and skips about half of the zero bits the
fixed width added and shifted.  On a 2-core Xeon with Python 3.11,
``count_walks(400)`` took 0.52 s against 0.67 s at the fixed width, and
``count_walks(1000)`` 14.6 s against 23.3 s, with peak RSS 57 MB against
63 MB.  The tables equal the fixed-width DP's for every ``k_max <= 150``,
at 400 and at 1000, and the hook-weighted ones for every ``k_max <= 80``;
the tests keep the prefix check to 150, the hook-slot sums to 80 and a
digest of the table at 400.

The same loop splits the counts by the number ``h`` of y-raising steps,
(-1,1) and (0,1), the terms ``old[u][x+1]`` and ``old[u-1][x]``, when it
weights each such step by ``Z = 2^b`` with ``b = (5**k_max).bit_length()``.
A slot then holds a polynomial ``sum(c_h * Z^h)`` with ``h <= t`` at step
``t`` and every ``c_h`` and partial sum ``<= 5^t < Z``, so the slot stays
below ``Z^(t+1)`` and ``W >= b * (t + 1)`` bits never carry; entry ``k``
is ``sum(w(k, h) * Z^h)``.  Under the bijections of ``maps`` the hooks of
a configuration are the y-raising steps of its walk, which is how
``experiments.triangle`` reads it.

The plain table feeds one binomial transform, ``vhc312_series``, which
yields every term from a single difference-table pass:

* ``vhc312_series(n)[n]``: the number of valid hook configurations on
  312-avoiding permutations of size ``n``, which equals
  ``sum(C(n-1, k) * walk_count(k))`` for ``n >= 1``, and 1 at ``n = 0``
  (the empty configuration on the empty permutation).
* ``vhc312_series(n + 1)[n + 1]``: pairs ``(X, Y)`` of length-``n``
  Motzkin paths whose coordinatewise steps avoid ``(D, D)``, ``(U, U)`` and
  ``(U, E)``.  Such a pair flattens to a quadrant walk of length ``n`` minus
  its ``(E, E)`` positions, which gives ``sum(C(n, k) * walk_count(k))``,
  the same sum one size up.
"""

from __future__ import annotations

STEPS: tuple[tuple[int, int], ...] = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1))

#: coordinatewise step pairs allowed in a restricted path pair
ALLOWED_STEP_PAIRS = frozenset(
    [("D", "E"), ("D", "U"), ("E", "D"), ("E", "E"), ("E", "U"), ("U", "D")]
)

#: largest ``k_max`` that ``count_walks`` builds (its cost at the cap is in
#: the refusal); 0.5 s at 400 and 6.3 s at 800 on a 2-core Xeon, Python 3.11
_KMAX_LIMIT = 1000

#: steps of growth a repack of the walk DP leaves room for; 16 to 64 timed
#: alike at k = 300, 400 and 800, 8 and below repack too often
_HEADROOM = 32


def count_walks(k_max: int) -> tuple[int, ...]:
    """Walk counts for lengths ``0..k_max`` by the packed DP.  Tables
    longer than ``_KMAX_LIMIT + 1`` are refused before any work."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if k_max > _KMAX_LIMIT:
        raise ValueError(
            f"a walk table of length {k_max + 1} (k = 0..{k_max}) is over the "
            f"cap of {_KMAX_LIMIT + 1} (k <= {_KMAX_LIMIT}): count_walks("
            f"{_KMAX_LIMIT}) takes about 15 s and 61 MB peak on a 2-core Xeon"
        )
    return _walk_counts(k_max)


def _walk_counts(k_max: int, by_hooks: bool = False) -> tuple[int, ...]:
    """The packed DP; with ``by_hooks`` each y-raising step is weighted by
    ``Z = 2^b`` and ``_hook_slot`` reads ``w(k, h)`` off entry ``k``.  A
    state with ``x + y`` above the steps left cannot return to the origin,
    so step ``t`` keeps the rows ``u <= min(t, k_max - t)``; row 0 is the
    origin alone."""
    bits = (5**k_max).bit_length()

    def need(t: int) -> int:  # slot bits that step t's counts need
        return bits * (t + 1) if by_hooks else (5**t).bit_length()

    width = 8  # bits per slot, always whole bytes; the origin fits
    values = [0] * (k_max + 1)
    values[0] = 1
    rows = [1]
    for t in range(1, k_max + 1):
        if need(t) > width:
            wider = -(-need(min(t + _HEADROOM, k_max)) // 8) * 8
            rows = [_repack(row, u + 1, width, wider) for u, row in enumerate(rows)]
            width = wider
        budget = min(t, k_max - t)
        padded = [0, *rows, 0, 0]  # padded[u + 1] is row u
        rows = []
        for u, down, cur, up in zip(
            range(budget + 1), padded, padded[1:], padded[2:]
        ):
            # old[u+1][x] + old[u][x-1], with a stray slot u + 1 to clear
            low = up + (cur << width)
            top = width * (u + 1)
            low -= low >> top << top
            # The hook-weighted line with a shift of 0 gives the same counts
            # but was slower in alternating runs: count_walks(400) 0.50 s
            # against 0.42 s, count_walks(800) 7.2 s against 5.3 s.
            if by_hooks:  # old[u][x+1] and old[u-1][x] raise y
                rows.append(low + (up >> width) + ((cur >> width) + down << bits))
            else:  # old[u+1][x+1] + old[u][x+1] is one shift of the slotwise sum
                rows.append(low + ((up + cur) >> width) + down)
        values[t] = rows[0]
    return tuple(values)


def _repack(row: int, slots: int, width: int, wider: int) -> int:
    """``row``'s ``slots`` slots of ``width`` bits moved into slots of
    ``wider`` bits; both widths are whole bytes."""
    size = width // 8
    data = row.to_bytes(slots * size, "little")
    pad = bytes((wider - width) // 8)
    return int.from_bytes(
        pad.join(data[i : i + size] for i in range(0, len(data), size)), "little"
    )


def _hook_slot(value: int, h: int, k_max: int) -> int:
    """The ``Z^h`` slot of ``value``, an entry of ``_walk_counts(k_max,
    by_hooks=True)`` or a signed sum of entries whose every slot lies in
    ``[0, Z)``; for entry ``k`` it is ``w(k, h)``."""
    bits = (5**k_max).bit_length()
    return value >> bits * h & (1 << bits) - 1


def vhc312_series(n_max: int) -> tuple[int, ...]:
    """Hook-configuration counts over 312-avoiders for every size
    ``0..n_max``: 1 at ``n = 0``, then ``sum(C(n-1, k) * walk_count(k))``.

    The binomial transform comes from one difference-table pass: after
    ``m`` rounds of ``row <- [a + b for a, b in zip(row, row[1:])]`` on the
    walk counts, ``row[i] == sum(C(m, k) * walk_count(i + k))`` (Pascal's
    rule), so the head of the row is the term ``n = m + 1``.  That is
    ``O(n_max^2)`` additions for the whole series and no binomial
    coefficient.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values = [1]
    row = list(count_walks(max(n_max - 1, 0))[:n_max])
    while row:
        values.append(row[0])
        row = [a + b for a, b in zip(row, row[1:])]
    return tuple(values)
