"""Motzkin paths, Dyck prefixes, and three nested partial orders.

A Motzkin path of length ``n`` is a word over the steps ``U`` (up, rise 1),
``D`` (down, fall 1) and ``E`` (east, flat) whose running height never goes
negative and ends at zero.  Paths serialize as plain strings such as
``"UDEUEUDD"``; the empty path is legal.

Three statistics drive the orders implemented here:

* the *class* of a path is its subsequence of non-``D`` steps;
* writing the path as ``X1 D^g1 ... Xl D^gl`` with each ``Xi`` in
  ``{U, E}``, the ``i``-th *lng* is the length of the shortest consecutive
  substring starting at ``Xi`` that is itself a Motzkin path (1 when
  ``Xi = E``, at least 2 when ``Xi = U``);
* the *support* is the Dyck prefix obtained by sending ``U, E`` to ``u``
  and ``D`` to ``d``.  A path is recoverable from its class and support:
  its ``u`` letters, in order, are its class.  ``tests/conftest.py``
  rebuilds every path of length ``n <= 8`` that way.

The orders, each strictly finer than the previous:

* ``S``   lower path lies weakly below the upper one (pointwise heights);
* ``C``   equal class and below;
* ``T``   equal class and componentwise lng domination.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import Iterator

from .frozen import Frozen

ORDERS = ("S", "C", "T")

#: longest paths ``enumerate_intervals`` pairs, by order, and that
#: ``count_intervals`` counts for S, with the cost at the cap
_INTERVAL_LIMIT = {
    "S": (11, "listing takes 8.1 s at n = 11, counting 2.7 s on a 2-core Xeon"),
    "C": (13, "listing takes 4.2 s at n = 13 on a 2-core Xeon"),
    "T": (13, "listing takes 3.0 s at n = 13 on a 2-core Xeon"),
}

_DISPLACEMENT = {"U": 1, "D": -1, "E": 0}  # in the enumeration order


class MotzkinPath(Frozen):
    """An immutable Motzkin path, stored as its step string.

    >>> MotzkinPath("UDEUEUDD").heights()
    (1, 0, 0, 1, 1, 2, 1, 0)
    >>> MotzkinPath("UDX")
    Traceback (most recent call last):
        ...
    ValueError: not a Motzkin step: 'X'
    """

    __slots__ = ("steps",)
    steps: str

    def __new__(cls, steps: str) -> "MotzkinPath":
        if not isinstance(steps, str):
            raise ValueError(f"a Motzkin path is a step string, not {steps!r}")
        h = 0
        for s in steps:
            try:
                h += _DISPLACEMENT[s]
            except KeyError:
                raise ValueError(f"not a Motzkin step: {s!r}") from None
            if h < 0:
                raise ValueError(f"path dips below the axis: {steps!r}")
        if h != 0:
            raise ValueError(f"path does not return to the axis: {steps!r}")
        return cls._trusted(steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return self.steps

    def heights(self) -> tuple[int, ...]:
        """Running height after each step."""
        return tuple(accumulate(_DISPLACEMENT[s] for s in self.steps))


def path_class(p: MotzkinPath) -> str:
    """Subsequence of non-D steps, e.g. UDEUEUDD -> UEUEU."""
    return "".join(s for s in p.steps if s != "D")


def lng_all(p: MotzkinPath) -> tuple[int, ...]:
    """For each non-D step, the length of the shortest consecutive
    substring starting there that forms a Motzkin path: 1 for an ``E``, and
    for a ``U`` the span to the ``D`` that first brings the height back,
    its match on a stack (the tests compare the scan from each step for
    every path of length n <= 10).

    >>> lng_all(MotzkinPath("UDEUEUDD"))
    (2, 1, 5, 1, 2)
    """
    out: list[int] = []
    open_ups: list[tuple[int, int]] = []  # (slot in out, position) per open U
    for i, s in enumerate(p.steps):
        if s == "D":
            slot, start = open_ups.pop()
            out[slot] = i - start + 1
        else:
            if s == "U":
                open_ups.append((len(out), i))
            out.append(1)
    return tuple(out)


def support(p: MotzkinPath) -> str:
    """Dyck-prefix shadow: U, E -> u and D -> d."""
    return "".join("d" if s == "D" else "u" for s in p.steps)


def _comparison(order: str):
    """The class filter and pointwise statistic of ``order``: ``p <= q``
    when the filters agree and ``p``'s statistic is nowhere above ``q``'s."""
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    class_of = (lambda p: "") if order == "S" else path_class
    return class_of, lng_all if order == "T" else MotzkinPath.heights


def leq(order: str, p: MotzkinPath, q: MotzkinPath) -> bool:
    """Compare two equal-length paths in order S, C, or T."""
    class_of, statistic = _comparison(order)
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    same_class = class_of(p) == class_of(q)
    return same_class and all(a <= b for a, b in zip(statistic(p), statistic(q)))


class Interval(Frozen):
    """An ordered related pair ``lower <= upper`` in one of the orders."""

    __slots__ = ("lower", "upper", "order")
    lower: MotzkinPath
    upper: MotzkinPath
    order: str

    def __new__(cls, lower: MotzkinPath, upper: MotzkinPath, order: str) -> "Interval":
        if not leq(order, lower, upper):
            raise ValueError(f"({lower}, {upper}) is not a {order}-interval")
        return cls._trusted(lower, upper, order)

    def to_json(self) -> str:
        # U/D/E paths and an S/C/T order need no escaping
        return (f'{{"lower":"{self.lower.steps}","upper":"{self.upper.steps}",'
                f'"order":"{self.order}"}}')


def enumerate_paths(n: int) -> Iterator[MotzkinPath]:
    """All Motzkin paths of length ``n`` in lexicographic order with the
    step order U < D < E.  Built unchecked, as a step is taken only when
    the height can still end at zero; the tests match the words over U, D,
    E that ``MotzkinPath(...)`` accepts, in order, for every n <= 8; one
    check matched the former shared-buffer recursion's lists for n <= 13."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def rec(word: str, h: int) -> Iterator[MotzkinPath]:
        if len(word) == n:
            yield MotzkinPath._trusted(word)
        for step, rise in _DISPLACEMENT.items():
            if 0 <= h + rise < n - len(word):
                yield from rec(word + step, h + rise)

    return rec("", 0)


def enumerate_intervals(order: str, n: int) -> Iterator[Interval]:
    """All order-related pairs of length-``n`` paths, lower path major,
    both components in the U < D < E lexicographic order.  A lower path
    meets only the paths of its own class (S has one class).  Lengths past
    the cap in ``_INTERVAL_LIMIT`` raise at the call, before any work."""
    keyed, by_class, guard = _packed_paths(order, n)
    trusted = Interval._trusted
    return (
        trusted(lower, upper, order)
        for cls, low, lower in keyed
        for upper in [q for high, q in by_class[cls] if (high - low) & guard == guard]
    )


def count_intervals(order: str, n: int) -> int:
    """The number of ``order``-intervals of length-``n`` paths.

    C and T read it off the configurations one size up, by the paper's
    bijections: ``ll_map`` carries those on 312-avoiders of size ``n + 1``
    onto the C-intervals of length ``n``, and after ``w_map`` those on
    132-avoiders onto the T-intervals.  So C is ``walks.vhc312_series``,
    under the walk table's cap (a table of ``k <= n``), and T the 132 count
    of ``vhc.vhc_count_exhaustive``, under that count's cap one size down;
    both equal the listed counts for every n <= 13.  S counts the pairs
    ``enumerate_intervals`` would list, without building them.
    """
    if order in ("C", "T") and n < 0:
        raise ValueError("n must be >= 0")
    if order == "C":
        from .walks import _KMAX_LIMIT, vhc312_series

        cap, cost = _KMAX_LIMIT
        if n > cap:
            raise ValueError(f"C-interval counts are capped at n <= {cap}: {cost}")
        return vhc312_series(n + 1)[n + 1]
    if order == "T":  # the only count that loads the avoider layers
        from .perm import PATTERN_132
        from .vhc import _exhaustive_limit, vhc_count_exhaustive

        size, cost = _exhaustive_limit(PATTERN_132)
        cap = size - 1  # the configurations are one size up
        if n > cap:
            raise ValueError(f"T-interval counts are capped at n <= {cap}: {cost}")
        return vhc_count_exhaustive(n + 1, PATTERN_132)[n + 1]
    keyed, by_class, guard = _packed_paths(order, n)
    return sum(
        sum([(high - low) & guard == guard for high, _ in by_class[cls]])
        for cls, low, _ in keyed
    )


def _packed_paths(order: str, n: int):
    """The length-``n`` paths as ``(class, packed statistic, path)``, the
    same paths by class as ``(packed statistic | guard, path)``, and the
    guard mask, under ``order``'s ``_comparison`` and ``_INTERVAL_LIMIT``.

    Each statistic value (at most ``n``) gets a slot of
    ``(n + 1).bit_length() + 1`` bits whose top bit is a guard.
    Subtracting a packed ``lower`` from ``upper | guard`` never borrows
    past a slot's guard, and that guard stays set iff the slot's ``lower``
    value is at most its ``upper`` one.  So ``lower <= upper`` in every
    slot iff ``((upper | guard) - lower) & guard == guard``."""
    class_of, statistic = _comparison(order)
    cap, cost = _INTERVAL_LIMIT[order]
    if n > cap:
        raise ValueError(
            f"{order}-intervals of length {n} pair at least M({cap + 1}) = "
            f"{motzkin_number(cap + 1)} Motzkin paths; refusing n > {cap}: {cost}"
        )
    width = (n + 1).bit_length() + 1
    guard = sum(1 << width * i + width - 1 for i in range(n))
    keyed = []
    by_class: dict[str, list[tuple[int, MotzkinPath]]] = {}
    for p in enumerate_paths(n):
        packed = 0
        for value in statistic(p):
            packed = packed << width | value
        cls = class_of(p)
        keyed.append((cls, packed, p))
        by_class.setdefault(cls, []).append((packed | guard, p))
    return keyed, by_class, guard


def motzkin_number(n: int) -> int:
    """M(n) as the sum over k of C(n, 2k) C(2k, k) / (k + 1): a Motzkin
    path is a Dyck path of length 2k spread over n places, E filling the
    rest.  The tests match the convolution recurrence for every n <= 300."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(comb(n, 2 * k) * comb(2 * k, k) // (k + 1) for k in range(n // 2 + 1))
