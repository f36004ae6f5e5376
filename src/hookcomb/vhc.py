"""Valid hook configurations: validation, enumeration and counting.

A *hook* on a permutation plot runs from a southwest endpoint ``(i, p(i))``
straight up and then right to a northeast endpoint ``(j, p(j))``, which
requires ``i < j`` and ``p(i) < p(j)``.  A set of hooks is a valid hook
configuration when

  (i)   the southwest endpoints are exactly the descent tops,
  (ii)  no plot point lies above any hook, and
  (iii) hooks intersect only at shared endpoints.

A configuration is determined by its set ``V`` of northeast endpoints: for
fixed ``V`` at most one assignment of descent tops to ``V`` can work, namely
the balanced-parenthesis matching of the merged left-to-right listing of
descent tops (as ``(``) and ``V`` (as ``)``), with the close listed before
the open at a point playing both roles.  A close is allowed iff the closing
point lies above every point from the hook's southwest end onward.  So a
``Vhc`` stores only ``(pi, V)``: its constructor, ``validate`` and
``enumerate_vhcs`` run this one sweep without drawing a hook, the
``matching`` property draws them on demand, and ``_carrier_counts`` runs
the sweep on a word as the avoider search of ``perm`` grows it, counting
configurations without listing them.  The search, its step and the state
of the used values that the count's memo keys on belong to ``perm``;
this module keeps the sweep and what the sweep reads.  The tests keep a
geometric oracle that tries every assignment and draws the hooks.

The close rule: in this sweep a close is one comparison, since a point that
tops the innermost open hook's descent top tops every point after it too.
Were the highest point ``p`` strictly between them above the closing
point, the point after ``p`` would be lower, so ``p`` would be a descent
top whose hook opened inside the closing one.  That hook has closed, as
the closing one is innermost, and on a point above ``p`` before the
closing point, which cannot be.

``Vhc`` values are immutable and valid by construction: ``Vhc(pi, V)``
raises ``ValueError`` on a set that is no configuration, and ``validate``
is the query that returns ``None`` instead.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, NamedTuple

from .frozen import Frozen
from .perm import (PATTERN_312, Permutation, Point, _avoider_words, _extensions, _guard3,
                   _rule_state, avoiders)


class Hook(NamedTuple):
    sw: Point
    ne: Point


class Vhc(Frozen):
    """A valid hook configuration ``(pi, V)``; construction raises
    ``ValueError`` on any other set.

    ``ne_set`` holds the northeast endpoints as indices into ``pi`` (any
    iterable of them on construction, stored as a frozenset).  It
    determines the configuration, so equality and hashing follow
    ``(pi, ne_set)`` alone, and ``matching`` derives the unique hook
    matching, sorted by southwest index:

    >>> Vhc(Permutation.from_text("2134"), {3}).matching
    (Hook(sw=Point(index=1, value=2), ne=Point(index=3, value=3)),)
    """

    __slots__ = ("pi", "ne_set")
    pi: Permutation
    ne_set: frozenset[int]

    def __new__(cls, pi: Permutation, ne_set: Iterable[int]) -> "Vhc":
        v = cls._trusted(pi, _checked_ne(pi, ne_set))
        if _matching(pi.entries, v.ne_set) is None:
            raise ValueError(f"not a valid hook configuration: {v.to_json()}")
        return v

    @property
    def matching(self) -> tuple[Hook, ...]:
        ent = self.pi.entries
        return tuple(Hook(Point(s + 1, ent[s]), Point(i + 1, ent[i]))
                     for s, i in sorted(_matching(ent, self.ne_set)))

    def to_json(self) -> str:
        return json.dumps({"perm": str(self.pi), "ne": sorted(self.ne_set)},
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Vhc":
        data = json.loads(text)
        if not (isinstance(data, dict) and isinstance(data.get("perm"), str)
                and isinstance(data.get("ne"), list)):
            raise ValueError(f"expected a JSON object with a string \"perm\" "
                             f"and a list \"ne\": {text!r}")
        return cls(Permutation.from_text(data["perm"]), data["ne"])


def _checked_ne(pi: Permutation, ne_indices: Iterable[int]) -> frozenset[int]:
    ne = tuple(ne_indices)  # each index checked before a set folds True into 1
    for i in ne:
        if type(i) is not int or not 1 <= i <= pi.n:
            raise ValueError(f"northeast index {i!r} out of range 1..{pi.n}")
    return frozenset(ne)


def _matching(ent: tuple[int, ...], ne: frozenset[int]) -> list[tuple[int, int]] | None:
    """The hooks of the NE set ``ne`` as 0-based (southwest, northeast)
    positions in closing order, or ``None`` when there is no configuration.

    One left-to-right sweep keeps the stack of open southwest positions: a
    point in ``ne`` closes the innermost open hook (close before open at a
    shared point) and a descent top opens one.  A close is allowed iff the
    point tops the hook's descent top (the close rule of the module
    docstring); a refused or unmatched close, or a hook left open, means no
    configuration.
    """
    opened: list[int] = []
    pairs: list[tuple[int, int]] = []
    for i, v in enumerate(ent):
        if i + 1 in ne:
            if not opened or v < ent[(s := opened.pop())]:
                return None
            pairs.append((s, i))
        if i + 1 < len(ent) and v > ent[i + 1]:
            opened.append(i)
    return None if opened else pairs


def validate(pi: Permutation, ne_indices: Iterable[int]) -> Vhc | None:
    """``Vhc(pi, ne_indices)``, or ``None`` when the set is no
    configuration; an index out of range still raises."""
    ne = _checked_ne(pi, ne_indices)
    return None if _matching(pi.entries, ne) is None else Vhc._trusted(pi, ne)


def enumerate_vhcs(pi: Permutation) -> Iterator[Vhc]:
    """All valid hook configurations on ``pi``, ordered lexicographically
    by sorted NE-endpoint indices.

    The sweep of ``_matching`` with both choices at each point, run from
    an explicit stack of ``(position, open hooks, their number, NE
    endpoints)``: the innermost open hook closes when the close rule
    allows, or it does not.  The open hooks are a linked stack
    ``(innermost, rest)``, ``()`` when empty, whose tails the branches
    share, so a step costs the same however many hooks are open.  The close
    branch is pushed last, so it is taken first, and each configuration is
    yielded as the sweep reaches it.  That order is lexicographic because
    every configuration on ``pi`` has one NE endpoint per descent top, so
    no NE tuple is a prefix of another.
    """
    n = pi.n
    ent = pi.entries
    if n and ent[-1] != n:
        return  # the maximal value would be a hookless descent top
    stack: list[tuple[int, tuple, int, tuple[int, ...]]] = [(0, (), 0, ())]
    while stack:
        i, opened, depth, ne = stack.pop()
        if depth > n - i:
            continue  # not enough points left to close the open hooks
        if i == n:
            yield Vhc._trusted(pi, frozenset(ne))
            continue
        top = i + 1 < n and ent[i] > ent[i + 1]
        stack.append((i + 1, (i, opened) if top else opened, depth + top, ne))
        if opened and ent[i] > ent[opened[0]]:
            rest = opened[1]
            stack.append((i + 1, (i, rest) if top else rest, depth - 1 + top,
                          ne + (i + 1,)))


def _carrier_pattern(sigma: Permutation) -> Permutation:
    """``sigma'``: ``sigma`` less its last letter when that letter is its
    maximum, else ``sigma``."""
    sig = sigma.entries
    return Permutation._trusted(sig[:-1]) if sig and sig[-1] == len(sig) else sigma


def carriers(n: int, sigma: Permutation) -> Iterator[Permutation]:
    """The ``sigma``-avoiders of size ``n`` that end in ``n``, the only
    ones with a configuration (see ``enumerate_vhcs``), in lexicographic
    order; ``avoiders(0, sigma)`` when ``n = 0``.

    They are ``tau + (n,)`` for ``tau`` in ``avoiders(n - 1, sigma')``:
    ``n`` can fill only the last place of an occurrence, and only as its
    largest value, so ``tau + (n,)`` avoids ``sigma`` iff ``tau`` avoids
    ``sigma' = sigma[:-1]`` when ``sigma`` ends in its maximum (which
    implies avoiding ``sigma``), and ``sigma' = sigma`` otherwise.  Checked
    against the filter-all oracle, in order, for the empty pattern and
    every pattern of length 1 to 4 at every ``n <= 7``.
    """
    if n == 0:
        return avoiders(0, sigma)
    return (Permutation._trusted(tau + (n,))
            for tau in _avoider_words(n - 1, _carrier_pattern(sigma)))


#: an exhaustive count's largest size and its cost, by the length of sigma'
#: clamped to 2..4: length 3 runs ``perm._guard3``, 4 or more ``perm._guard``
_EXHAUSTIVE_LIMIT = {2: (2000, "count --pattern 123 --n 1..2000 takes 0.33 s "
                              "(213: 0.45 s), and 1..2001 takes 0.31 s on a 2-core Xeon"),
                     3: (14, "count --pattern 1234 --n 1..14 takes 0.61 s at a 25 MB "
                             "peak (132: 0.18 s), and n = 15 alone 1.4 s on a 2-core Xeon"),
                     4: (9, "count --pattern 623451 --n 1..9 takes 0.53 s, "
                            "and n = 10 alone 5.5 s on a 2-core Xeon")}


def _exhaustive_limit(pattern: Permutation) -> tuple[int, str]:
    return _EXHAUSTIVE_LIMIT[min(max(_carrier_pattern(pattern).n, 2), 4)]


def _check_exhaustive(n_max: int, pattern: Permutation) -> None:
    if n_max < 0:
        raise ValueError("n must be >= 0")
    cap, cost = _exhaustive_limit(pattern)
    if n_max > cap:
        raise ValueError(f"exhaustive counts over {pattern}-avoiders are capped "
                         f"at n <= {cap}: {cost}")


def vhc_count_exhaustive(n_max: int, pattern: Permutation) -> list[int]:
    """Numbers of configurations on ``pattern``-avoiders of sizes
    ``0..n_max``.

    When ``sigma'`` (``_carrier_pattern``) has length 3 they are
    counted, not listed, by ``_carrier_counts``; otherwise each of the
    ``carriers`` runs ``enumerate_vhcs``.  The two agree for every
    pattern with a length-3 ``sigma'`` and length at most 4 at every
    ``n <= 9`` in the tests, and the count for 132 equals the number of
    T-intervals one size down for every ``n <= 14``.
    """
    _check_exhaustive(n_max, pattern)
    if _carrier_pattern(pattern).n == 3:
        return _carrier_counts(n_max, pattern, reduced=False)
    return [sum(sum(1 for _ in enumerate_vhcs(pi)) for pi in carriers(n, pattern))
            for n in range(n_max + 1)]


def reduced_count(n_max: int) -> list[int]:
    """Numbers of reduced configurations on 312-avoiders of sizes
    ``0..n_max`` (the left side of ``check_eq2``), counted by
    ``_carrier_counts``; the empty configuration is reduced.  Equal to the
    reduced filter of ``tests/conftest.py`` over ``enumerate_vhcs`` on the
    ``carriers`` for every ``n <= 11``."""
    _check_exhaustive(n_max, PATTERN_312)
    return _carrier_counts(n_max, PATTERN_312, reduced=True)


def _carrier_counts(n_max: int, pattern: Permutation, reduced: bool) -> list[int]:
    """Configurations on ``carriers(n, pattern)`` for every ``n <= n_max``,
    for a length-3 ``sigma'``; with ``reduced``, only the reduced ones.

    One depth-first search per size grows ``tau``, the carrier less its
    last point ``n``, by the avoider search's step ``perm._extensions``
    under the rule ``perm._guard3``, and runs the sweep of ``_matching``
    alongside: the point before a lower one is a descent top and opens a
    hook, and a point that tops the innermost open hook's descent top
    closes that hook, or does not (the close rule of the module
    docstring).  ``n`` can then close one last hook.  The count below a
    prefix depends only on what the rest of the search reads, so it is
    memoized on that: ``perm._rule_state(used)`` for the rule, the flag
    ``bare`` (for ``reduced``: the last point is neither a hook endpoint
    nor a descent bottom yet, so it must be a descent top), and for the
    sweep, which compares the last value and the open hooks' descent tops
    only with the unused values it appends, the number of unused values
    below each of them.  The key does not hold ``n``, so one memo serves
    every size.  Equal to the earlier search, one size at a time with a
    bit mask of the used values in its key, for every length-3 ``sigma'``
    (the patterns 132, 231, 312, 321, 1234 and 2134) and for reduced 312,
    at every ``n <= 14``.
    """
    used = bytearray(1)  # the flags of the values 1..n-1, grown with n
    refuses = _guard3(_carrier_pattern(pattern).entries, used)
    memo: dict[tuple, int] = {}

    def count(left: int, last: int, tops: tuple[int, ...], bare: bool) -> int:
        if len(tops) > left + 1:
            return 0  # each point left closes at most one hook
        if not left:
            # n closes the innermost hook; a reduced configuration needs it
            # to, since n is no descent bottom or top
            return int(len(tops) == 1 and not bare) if reduced else 1
        key = (_rule_state(used), bare, *[used.count(0, 1, v) for v in (last, *tops)])
        total = memo.get(key)
        if total is not None:
            return total
        total = 0
        for x in _extensions(used, refuses):
            if last > x:  # a descent: a hook opens at last
                total += count(left - 1, x, (*tops, last), False)
            elif not bare:
                if tops and x > tops[-1]:
                    total += count(left - 1, x, tops[:-1], False)
                total += count(left - 1, x, tops, reduced)
        memo[key] = total
        return total

    counts = [1]
    for n in range(1, n_max + 1):
        counts.append(count(n - 1, 0, (), False))
        used.append(0)
    return counts
