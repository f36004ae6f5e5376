"""Valid hook configurations: validation, enumeration, and reduction.

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
the open at a point playing both roles.  ``validate`` exploits this;
``validate_bruteforce`` instead tries every assignment and tests the drawn
hooks geometrically, serving as an independent oracle.

``Vhc`` values are immutable; build them with ``validate`` (or the
enumerator), not by hand.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .perm import Permutation, Point, descent_bottoms, descent_tops


class Hook(NamedTuple):
    sw: Point
    ne: Point


@dataclass(frozen=True)
class Vhc:
    """A valid hook configuration ``(pi, V)`` with its derived matching.

    ``ne_set`` holds the northeast endpoints as indices into ``pi``;
    ``matching`` is the unique hook matching, sorted by southwest index.
    The matching is always recomputed from ``(pi, ne_set)`` and is never
    serialized.
    """

    pi: Permutation
    ne_set: frozenset[int]
    matching: tuple[Hook, ...]

    @property
    def hook_count(self) -> int:
        return len(self.matching)

    def to_json(self) -> str:
        return json.dumps(
            {"perm": str(self.pi), "ne": sorted(self.ne_set)},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Vhc":
        data = json.loads(text)
        pi = Permutation.from_text(data["perm"])
        result = validate(pi, data["ne"])
        if result is None:
            raise ValueError(f"not a valid hook configuration: {text!r}")
        return result


def _checked_ne(pi: Permutation, ne_indices: Iterable[int]) -> frozenset[int]:
    ne = frozenset(ne_indices)
    for i in ne:
        if not isinstance(i, int) or not 1 <= i <= pi.n:
            raise ValueError(f"northeast index {i!r} out of range 1..{pi.n}")
    return ne


def validate(pi: Permutation, ne_indices: Iterable[int]) -> Vhc | None:
    """Build the unique valid hook configuration with northeast endpoint
    set ``ne_indices``, or return ``None`` when there is none.

    One left-to-right sweep keeps a stack of open hooks.  A point in the
    NE set closes the innermost open hook (close before open at a shared
    point); a descent top opens a hook.  A closing point must exceed both
    the matched descent top and every point strictly between them, and the
    sweep must end with no open hooks.
    """
    ne = _checked_ne(pi, ne_indices)
    ent = pi.entries
    n = pi.n
    dtop = frozenset(i + 1 for i in range(n - 1) if ent[i] > ent[i + 1])
    if len(ne) != len(dtop):
        return None
    stack: list[list[int]] = []  # [sw_index, sw_value, max value seen after sw]
    hooks: list[Hook] = []
    for i in range(1, n + 1):
        v = ent[i - 1]
        if i in ne:
            if not stack:
                return None  # unmatched close
            s_idx, s_val, interior_max = stack.pop()
            if v <= s_val or v <= interior_max:
                return None
            hooks.append(Hook(Point(s_idx, s_val), Point(i, v)))
        pushed = False
        if i in dtop:
            stack.append([i, v, 0])
            pushed = True
        for entry in itertools.islice(stack, len(stack) - 1 if pushed else None):
            if entry[2] < v:
                entry[2] = v
    if stack:
        return None  # unmatched open
    hooks.sort()
    return Vhc(pi, ne, tuple(hooks))


# --- geometric oracle ------------------------------------------------------


def _hook_segments(hook: Hook):
    """The vertical and horizontal legs as coordinate-sorted segments."""
    (i, a), (j, b) = hook
    return ((i, a, i, b), (i, b, j, b))


def _segment_meet(s1, s2):
    """Intersection of two axis-aligned segments.

    Returns ``None``, ``("point", (x, y))`` or ``("overlap",)``.
    """
    x1, y1, x2, y2 = s1
    u1, v1, u2, v2 = s2
    vert1, vert2 = x1 == x2, u1 == u2
    if vert1 and vert2:
        if x1 != u1:
            return None
        lo, hi = max(y1, v1), min(y2, v2)
        if lo > hi:
            return None
        return ("point", (x1, lo)) if lo == hi else ("overlap",)
    if not vert1 and not vert2:
        if y1 != v1:
            return None
        lo, hi = max(x1, u1), min(x2, u2)
        if lo > hi:
            return None
        return ("point", (lo, y1)) if lo == hi else ("overlap",)
    if vert2:
        s1, s2 = s2, s1
        x1, y1, x2, y2 = s1
        u1, v1, u2, v2 = s2
    # s1 vertical, s2 horizontal
    if u1 <= x1 <= u2 and y1 <= v1 <= y2:
        return ("point", (x1, v1))
    return None


def _point_above_hook(p: Point, hook: Hook) -> bool:
    """Strictly inside the open region above either leg of the L."""
    sw, ne = hook
    if p == sw or p == ne:
        return False
    above_vertical = p.index == sw.index and p.value > ne.value
    above_horizontal = sw.index <= p.index <= ne.index and p.value > ne.value
    return above_vertical or above_horizontal


def _hooks_clash(h1: Hook, h2: Hook) -> bool:
    """True when two hooks intersect anywhere except a shared endpoint."""
    ends1 = {tuple(h1.sw), tuple(h1.ne)}
    ends2 = {tuple(h2.sw), tuple(h2.ne)}
    for s1 in _hook_segments(h1):
        for s2 in _hook_segments(h2):
            meet = _segment_meet(s1, s2)
            if meet is None:
                continue
            if meet[0] == "overlap":
                return True
            pt = meet[1]
            if pt not in ends1 or pt not in ends2:
                return True
    return False


def _assignment_is_valid(pi: Permutation, hooks: list[Hook]) -> bool:
    plot = pi.points()
    for hook in hooks:
        for p in plot:
            if _point_above_hook(p, hook):
                return False
    for h1, h2 in itertools.combinations(hooks, 2):
        if _hooks_clash(h1, h2):
            return False
    return True


def _bruteforce_assignments(
    pi: Permutation, ne_indices: Iterable[int]
) -> Iterator[tuple[Hook, ...]]:
    """Every assignment of descent tops to NE points that draws a valid
    configuration.  At most one should ever be produced."""
    ne = _checked_ne(pi, ne_indices)
    tops = descent_tops(pi)
    ne_points = tuple(pi.point(i) for i in sorted(ne))
    if len(tops) != len(ne_points):
        return
    for assigned in itertools.permutations(ne_points):
        hooks = []
        for sw, ne_p in zip(tops, assigned):
            if ne_p.index > sw.index and ne_p.value > sw.value:
                hooks.append(Hook(sw, ne_p))
            else:
                break
        if len(hooks) < len(tops):
            continue
        if _assignment_is_valid(pi, hooks):
            yield tuple(sorted(hooks))


def validate_bruteforce(pi: Permutation, ne_indices: Iterable[int]) -> Vhc | None:
    """Oracle for ``validate``: try every descent-top assignment and test
    the hooks geometrically.  Intended for desk-scale inputs."""
    ne = _checked_ne(pi, ne_indices)
    for hooks in _bruteforce_assignments(pi, ne):
        return Vhc(pi, ne, hooks)
    return None


# --- enumeration -----------------------------------------------------------


def enumerate_vhcs(pi: Permutation) -> Iterator[Vhc]:
    """All valid hook configurations on ``pi``, ordered lexicographically
    by sorted NE-endpoint indices.

    Backtracking sweep over the plot: at each point either it is not a
    northeast endpoint, or it closes the innermost open hook (subject to
    the same conditions ``validate`` enforces); descent tops always open a
    hook.
    """
    n = pi.n
    ent = pi.entries
    if n and ent[-1] != n:
        return  # the maximal value would be a hookless descent top
    dtop = [ent[i] > ent[i + 1] for i in range(n - 1)] + [False]
    found: list[tuple[tuple[int, ...], tuple[Hook, ...]]] = []

    def sweep(i: int, stack, ne: tuple[int, ...], hooks: tuple[Hook, ...]) -> None:
        if len(stack) > n - i:
            return  # not enough points left to close the open hooks
        if i == n:
            if not stack:
                found.append((tuple(sorted(ne)), tuple(sorted(hooks))))
            return
        v = ent[i]
        if stack:
            s_idx, s_val, interior_max = stack[-1]
            if v > s_val and v > interior_max:
                nxt = [entry[:] for entry in stack[:-1]]
                for entry in nxt:
                    if entry[2] < v:
                        entry[2] = v
                if dtop[i]:
                    nxt.append([i + 1, v, 0])
                hook = Hook(Point(s_idx, s_val), Point(i + 1, v))
                sweep(i + 1, nxt, ne + (i + 1,), hooks + (hook,))
        nxt = [entry[:] for entry in stack]
        for entry in nxt:
            if entry[2] < v:
                entry[2] = v
        if dtop[i]:
            nxt.append([i + 1, v, 0])
        sweep(i + 1, nxt, ne, hooks)

    sweep(0, [], (), ())
    found.sort()
    for ne, hooks in found:
        yield Vhc(pi, frozenset(ne), hooks)


# --- reduction -------------------------------------------------------------


def _kept(v: Vhc) -> set[int]:
    """Indices of the hook endpoints and the descent bottoms."""
    ends = {p.index for hook in v.matching for p in hook}
    return ends.union(p.index for p in descent_bottoms(v.pi))


def is_reduced(v: Vhc) -> bool:
    """True when every plot point is a hook endpoint or a descent bottom."""
    return len(_kept(v)) == v.pi.n


def restrict(v: Vhc) -> tuple[Vhc, tuple[int, ...]]:
    """Restrict to the hook endpoints and descent bottoms.

    Removes every point that is neither, renormalizes the survivors to a
    permutation of their count, and returns the restricted configuration
    together with the sorted tuple of surviving indices.  The result is
    always reduced.
    """
    kept = sorted(_kept(v))
    values = [v.pi.value_at(i) for i in kept]
    ranks = {val: r + 1 for r, val in enumerate(sorted(values))}
    sub = Permutation(tuple(ranks[val] for val in values))
    position = {old: new + 1 for new, old in enumerate(kept)}
    sub_ne = frozenset(position[i] for i in v.ne_set)
    result = validate(sub, sub_ne)
    if result is None or not is_reduced(result):
        raise RuntimeError(f"restriction of {v.to_json()} is not reduced-valid")
    return result, tuple(kept)
