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
the open at a point playing both roles.  A close is allowed iff the closing
point lies above every point from the hook's southwest end onward.
``validate`` and ``enumerate_vhcs`` share this one rule; the tests keep a
geometric oracle that tries every assignment and draws the hooks.

``Vhc`` values are immutable; build them with ``validate`` (or the
enumerator), not by hand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .perm import Permutation, Point, avoiders, descent_bottoms


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

    def to_json(self) -> str:
        return json.dumps(
            {"perm": str(self.pi), "ne": sorted(self.ne_set)},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Vhc":
        data = json.loads(text)
        if not (isinstance(data, dict) and isinstance(data.get("perm"), str)
                and isinstance(data.get("ne"), list)):
            raise ValueError(f"expected a JSON object with a string \"perm\" "
                             f"and a list \"ne\": {text!r}")
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


def _close(ent: tuple[int, ...], s: int, i: int) -> Hook | None:
    """The hook from 0-based position ``s`` to ``i``, or ``None`` when the
    point at ``i`` does not top ``max(ent[s:i])``: the descent top and
    every point between.  This is the one rule of the sweep."""
    v = ent[i]
    return Hook(Point(s + 1, ent[s]), Point(i + 1, v)) if v > max(ent[s:i]) else None


def validate(pi: Permutation, ne_indices: Iterable[int]) -> Vhc | None:
    """Build the unique valid hook configuration with northeast endpoint
    set ``ne_indices``, or return ``None`` when there is none.

    One left-to-right sweep keeps the stack of open southwest positions: a
    point in the NE set closes the innermost open hook by ``_close`` (close
    before open at a shared point) and a descent top opens one.  A close
    the rule refuses, an unmatched close or a hook left open means no
    configuration.
    """
    ne = _checked_ne(pi, ne_indices)
    ent = pi.entries
    opened: list[int] = []
    hooks: list[Hook] = []
    for i, v in enumerate(ent):
        if i + 1 in ne:
            hook = _close(ent, opened.pop(), i) if opened else None
            if hook is None:
                return None
            hooks.append(hook)
        if i + 1 < len(ent) and v > ent[i + 1]:
            opened.append(i)
    if opened:
        return None
    hooks.sort()
    return Vhc(pi, ne, tuple(hooks))


def enumerate_vhcs(pi: Permutation) -> Iterator[Vhc]:
    """All valid hook configurations on ``pi``, ordered lexicographically
    by sorted NE-endpoint indices.

    The sweep of ``validate`` with both choices at each point: it closes
    the innermost open hook when ``_close`` allows, or it does not.
    """
    n = pi.n
    ent = pi.entries
    if n and ent[-1] != n:
        return  # the maximal value would be a hookless descent top
    found: list[tuple[tuple[int, ...], tuple[Hook, ...]]] = []

    def sweep(i: int, opened: tuple[int, ...], ne: tuple[int, ...],
              hooks: tuple[Hook, ...]) -> None:
        if len(opened) > n - i:
            return  # not enough points left to close the open hooks
        if i == n:
            if not opened:
                found.append((ne, tuple(sorted(hooks))))
            return
        top = (i,) if i + 1 < n and ent[i] > ent[i + 1] else ()
        hook = _close(ent, opened[-1], i) if opened else None
        if hook is not None:
            sweep(i + 1, opened[:-1] + top, ne + (i + 1,), hooks + (hook,))
        sweep(i + 1, opened + top, ne, hooks)

    sweep(0, (), (), ())
    found.sort()
    for ne, hooks in found:
        yield Vhc(pi, frozenset(ne), hooks)


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
        yield from avoiders(0, sigma)
        return
    for tau in avoiders(n - 1, _carrier_pattern(sigma)):
        yield Permutation._trusted(tau.entries + (n,))


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
