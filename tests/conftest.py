"""Shared oracles and fixtures.

The brute-force helpers here are deliberately dumb: they filter full
symmetric groups or full step products so that the package's pruned
generators and dynamic programs have something independent to agree with.
The geometric validator, the pattern test, the single-height slides, the
northwest representatives and stripes point by point, the maps built on
them, the pivot points, the frame of ``ll_map``, the Motzkin numbers by
convolution, the quoted occurrences of the patterns of S3, the lng scan, the
rebuilding of a path from its class and support, and the Dyck-prefix
order are oracles only, and the identity permutation, the descents, the
reduction of a configuration and the left-to-right minima are read only by
tests, so they live here rather than in the package.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import pytest

from hookcomb.maps import ALLOWED_STEP_PAIRS, PullbackResult, _slide, swl, swr
from hookcomb.motzkin import MotzkinPath, _packed_paths, enumerate_paths
from hookcomb.perm import PATTERN_312, Permutation, Point, avoiders, ltr_maxima
from hookcomb.vhc import Hook, Vhc, _checked_ne, enumerate_vhcs, validate
from hookcomb.walks import STEPS, count_walks


def perm(text: str) -> Permutation:
    return Permutation.from_text(text)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def descents(pi: Permutation) -> tuple[int, ...]:
    """Positions ``i`` with ``p(i) > p(i+1)``."""
    ent = pi.entries
    return tuple(i + 1 for i in range(pi.n - 1) if ent[i] > ent[i + 1])


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple[Permutation, ...]:
    return tuple(
        Permutation(word) for word in itertools.permutations(range(1, n + 1))
    )


def brute_occurrence(pi: Permutation, sigma: Permutation) -> tuple[int, ...] | None:
    """Oracle for the pattern test: 1-based indices of the first occurrence
    of ``sigma`` in ``pi``, trying every k-subset of positions in
    lexicographic order; ``None`` means ``pi`` avoids ``sigma``.  The empty
    pattern occurs (vacuously) in every permutation as the empty tuple.
    ``find_occurrence`` quotes another occurrence (see
    ``s3_quoted_occurrences``)."""
    k, ent, sig = sigma.n, pi.entries, sigma.entries
    pairs = tuple(itertools.combinations(range(k), 2))
    for combo in itertools.combinations(range(pi.n), k):
        word = [ent[c] for c in combo]
        if all((word[a] < word[b]) == (sig[a] < sig[b]) for a, b in pairs):
            return tuple(c + 1 for c in combo)
    return None


@pytest.fixture(scope="session")
def s3_quoted_occurrences() -> dict[Permutation, dict[Permutation, tuple[int, ...]]]:
    """Oracle for ``find_occurrence``: over every permutation of size <= 8,
    the occurrence quoted of each pattern of S3 it contains.  Of the
    3-subsets of positions that match the pattern, it is the one with the
    least middle position; among those, the least first value when
    sigma(1) < sigma(3), else the greatest; then the least last value.  The
    subsets are scanned one middle position at a time, and a later middle
    never wins, so the scan ends at the middle by which all six patterns
    have occurred."""
    shapes = {
        (s[0] < s[1], s[0] < s[2], s[1] < s[2]): (sigma, 1 if s[0] < s[2] else -1)
        for sigma in all_permutations(3) for s in [sigma.entries]
    }
    table = {}
    for n in range(9):
        for pi in all_permutations(n):
            ent, quoted = pi.entries, {}
            for j in range(1, n - 1):
                least = {}
                for i, k in itertools.product(range(j), range(j + 1, n)):
                    sigma, sign = shapes[ent[i] < ent[j], ent[i] < ent[k], ent[j] < ent[k]]
                    key = (sign * ent[i], ent[k], (i + 1, j + 1, k + 1))
                    if sigma not in quoted and (sigma not in least or key < least[sigma]):
                        least[sigma] = key
                quoted.update((sigma, key[-1]) for sigma, key in least.items())
                if len(quoted) == len(shapes):
                    break
            table[pi] = quoted
    return table


def contains_pattern(pi: Permutation, sigma: Permutation) -> bool:
    """True when some subsequence of ``pi`` is order-isomorphic to ``sigma``."""
    return brute_occurrence(pi, sigma) is not None


def brute_avoiders(n: int, sigma: Permutation) -> list[Permutation]:
    """Filter-all oracle for the avoiders generator."""
    return [pi for pi in all_permutations(n) if not contains_pattern(pi, sigma)]


def configurations_on_avoiders(n: int, sigma: Permutation) -> Iterator[Vhc]:
    """Oracle for the sweeps over ``carriers``: every configuration on
    every ``sigma``-avoider of size ``n``, the definition of the counts."""
    for pi in avoiders(n, sigma):
        yield from enumerate_vhcs(pi)


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
            k = len(v.ne_set)
            total[k] = total.get(k, 0) + 1
            if is_reduced(v):
                reduced[k] = reduced.get(k, 0) + 1
    return total, reduced


def enumerate_walks(k: int):
    """Oracle for ``count_walks``: every closed quadrant walk of length
    ``k``, once each, in step-tuple lexicographic order.  Exponential;
    refuses ``k > 10``."""
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


def dict_hook_walk_counts(k_max: int) -> tuple[tuple[int, ...], ...]:
    """Oracle for ``_walk_counts(k_max, by_hooks=True)``: the dict DP of
    ``dict_walk_counts`` over states ``(x, y, h)``, ``h`` the y-raising
    steps (-1,1) and (0,1) taken so far.  Entry ``k`` lists ``w(k, h)`` for
    ``h = 0..k``."""
    values = [(1,)] + [(0,) * (k + 1) for k in range(1, k_max + 1)]
    grid: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    for t in range(1, k_max + 1):
        budget = min(t, k_max - t)
        nxt: dict[tuple[int, int, int], int] = {}
        for (x, y, h), c in grid.items():
            for dx, dy in STEPS:
                nx, ny = x + dx, y + dy
                if nx >= 0 and ny >= 0 and nx + ny <= budget:
                    key = (nx, ny, h + (dy == 1))
                    nxt[key] = nxt.get(key, 0) + c
        grid = nxt
        values[t] = tuple(grid.get((0, 0, h), 0) for h in range(t + 1))
    return tuple(values)


def enumerate_restricted_pairs(n: int):
    """Oracle for ``count_pairs``: all pairs of length-``n`` Motzkin paths
    with allowed coordinatewise steps, by filtering the full product."""
    paths = list(enumerate_paths(n))
    for x in paths:
        for y in paths:
            if all((a, b) in ALLOWED_STEP_PAIRS for a, b in zip(x.steps, y.steps)):
                yield x, y


def binomial_sum(walks, m: int) -> int:
    """Oracle for the binomial transform: ``sum(C(m, k) * walks[k])``."""
    return sum(math.comb(m, k) * walks[k] for k in range(m + 1))


def alternating_sum(walks, n: int) -> int:
    """Oracle for the reduced series: ``sum((-1)^i * w(n - 1 - i))`` over
    ``i = 0..n``, with ``w = walks`` extended by ``w(-1) = 1``."""
    return sum((-1) ** i * (walks[n - 1 - i] if i < n else 1) for i in range(n + 1))


# --- geometric oracle for vhc.validate -----------------------------------


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
    ne_points = tuple(Point(i, pi.entries[i - 1]) for i in sorted(ne))
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


def validate_bruteforce(
    pi: Permutation, ne_indices: Iterable[int]
) -> tuple[Hook, ...] | None:
    """Oracle for ``validate`` and ``Vhc.matching``: try every descent-top
    assignment, test the hooks geometrically and return the sorted hooks
    of the valid one, or ``None``.  Intended for desk-scale inputs."""
    return next(_bruteforce_assignments(pi, ne_indices), None)


def descent_tops(pi: Permutation) -> tuple[Point, ...]:
    """Descent-top points ``(i, p(i))`` in increasing index order."""
    return tuple(Point(i, pi.entries[i - 1]) for i in descents(pi))


def descent_bottoms(pi: Permutation) -> tuple[Point, ...]:
    """Descent-bottom points ``(i+1, p(i+1))``, paired with the tops."""
    return tuple(Point(i + 1, pi.entries[i]) for i in descents(pi))


def ltr_minima(pi: Permutation) -> tuple[Point, ...]:
    """Left-to-right minima, in increasing index order: the points with no
    strictly lower point to their left."""
    out: list[Point] = []
    for p in pi.points():
        if not out or p.value < out[-1].value:
            out.append(p)
    return tuple(out)


# --- reduction -------------------------------------------------------------


def _kept(v: Vhc) -> set[int]:
    """Indices of the hook endpoints (the NE set and the descent tops) and
    the descent bottoms."""
    kept = set(v.ne_set)
    for i in descents(v.pi):
        kept.update((i, i + 1))
    return kept


def is_reduced(v: Vhc) -> bool:
    """True when every plot point is a hook endpoint or a descent bottom:
    the filter that ``vhc.reduced_count`` counts."""
    return len(_kept(v)) == v.pi.n


def restrict(v: Vhc) -> tuple[Vhc, tuple[int, ...]]:
    """Restrict to the hook endpoints and descent bottoms.

    Removes every point that is neither, renormalizes the survivors to a
    permutation of their count, and returns the restricted configuration
    together with the sorted tuple of surviving indices.  The result is
    always reduced.
    """
    kept = sorted(_kept(v))
    values = [v.pi.entries[i - 1] for i in kept]
    ranks = {val: r + 1 for r, val in enumerate(sorted(values))}
    sub = Permutation._trusted(tuple(ranks[val] for val in values))
    position = {old: new + 1 for new, old in enumerate(kept)}
    sub_ne = frozenset(position[i] for i in v.ne_set)
    return Vhc._trusted(sub, sub_ne), tuple(kept)


def is_reduced_by_matching(v: Vhc) -> bool:
    """Oracle for ``is_reduced``: every plot point is an endpoint of a
    hook of ``v.matching`` or a descent bottom."""
    ends = {p.index for hook in v.matching for p in hook}
    ends.update(p.index for p in descent_bottoms(v.pi))
    return len(ends) == v.pi.n


# --- map and order oracles ------------------------------------------------


def swl_at(pi: Permutation, height: int) -> Permutation:
    """Move the points southwest of the point at ``height`` left of the
    points northwest of it; everything from that point on is unchanged."""
    return Permutation(_slide(pi.entries, height, below_first=True))


def swr_at(pi: Permutation, height: int) -> Permutation:
    """Mirror of ``swl_at``: southwest block moves right of the northwest
    block."""
    return Permutation(_slide(pi.entries, height, below_first=False))


def nw_of(pi: Permutation, p: Point) -> Point:
    """The northwest representative of ``p``: the first left-to-right
    maximum at least as high.  In a 312-avoider it is weakly left of ``p``."""
    return next(m for m in ltr_maxima(pi) if m.value >= p.value)


def stripes(pi: Permutation) -> tuple[tuple[Point, ...], ...]:
    """Oracle for ``maps._stripe_ranges``: the fibers of ``nw_of``, point
    by point, bottom first and each left to right, so a stripe's head is its
    northwest representative."""
    maxima = ltr_maxima(pi)  # they rise left to right
    groups: dict[Point, list[Point]] = {m: [] for m in maxima}
    for p in pi.points():
        groups[nw_of(pi, p)].append(p)
    return tuple(tuple(groups[m]) for m in maxima)


def stripe_ends(pi: Permutation) -> dict[Point, Point]:
    """Each stripe's head, a left-to-right maximum, mapped to the stripe's
    rightmost point: the inverse of the northwest representative that the
    pullback picks."""
    return {s[0]: s[-1] for s in stripes(pi)}


def _point_with_value(pi: Permutation, value: int) -> Point:
    return Point(pi.entries.index(value) + 1, value)


def w_map_by_points(v: Vhc) -> Vhc:
    """Oracle for ``w_map``: slide with ``swl`` and send each northeast
    endpoint to the northwest representative of its image, point by
    point; the checked constructor rebuilds the image."""
    image = swl(v.pi)
    ne = {nw_of(image, _point_with_value(image, v.pi.entries[i - 1])).index
          for i in v.ne_set}
    return Vhc(image, ne)


def w_map_left_inverse_by_points(w: Vhc) -> PullbackResult:
    """Oracle for ``w_map_left_inverse``: slide back with ``swr`` and send
    each northeast endpoint, a stripe head, to its stripe's rightmost point,
    point by point."""
    tau = swr(w.pi)
    ends = stripe_ends(w.pi)
    ne = frozenset(
        _point_with_value(tau, ends[Point(i, w.pi.entries[i - 1])].value).index
        for i in w.ne_set
    )
    return PullbackResult(tau, ne, validate(tau, ne))


def pivot_points(v: Vhc, hook: Hook) -> tuple[Point, ...]:
    """Points that would swap a hook's endpoints under the pullback.

    A pivot of a hook with southwest endpoint A and northeast endpoint B is
    a plot point that forms a 132 pattern with A and the rightmost stripe
    point of B, in that index order.
    """
    if hook not in v.matching:
        raise ValueError(f"{hook} is not a hook of {v.to_json()}")
    a = hook.sw
    anchor = stripe_ends(v.pi)[hook.ne]
    if not a.index < anchor.index:
        return ()
    return tuple(
        p
        for p in v.pi.points()
        if p.index > anchor.index and a.value < p.value < anchor.value
    )


class Frame(NamedTuple):
    """Left-to-right maxima of a 312-avoider read right to left, with the
    gap counts between consecutive maxima.

    ``maxima`` runs from the top corner ``(n, n)`` down to the sentinel
    ``(0, 0)``; ``gammas[i]`` counts plot points strictly between maxima
    ``i+1`` and ``i`` horizontally, ``gamma_primes[i]`` counts points
    strictly between maxima ``i+2`` and ``i+1`` vertically, and
    ``letters[i]`` is ``U`` or ``E`` according to whether maximum ``i`` is
    a northeast hook endpoint.
    """

    maxima: tuple[Point, ...]
    gammas: tuple[int, ...]
    gamma_primes: tuple[int, ...]
    letters: tuple[str, ...]


def ll_frame(v: Vhc) -> Frame:
    """Oracle for the gaps that ``maps._ll_map`` reads into its paths:
    each gap is counted point by point, and the maxima are the points with
    no higher point to their left."""
    points = v.pi.points()
    maxima = tuple(
        p for p in reversed(points)
        if all(q.value < p.value for q in points[: p.index - 1])
    ) + (Point(0, 0),)
    right, left, below = maxima[:-2], maxima[1:-1], maxima[2:]
    return Frame(
        maxima,
        tuple(sum(m.index < p.index < r.index for p in points)
              for r, m in zip(right, left)),
        tuple(sum(b.value < p.value < m.value for p in points)
              for m, b in zip(left, below)),
        tuple("U" if r.index in v.ne_set else "E" for r in right),
    )


def motzkin_by_convolution(n_max: int) -> list[int]:
    """Oracle for ``motzkin_number``: M(0..n_max) by the recurrence
    M(k) = M(k-1) + sum of M(j) M(k-2-j) over j < k - 1 (a first step E,
    or a first U matched by the D that closes a path of length j)."""
    m = [1, 1]
    while len(m) <= n_max:
        k = len(m)
        m.append(m[k - 1] + sum(m[j] * m[k - 2 - j] for j in range(k - 1)))
    return m[: n_max + 1]


def lng_scan(p: MotzkinPath) -> tuple[int, ...]:
    """Oracle for ``lng_all``: from each non-D step, scan right until the
    height first comes back to where the step started."""
    rise = {"U": 1, "E": 0, "D": -1}
    out = []
    for start, s in enumerate(p.steps):
        if s == "D":
            continue
        h = 0
        for offset, t in enumerate(p.steps[start:]):
            h += rise[t]
            if h == 0:
                out.append(offset + 1)
                break
    return tuple(out)


@lru_cache(maxsize=None)
def paired_interval_count(order: str, n: int) -> int:
    """Oracle for ``count_intervals``: the pairs ``enumerate_intervals``
    would list, counted on the packed statistics without building them."""
    keyed, by_class, guard = _packed_paths(order, n)
    return sum(
        sum([(high - low) & guard == guard for high, _ in by_class[cls]])
        for cls, low, _ in keyed
    )


def is_dyck_prefix(word: str) -> bool:
    """True for words over {u, d} whose prefixes never have more d than u."""
    h = 0
    for ch in word:
        if ch == "u":
            h += 1
        elif ch == "d":
            h -= 1
        else:
            return False
        if h < 0:
            return False
    return True


def reconstruct(cls_word: str, supp: str) -> MotzkinPath | None:
    """Oracle for the claim that a path is recoverable from its class and
    support: rebuild the path with the given class and support, or
    ``None`` when the pair is inconsistent."""
    if not is_dyck_prefix(supp):
        return None
    if any(ch not in "UE" for ch in cls_word):
        return None
    if sum(1 for ch in supp if ch == "u") != len(cls_word):
        return None
    letters = iter(cls_word)
    steps = "".join("D" if ch == "d" else next(letters) for ch in supp)
    try:
        return MotzkinPath(steps)
    except ValueError:
        return None


def dyck_prefix_leq(a: str, b: str) -> bool:
    """Prefix-count order on equal-length Dyck prefixes: ``a <= b`` when
    every prefix of ``b`` has at least as many u's as the same prefix of
    ``a`` (``b`` lies weakly above ``a`` as a lattice path)."""
    if len(a) != len(b):
        raise ValueError("Dyck prefixes must have equal length")
    ca = cb = 0
    for x, y in zip(a, b):
        ca += x == "u"
        cb += y == "u"
        if cb < ca:
            return False
    return True


@pytest.fixture(scope="session")
def walk_table_small():
    return count_walks(16)
