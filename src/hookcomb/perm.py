"""Permutations in one-line notation: patterns, descents, maxima, weak order.

Conventions used throughout the package:

* A permutation of size ``n`` is a word ``p(1) ... p(n)`` on the values
  ``1..n``.  Everything is 1-indexed, so the plot of a permutation is the
  point set ``{(i, p(i)) : 1 <= i <= n}`` with both coordinates in ``1..n``.
* A *descent* is a position ``i`` with ``p(i) > p(i+1)``; the point
  ``(i, p(i))`` is a descent top and ``(i+1, p(i+1))`` the descent bottom.
* Text form is comma-free for ``n <= 9`` (``"324156"``) and comma-separated
  for ``n >= 10`` (``"10,3,2,..."``).  Both forms are accepted on input.
* The empty permutation (``n = 0``) is legal and avoids every nonempty
  pattern.

``avoiders`` generates a class by backtracking over one-line prefixes, with
one extension rule for patterns of every length (see ``_avoider_words``),
so the search never enters a dead end.  The same rule guards the maps:
``find_occurrence`` replays it over a whole permutation in one pass and
quotes the occurrence that the rule holds where it refuses.

All values are immutable after construction and every operation here is
pure, so they are safe to call from concurrent workers.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .frozen import Frozen


class Point(NamedTuple):
    """A plot point ``(index, value)`` of a permutation."""

    index: int
    value: int


class Permutation(Frozen):
    """A permutation of ``1..n`` stored as a word in one-line notation.

    >>> Permutation((3, 2, 4, 1, 5, 6)).n
    6
    >>> str(Permutation((3, 2, 4, 1, 5, 6)))
    '324156'
    """

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __new__(cls, entries: tuple[int, ...]) -> "Permutation":
        entries = tuple(entries)
        n = len(entries)
        seen = bytearray(n + 1)
        for v in entries:
            # not ``isinstance``: a ``bool`` is no entry
            if type(v) is not int or not 1 <= v <= n or seen[v]:
                raise ValueError(f"not a permutation of 1..{n}: {entries!r}")
            seen[v] = 1
        return cls._trusted(entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def points(self) -> tuple[Point, ...]:
        return tuple(Point(i + 1, v) for i, v in enumerate(self.entries))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse one-line notation, with or without commas.

        >>> Permutation.from_text("324156").entries
        (3, 2, 4, 1, 5, 6)
        >>> Permutation.from_text("10,3,2,4,5,6,7,8,9,1").n
        10
        """
        text = text.strip()
        if not text:
            return cls(())
        if "," in text:
            return cls(tuple(int(part) for part in text.split(",")))
        if not text.isdigit() or "0" in text:
            raise ValueError(f"cannot parse permutation from {text!r}")
        return cls(tuple(int(ch) for ch in text))

    def __str__(self) -> str:
        if self.n >= 10:
            return ",".join(str(v) for v in self.entries)
        return "".join(str(v) for v in self.entries)


PATTERN_132 = Permutation((1, 3, 2))
PATTERN_312 = Permutation((3, 1, 2))


def find_occurrence(pi: Permutation, sigma: Permutation) -> tuple[int, int, int] | None:
    """1-based indices of an occurrence of a length-3 pattern ``sigma`` in
    ``pi``, or ``None`` when ``pi`` avoids it.  With the values left of a
    letter marked used, the unused ones are exactly those to its right, so
    ``pi`` avoids ``sigma`` iff ``_guard3`` lets every letter follow.  At
    the first letter it refuses, its witness is the occurrence quoted: the
    one whose middle letter is leftmost; among those, the least first value
    when sigma(1) < sigma(3), else the greatest; then the least last value.
    """
    if sigma.n != 3:
        raise ValueError(f"not a length-3 pattern: {sigma}")
    ent = pi.entries
    used = bytearray(pi.n + 1)
    refuses = _guard3(sigma.entries, used)
    for j, x in enumerate(ent):
        if witness := refuses(x):
            a, u = witness
            return ent.index(a) + 1, j + 1, ent.index(u, j) + 1
        used[x] = 1
    return None


def avoiders(n: int, sigma: Permutation) -> Iterator[Permutation]:
    """All ``sigma``-avoiding permutations of size ``n``, in lexicographic
    order of one-line notation: the words of ``_avoider_words``."""
    return map(Permutation._trusted, _avoider_words(n, sigma))


def _avoider_words(n: int, sigma: Permutation) -> Iterator[tuple[int, ...]]:
    """The entry tuples of the ``sigma``-avoiders of size ``n``, in
    lexicographic order, by backtracking over one-line prefixes.

    One extension rule serves a pattern of every length ``k >= 3``: an
    avoiding prefix extends to an avoider iff no unused value forms
    ``sigma`` as the last letter with ``k - 1`` prefix values.  That is
    plainly necessary.  It is sufficient because appending the unused values
    as a run, increasing when ``sigma(k-1) > sigma(k)`` and decreasing
    otherwise, makes no occurrence: one with two appended letters needs its
    last two in sigma's order, against the run, and one with a single
    appended letter breaks the rule.  A candidate is accepted iff the grown
    prefix keeps the rule (``_guard3`` for ``k = 3``, ``_guard`` for longer
    patterns), so every visited prefix reaches a leaf.  The tests check the
    words, in order, and the accepted extensions of every prefix against
    the filter-all oracle for S3 and S4 at every ``n <= 6``.  The words
    equal those of the earlier per-pattern guards for S3 at ``n <= 11`` (312:
    12), and of the earlier subset scan for S4, 52341, 24153 and 623451 at
    ``n <= 8``, with no dead end.  Length 1 occurs in every nonempty word;
    length 2 leaves one word, the monotone one with no pair in its order.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if sigma.n == 0 or (sigma.n == 1 and n > 0):
        # the empty pattern occurs in every word, a letter in every nonempty one
        return iter(())
    if n == 0:
        return iter([()])
    if sigma.n == 2:
        monotone = range(1, n + 1) if sigma.entries == (2, 1) else range(n, 0, -1)
        return iter([tuple(monotone)])

    used = bytearray(n + 1)
    prefix: list[int] = []
    if sigma.n == 3:
        refuses = _guard3(sigma.entries, used)
    else:
        refuses = _guard(sigma.entries, prefix, used)

    def rec() -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(1, n + 1):
            if used[v] or refuses(v):
                continue
            used[v] = 1
            prefix.append(v)
            yield from rec()
            prefix.pop()
            used[v] = 0

    return rec()


def _guard3(sig: tuple[int, ...], used: bytearray) -> Callable[[int], tuple[int, int] | None]:
    """Extension test for a length-3 pattern ``sigma``, read off the flags
    ``used[1..n]`` of the current prefix.

    Appending ``x`` newly forbids the values ``u`` with ``(a, x, u)``
    order-isomorphic to ``sigma`` for some prefix value ``a``.  Over all
    ``a`` these form one open interval: ``x`` bounds it on the side given by
    sigma(2) vs sigma(3), and ``a`` on the side given by sigma(1) vs
    sigma(3), where ``a`` is the smallest (``u`` above ``a``) or largest
    (``u`` below ``a``) used value on the side of ``x`` given by sigma(1) vs
    sigma(2).  ``refuses(x)`` is ``None`` when that interval holds no unused
    value, and else the witness ``(a, u)``, ``u`` its least unused value.
    """
    s1, s2, s3 = sig
    a_above = s1 > s2
    u_above_a = s1 < s3
    u_above_x = s2 < s3
    pick = used.find if u_above_a else used.rfind

    def refuses(x: int) -> tuple[int, int] | None:
        a = pick(1, x + 1) if a_above else pick(1, 1, x)
        if a < 0:
            return None
        lo, hi = (x, len(used)) if u_above_x else (0, x)
        if u_above_a:
            lo = max(lo, a)
        else:
            hi = min(hi, a)
        u = used.find(0, lo + 1, hi)
        return (a, u) if u > 0 else None

    return refuses


def _guard(sig: tuple[int, ...], prefix: list[int], used: bytearray) -> Callable[[int], bool]:
    """Extension test for a pattern ``sigma`` of length ``k >= 3``, read off
    the prefix and its flags ``used[1..n]``, both grown by the search:
    ``x`` is refused iff an unused ``u`` forms ``sigma`` with ``x`` as letter
    ``k - 1`` and ``k - 2`` prefix values.  Sigma's first letters are
    embedded into the prefix left to right, each strictly between the values
    of its nearest letters below and above it in ``sigma`` among ``x`` and
    those placed before it; a full embedding bounds ``u`` in the same way,
    to an open interval that excludes ``x``."""
    k = len(sig)
    at = [0] * (k + 1) + [len(used)]  # sigma's letter value -> word value
    bounds = []  # each letter to place, after x, with its nearest placed letters
    placed = {0, sig[-2], k + 1}  # 0 and k + 1 bound the values 1..n
    for s in (*sig[:-2], sig[-1]):
        bounds.append((s, max(t for t in placed if t < s), min(t for t in placed if t > s)))
        placed.add(s)

    def completes(depth: int, start: int) -> bool:
        s, below, above = bounds[depth]
        lo, hi = at[below], at[above]
        if depth == k - 2:
            return used.find(0, lo + 1, hi) >= 0
        for i in range(start, len(prefix) - (k - 3 - depth)):  # room for the later letters
            if lo < prefix[i] < hi:
                at[s] = prefix[i]
                if completes(depth + 1, i + 1):
                    return True
        return False

    def refuses(x: int) -> bool:
        at[sig[-2]] = x
        return completes(0, 0)

    return refuses


def ltr_maxima(pi: Permutation) -> tuple[Point, ...]:
    """Left-to-right maxima, in increasing index order: the points with no
    strictly higher point to their left."""
    out: list[Point] = []
    best = 0
    for p in pi.points():
        if p.value > best:
            out.append(p)
            best = p.value
    return tuple(out)


def _inversions(pi: Permutation) -> set[tuple[int, int]]:
    """Value pairs ``(a, b)`` with ``a > b`` and ``a`` left of ``b``."""
    ent = pi.entries
    return {(a, b) for i, a in enumerate(ent) for b in ent[i + 1 :] if a > b}


def bruhat_leq(sigma: Permutation, tau: Permutation) -> bool:
    """Right weak order: ``tau`` is reachable from ``sigma`` by swapping
    adjacent ascents, which holds iff every inversion of ``sigma``, taken
    as a pair of values, is an inversion of ``tau``."""
    if sigma.n != tau.n:
        raise ValueError(f"size mismatch: {sigma.n} vs {tau.n}")
    return _inversions(sigma) <= _inversions(tau)
