"""Structural maps: sliding operators, stripe transfer, and interval codes.

The three families of maps implemented here:

* ``swl`` / ``swr`` slide, for each height ``h`` from ``n`` down to 1, the
  points southwest of the point at height ``h`` to the left (resp. right)
  of the points northwest of it.  They are mutually inverse bijections
  between 132-avoiding and 312-avoiding permutations and are only defined
  on those classes; out-of-class inputs raise with the offending
  occurrence.
* ``w_map`` transfers a hook configuration on a 132-avoider to one on the
  corresponding 312-avoider by sliding the permutation with ``swl`` and
  replacing each northeast endpoint with its *northwest representative*,
  the first left-to-right maximum at least as high.  Its fibers, the
  *stripes*, are value ranges: a maximum's stripe holds the values above
  the previous maximum, up to its own.  In a 312-avoider a stripe
  descends, so its rightmost point is its lowest, and every northeast
  endpoint is a maximum (a higher point left of the hook's descent top
  would form a 312 with the descent bottom and the endpoint, and one
  between the two would lie above the hook).  ``w_map`` is injective, and
  ``w_map_left_inverse`` undoes it by sending each endpoint to its stripe's
  rightmost point; applied to an arbitrary configuration on a 312-avoider,
  it reports whether the pulled back candidate is itself valid.  Both are
  lookups by value.  The tests check the ranges at every point of every
  312-avoider, and both maps against the point-by-point definitions on
  every configuration on the 132 and 312 carriers, for n <= 8.
* ``ll_map`` encodes a configuration on a 312-avoider as a pair of Motzkin
  paths read off the gaps between consecutive left-to-right maxima
  (horizontal gaps for the lower path, vertical gaps for the upper one).
  It is a bijection onto the class-order intervals, which ``ll_inverse``
  undoes by construction; ``phi`` further re-encodes an interval as a
  step-restricted pair of paths, and ``phi_inverse`` writes the upper path
  back from its support and its class.

Public functions check their permutation's pattern class once; a ``Vhc``
is valid by construction, so no function here checks a configuration
again.  The slide loop and the stripe ranges they share trust their input,
and so do the images they build.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .motzkin import (
    _DISPLACEMENT,
    Interval,
    MotzkinPath,
    leq,
    path_class,
    support,
)
from .perm import (
    PATTERN_132,
    PATTERN_312,
    Permutation,
    Point,
    find_occurrence,
    ltr_maxima,
)
from .vhc import Vhc, validate
from .walks import STEPS

#: coordinatewise step pairs allowed in a restricted path pair: the pairs
#: whose two displacements make a step of the walks, and the flat pair,
#: which the walk drops
ALLOWED_STEP_PAIRS = frozenset(
    (a, b)
    for a in _DISPLACEMENT
    for b in _DISPLACEMENT
    if (_DISPLACEMENT[a], _DISPLACEMENT[b]) in STEPS or a == b == "E"
)


def _require_avoiding(pi: Permutation, sigma: Permutation, op: str) -> None:
    occ = find_occurrence(pi, sigma)
    if occ is not None:
        values = tuple(pi.entries[i - 1] for i in occ)
        raise ValueError(
            f"{op} needs a {''.join(map(str, sigma.entries))}-avoiding "
            f"permutation; {pi} matches it at positions {occ} (values {values})"
        )


# --- sliding operators -----------------------------------------------------


def _slide(ent: tuple[int, ...], height: int, below_first: bool) -> tuple[int, ...]:
    """The word ``ent`` slid at ``height``; raises ``ValueError`` when
    ``height`` is not one of its values."""
    m = ent.index(height)
    below = tuple(v for v in ent[:m] if v < height)
    above = tuple(v for v in ent[:m] if v > height)
    first, second = (below, above) if below_first else (above, below)
    return first + second + ent[m:]


def _slide_all(pi: Permutation, below_first: bool) -> Permutation:
    """Slide at every height, ``n`` first; the caller checks the class."""
    ent = pi.entries
    for h in range(len(ent), 0, -1):
        ent = _slide(ent, h, below_first)
    return Permutation._trusted(ent)


def swl(tau: Permutation) -> Permutation:
    """Slide at every height n, n-1, ..., 1 (height n first).

    Defined on 132-avoiders only; maps onto the 312-avoiders.
    """
    _require_avoiding(tau, PATTERN_132, "swl")
    return _slide_all(tau, below_first=True)


def swr(pi: Permutation) -> Permutation:
    """Inverse of ``swl``: defined on 312-avoiders, maps onto 132-avoiders."""
    _require_avoiding(pi, PATTERN_312, "swr")
    return _slide_all(pi, below_first=False)


# --- stripes ---------------------------------------------------------------


def _stripe_ranges(ent: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """The stripes of a word as value ranges ``(low, high)``, bottom first:
    for each left-to-right maximum ``high``, the values above the previous
    maximum and at most ``high``, whose northwest representative it is."""
    top = 0
    for v in ent:
        if v > top:
            yield top + 1, v
            top = v


# --- configuration transfer ------------------------------------------------


def w_map(v: Vhc) -> Vhc:
    """Transfer a configuration on a 132-avoider to the slid permutation.

    The image configuration keeps the slid descent tops as southwest
    endpoints and replaces each northeast endpoint by the northwest
    representative of its slid image.  Distinct endpoints land in distinct
    stripes, so the transfer is injective.
    """
    _require_avoiding(v.pi, PATTERN_132, "w_map")
    return _w_map(v)


def _w_map(v: Vhc) -> Vhc:
    """``w_map`` of a configuration on a 132-avoider, unchecked; its
    image is a configuration (the tests rebuild every image for n <= 8)."""
    tau = v.pi
    image = _slide_all(tau, below_first=True)
    # each value's northwest representative, as a value
    head = {x: high for low, high in _stripe_ranges(image.entries)
            for x in range(low, high + 1)}
    pos = {x: i for i, x in enumerate(image.entries, 1)}
    ne = frozenset(pos[head[tau.entries[i - 1]]] for i in v.ne_set)
    return Vhc._trusted(image, ne)


class PullbackResult(NamedTuple):
    """Candidate preimage under ``w_map``; ``vhc`` is ``None`` when the
    pulled-back endpoint set is not a valid configuration."""

    perm: Permutation
    ne_indices: frozenset[int]
    vhc: Vhc | None

    @property
    def valid(self) -> bool:
        return self.vhc is not None


def w_map_left_inverse(w: Vhc) -> PullbackResult:
    """Pull a configuration on a 312-avoider back through ``w_map``.

    Always produces a candidate endpoint set (rightmost stripe points,
    slid back with ``swr``); on the image of ``w_map`` this recovers the
    original configuration, elsewhere the candidate may fail validation
    and is flagged instead of raising.
    """
    pi = w.pi
    _require_avoiding(pi, PATTERN_312, "w_map_left_inverse")
    tau = _slide_all(pi, below_first=False)
    bottom = {high: low for low, high in _stripe_ranges(pi.entries)}
    pos = {x: i for i, x in enumerate(tau.entries, 1)}
    # every northeast endpoint heads a stripe (module docstring)
    ne = frozenset(pos[bottom[pi.entries[i - 1]]] for i in w.ne_set)
    return PullbackResult(tau, ne, validate(tau, ne))


# --- interval codes --------------------------------------------------------


def ll_map(v: Vhc) -> Interval:
    """Encode a configuration on a 312-avoider as a class-order interval.

    The lower path interleaves the endpoint letters with the horizontal
    gap counts as down runs, the upper path uses the vertical gap counts;
    both have length ``n - 1``.
    """
    if v.pi.n < 1:
        raise ValueError("ll_map needs a nonempty permutation")
    _require_avoiding(v.pi, PATTERN_312, "ll_map")
    return _ll_map(v)


def _ll_map(v: Vhc) -> Interval:
    """``ll_map`` of a configuration on a 312-avoider, unchecked.  The
    left-to-right maxima run right to left from ``(n, n)`` to a sentinel
    ``(0, 0)``, and each but the last two writes its letter (``U`` for a
    northeast endpoint) to both paths, then one ``D`` per point strictly
    between it and the next maximum horizontally (lower path) or between
    the next two vertically (upper path); as every index and value holds
    one point, a gap is a difference.  Both paths carry the same letters,
    so they share a class, and the lower one's heights are nowhere above
    the upper one's (the tests rebuild every image through
    ``MotzkinPath(...)`` and ``Interval(...)`` for n <= 8)."""
    maxima = (*reversed(ltr_maxima(v.pi)), Point(0, 0))
    lower, upper = [], []
    for right, left, below in zip(maxima, maxima[1:], maxima[2:]):
        letter = "U" if right.index in v.ne_set else "E"
        lower.append(letter + "D" * (right.index - left.index - 1))
        upper.append(letter + "D" * (left.value - below.value - 1))
    trusted = MotzkinPath._trusted
    return Interval._trusted(trusted("".join(lower)), trusted("".join(upper)), "C")


def ll_inverse(interval: Interval) -> Vhc | None:
    """Invert ``ll_map``, or return ``None`` when the paths differ in class.

    The permutation has size ``n = len(lower) + 1``.  Right to left, its
    left-to-right maxima are one per letter and a last one at position 1.
    The letter at offset ``i`` of the lower path sits at position ``n - i``
    (``U`` marks a northeast endpoint); the first maximum has value ``n``,
    and the one after the letter at offset ``i`` of the upper path has
    value ``n - 1 - i``.  Every other point takes the largest unused value
    below the maximum ``m`` before it, the only choice that avoids 312: a
    larger unused value below ``m`` would come later and complete a 312
    with ``m`` and this point.  So the candidate is unique, and as
    ``ll_map`` is onto the class-order intervals, it is the preimage.
    """
    if path_class(interval.lower) != path_class(interval.upper):
        return None
    lower, upper = interval.lower.steps, interval.upper.steps
    n = len(lower) + 1
    lower_at = [i for i, s in enumerate(lower) if s != "D"]
    upper_at = [i for i, s in enumerate(upper) if s != "D"]
    positions = [n - i for i in lower_at] + [1]
    maximum_at = dict(zip(positions, [n] + [n - 1 - i for i in upper_at]))
    entries: list[int] = []
    below: list[int] = []  # unused values under the last maximum, ascending
    top = 0
    for i in range(1, n + 1):
        if i in maximum_at:
            below.extend(range(top + 1, maximum_at[i]))
            top = maximum_at[i]
            entries.append(top)
        else:
            entries.append(below.pop())
    ne = frozenset(n - i for i in lower_at if lower[i] == "U")
    return Vhc._trusted(Permutation._trusted(tuple(entries)), ne)


def phi(interval: Interval) -> tuple[MotzkinPath, MotzkinPath]:
    """Re-encode a class-order interval as a step-restricted path pair.

    The first output path records, position by position, how the supports
    of the two interval paths differ (U where the lower support is ``d``
    under a ``u``, D for the opposite, E where they agree); the second is
    the lower path itself.  The first is built unchecked: its height is
    the upper prefix's count of non-D steps less the lower one's, which a
    C-interval keeps nonnegative and ends at zero (the tests rebuild it
    through ``MotzkinPath(...)`` for every length n <= 7).
    """
    lower, upper = interval.lower, interval.upper
    if not leq("C", lower, upper):
        raise ValueError(f"({lower}, {upper}) is not a class-order interval")
    sl, su = support(lower), support(upper)
    x = "".join(
        "U" if a == "d" and b == "u" else "D" if a == "u" and b == "d" else "E"
        for a, b in zip(sl, su)
    )
    return MotzkinPath._trusted(x), lower


def phi_inverse(x: MotzkinPath, y: MotzkinPath) -> Interval:
    """Invert ``phi``: the upper path's support is the support of ``y``
    overridden wherever ``x`` is not flat, and its class is ``y``'s, so its
    ``u`` letters are, in order, the letters of that class.  Raises on
    pairs with a forbidden coordinatewise step.  The interval is built
    unchecked: ``phi`` is a bijection from the C-intervals onto the
    allowed pairs, so the upper path exists and lies above ``y`` (the
    tests rebuild it through ``Interval(...)`` for every allowed pair of
    length n <= 7)."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    for a, b in zip(x.steps, y.steps):
        if (a, b) not in ALLOWED_STEP_PAIRS:
            raise ValueError(f"forbidden step pair ({a}, {b})")
    target = ("u" if a == "U" else "d" if a == "D" else s
              for a, s in zip(x.steps, support(y)))
    letters = iter(path_class(y))
    upper = "".join(next(letters) if t == "u" else "D" for t in target)
    return Interval._trusted(y, MotzkinPath._trusted(upper), "C")
