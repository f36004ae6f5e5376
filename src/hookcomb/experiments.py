"""Identity checks, conjecture verdicts, the triangle, and growth fit.

The reduced-configuration triangle is no sweep: ``triangle`` reads it off
the hook-weighted walk DP of ``walks``.  The left sides of the identity
checks are the configuration counts of ``vhc`` (``reduced_count``,
``vhc_count_exhaustive``) and the Tamari image, which lists the
configurations on each of ``vhc.carriers`` and maps them.  Everything is
read-only over exact counts.  Checkers return lists of JSON-serializable
report entries such as

    {"check": "conjecture2", "k": 3, "lhs": "5", "rhs": "5", "verdict": "holds"}

Verified identities are asserted by the test suite; open conjectures are
only ever *reported* (a failing conjecture is a finding, not an error).
Big integers are stringified in reports so the output survives any JSON
reader.
"""

from __future__ import annotations

import math
from itertools import accumulate, permutations
from typing import NamedTuple

from .perm import PATTERN_132, PATTERN_312, Permutation, bruhat_leq
from .vhc import (_check_exhaustive, _exhaustive_limit, carriers, enumerate_vhcs,
                  reduced_count, vhc_count_exhaustive)
from .walks import _hook_slot, _walk_counts, count_walks, vhc312_series

#: each cap is its largest size and its cost at the cap: triangle rows and
#: the image sweep of ``check_tamari_image``
_TRIANGLE_LIMIT = (40, "check --suite conjectures took 1.2 s over rows 1..40, and the "
                       "rows with their Sturm checks 1.4 s over rows 1..41, on a 2-core Xeon")
_TAMARI_LIMIT = (10, "0.42 s at n = 10 and 1.5 s at 11 on a 2-core Xeon")
_MIN_FIT_POINTS = 50

_S3 = tuple(Permutation(p) for p in permutations((1, 2, 3)))


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def _reduced_series(walks: tuple[int, ...]) -> list[int]:
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
    """Rows ``1..k_max``, read off the hook-weighted walk DP.

    Through ``ll_map`` and ``phi`` the hooks of a configuration become the
    U letters of the lower path, that is the y-raising steps of its walk,
    and restricting to the hook endpoints and descent bottoms keeps every
    hook, so the identity of ``check_eq2`` refines by hook count:
    ``reduced(n, h) = sum((-1)^i * w(n-1-i, h))`` with ``w(-1, 0) = 1``,
    ``w(k, h)`` counting closed walks with ``h`` y-raising steps.  With
    each such step weighted by ``Z = 2^b`` term ``n`` of
    ``_reduced_series`` holds every ``reduced(n, h)`` in its ``b``-bit
    slot ``h`` (each is at most ``w(n-1, h) < Z``, since
    ``reduced(n) = w(n-1) - reduced(n-1)``); entry ``i`` of row ``k`` is
    slot ``k`` at ``n = 2k+i``.  Checked against exhaustive hook histograms
    for every ``(n, h)`` with ``n <= 12``, and the diagonal against the 3-D
    Catalan numbers through ``k = 40``.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    cap, cost = _TRIANGLE_LIMIT
    if k_max > cap:
        raise ValueError(f"triangle rows are capped at k <= {cap}: {cost}")
    length = 3 * k_max - 1
    reduced = _reduced_series(_walk_counts(length, by_hooks=True))
    return [
        TriangleRow(k, tuple(
            _hook_slot(reduced[2 * k + i], k, length) for i in range(1, k + 1)
        ))
        for k in range(1, k_max + 1)
    ]


# --- identity checks -------------------------------------------------------


def _entry(check: str, lhs, rhs, **extra) -> dict:
    verdict = "holds" if lhs == rhs else "fails"
    out = {"check": check, **extra, "lhs": str(lhs), "rhs": str(rhs),
           "verdict": verdict}
    return out


def check_eq2(n_max: int, k_max: int) -> list[dict]:
    """Alternating-sum identity for reduced configuration counts.

    For each ``n <= n_max`` compares the exhaustive count of reduced
    configurations on 312-avoiders with term ``n`` of ``_reduced_series``
    on the walk table, ``sum((-1)^i * w(n - i - 1))`` with ``w(-1) = 1``.
    Then cross-checks that the entries of triangle rows ``1..k_max``
    grouped by size (the triangle read along ``n = 2k + i``) sum to the
    same formula values.  Both caps are checked before any work.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _check_exhaustive(n_max, PATTERN_312)  # reduced_count's cap, before the triangle
    rows = triangle(k_max)
    formula = _reduced_series(count_walks(max(n_max - 1, 0)))
    report = [_entry("eq2", lhs, formula[n], n=n)
              for n, lhs in enumerate(reduced_count(n_max))]
    # the triangle grouped by size n = 2k + i must reproduce the formula,
    # but only where every contributing row has been computed
    for n in range(n_max + 1):
        ks = [k for k in range(1, n) if 2 * k + 1 <= n <= 3 * k]
        if not ks or ks[-1] > k_max:
            continue
        by_size = sum(rows[k - 1].entries[n - 2 * k - 1] for k in ks)
        report.append(_entry("eq2_triangle", by_size, formula[n], n=n))
    return report


def check_tamari_image(n_max: int) -> list[dict]:
    """The transferred-then-encoded configurations on 132-avoiders hit
    exactly the lng-order intervals one size down, bijectively."""
    # the only check that needs the maps, so the others never load them
    from .maps import _ll_map, _w_map
    from .motzkin import enumerate_intervals

    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cap, cost = _TAMARI_LIMIT
    if n_max > cap:
        raise ValueError(f"exhaustive image sweep capped at n <= {cap}: {cost}")
    report = []
    for n in range(1, n_max + 1):
        image = set()
        count = 0
        for tau in carriers(n, PATTERN_132):
            for v in enumerate_vhcs(tau):
                count += 1
                interval = _ll_map(_w_map(v))  # valid by construction
                image.add((interval.lower.steps, interval.upper.steps))
        tamari = {
            (iv.lower.steps, iv.upper.steps)
            for iv in enumerate_intervals("T", n - 1)
        }
        report.append(
            _entry(
                "tamari_image",
                "equal" if image == tamari else "different",
                "equal",
                n=n,
            )
        )
        report.append(_entry("tamari_injective", len(image), count, n=n))
        report.append(_entry("tamari_cardinality", count, len(tamari), n=n))
    return report


# --- conjectures -----------------------------------------------------------


def check_conjectures(k_max: int, bruhat_n_max: int) -> list[dict]:
    """Verdicts for the four open patterns in the data.

    1. The last entry of row ``k`` equals ``2 (3k)! / (k! (k+1)! (k+2)!)``.
    2. The alternating row sum equals the Catalan number ``C(k)``.
    3. The row polynomial ``sum(entries[i] * x**(k-1-i))`` has only real
       roots (checked with one exact Sturm chain, ``real_rooted``;
       unimodality and log-concavity are reported alongside as weaker
       fallbacks).
    4. For size-3 patterns ordered by the weak order, avoiding the larger
       pattern leaves at least as many hook configurations, size by size.

    Everything lands in the report; nothing raises on a failed conjecture.
    """
    if bruhat_n_max < 1:
        raise ValueError("bruhat_n_max must be >= 1")
    # the tightest of the six classes' caps binds
    _check_exhaustive(bruhat_n_max, min(_S3, key=lambda s: _exhaustive_limit(s)[0]))
    report = []
    for row in triangle(k_max):
        k = row.k
        three_dim_catalan = (
            2 * math.factorial(3 * k)
            // (math.factorial(k) * math.factorial(k + 1) * math.factorial(k + 2))
        )
        report.append(
            _entry("conjecture1", row.entries[-1], three_dim_catalan, k=k)
        )
        alternating = sum(
            (-1) ** (k - i) * e for i, e in enumerate(row.entries, start=1)
        )
        report.append(_entry("conjecture2", alternating, catalan(k), k=k))
        coeffs = list(reversed(row.entries))  # low degree first
        rooted = real_rooted(coeffs)
        report.append(
            {
                "check": "conjecture3",
                "k": k,
                "real_rooted": rooted,
                "unimodal": _unimodal(row.entries),
                "log_concave": _log_concave(row.entries),
                "verdict": "holds" if rooted else "fails",
            }
        )
    # the 312 column is the walk series, which criterion 03 checks against
    # the exhaustive count; the other five classes are swept
    counts = {sigma: vhc_count_exhaustive(bruhat_n_max, sigma)[1:]
              for sigma in _S3 if sigma != PATTERN_312}
    counts[PATTERN_312] = list(vhc312_series(bruhat_n_max)[1:])
    for sigma in _S3:
        for tau in _S3:
            if sigma == tau or not bruhat_leq(sigma, tau):
                continue
            lo, hi = counts[sigma], counts[tau]
            ok = all(a <= b for a, b in zip(lo, hi))
            report.append(
                {
                    "check": "conjecture4",
                    "sigma": str(sigma),
                    "tau": str(tau),
                    "n_max": bruhat_n_max,
                    "lhs": [str(c) for c in lo],
                    "rhs": [str(c) for c in hi],
                    "verdict": "holds" if ok else "fails",
                }
            )
    return report


def _unimodal(entries: tuple[int, ...]) -> bool:
    rising = True
    for a, b in zip(entries, entries[1:]):
        if rising and b < a:
            rising = False
        elif not rising and b > a:
            return False
    return True


def _log_concave(entries: tuple[int, ...]) -> bool:
    return all(
        entries[i] ** 2 >= entries[i - 1] * entries[i + 1]
        for i in range(1, len(entries) - 1)
    )


# --- exact real-rootedness (one integer Sturm chain) ------------------------


def _trim(poly: list[int]) -> list[int]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _negated_remainder(a: list[int], b: list[int]) -> list[int]:
    """``-(a mod b)`` times a positive integer: each step scales by |lc(b)|."""
    if b[-1] < 0:
        b = [-c for c in b]
    while len(a) >= len(b):
        lead, shift = a[-1], len(a) - len(b)
        a = [b[-1] * c for c in a]
        for i, c in enumerate(b):
            a[i + shift] -= lead * c
        _trim(a)
    return [-c for c in a]


def real_rooted(coeffs: list[int]) -> bool:
    """True when every complex root of an integer polynomial (low degree
    first) is real.  By Sturm's theorem, which needs no square-free ``p``,
    the chain ``p, p', -rem(p, p'), ...`` ends in ``gcd(p, p')`` and
    ``V(-inf) - V(+inf)`` counts the distinct real roots, so ``p`` is
    real-rooted iff that is ``deg p - deg gcd``.  Checked against known-root
    products in the tests, and against the earlier Fraction chain on 4,000
    seeded polynomials, 2,046 of them with repeated roots."""
    chain = [_trim(list(coeffs))]
    if len(chain[0]) <= 2:
        return True
    chain.append([i * c for i, c in enumerate(chain[0]) if i])
    while remainder := _trim(_negated_remainder(chain[-2], chain[-1])):
        content = math.gcd(*remainder)
        chain.append([c // content for c in remainder])
    plus = [p[-1] > 0 for p in chain]
    minus = [s == (len(p) % 2 == 1) for s, p in zip(plus, chain)]
    v_minus, v_plus = (sum(a != b for a, b in zip(s, s[1:])) for s in (minus, plus))
    return v_minus - v_plus == len(chain[0]) - len(chain[-1])


# --- asymptotic growth fit --------------------------------------------------


class AsymptoticFit(NamedTuple):
    """Least-squares fit of ``log f(n) ~ n log(growth) - alpha log n + c``."""

    growth_hat: float
    alpha_hat: float
    window: tuple[int, int]
    residual: float


def asymptotic_fit(
    n_lo: int, n_hi: int, counts: dict[int, int] | tuple[int, ...] | None = None
) -> AsymptoticFit:
    """Fit the growth constant and polynomial correction of the exact
    312-avoiding configuration counts over ``n_lo..n_hi``.

    ``counts`` may supply precomputed (or synthetic) exact values indexed
    by ``n``; by default they are read off one ``vhc312_series``, which
    builds the walk table once.  Exact integers are used throughout and
    converted to floating point only at the final log stage.
    """
    if n_lo < 1:
        raise ValueError("window must start at n >= 1")
    if n_hi - n_lo + 1 < _MIN_FIT_POINTS:
        raise ValueError(f"window too small: need >= {_MIN_FIT_POINTS} points")
    if counts is None:
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
