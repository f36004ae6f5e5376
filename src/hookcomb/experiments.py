"""Identity checks and conjecture verdicts over exact counts.

The left sides of the identity checks are the configuration counts of
``vhc`` (``reduced_count``, ``vhc_count_exhaustive``) and the Tamari
image, which lists the configurations on each of ``vhc.carriers`` and maps
them; the right sides, the reduced series and the triangle rows, are read
off the walk table of ``walks``.  Everything is read-only over exact
counts.  Checkers return lists of JSON-serializable report entries such as

    {"check": "conjecture2", "k": 3, "lhs": "5", "rhs": "5", "verdict": "holds"}

Verified identities are asserted by the test suite; open conjectures are
only ever *reported* (a failing conjecture is a finding, not an error).
Big integers are stringified in reports so the output survives any JSON
reader.
"""

from __future__ import annotations

import math
from itertools import permutations

from .perm import PATTERN_132, PATTERN_312, Permutation, bruhat_leq
from .vhc import (_check_exhaustive, _exhaustive_limit, carriers, enumerate_vhcs,
                  reduced_count, vhc_count_exhaustive)
from .walks import count_walks, reduced_series, triangle, vhc312_series

#: the image sweep of ``check_tamari_image``: its largest size and its cost
#: at the cap
_TAMARI_LIMIT = (10, "0.42 s at n = 10 and 1.5 s at 11 on a 2-core Xeon")

_S3 = tuple(Permutation(p) for p in permutations((1, 2, 3)))


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


# --- identity checks -------------------------------------------------------


def _entry(check: str, lhs, rhs, **extra) -> dict:
    verdict = "holds" if lhs == rhs else "fails"
    out = {"check": check, **extra, "lhs": str(lhs), "rhs": str(rhs),
           "verdict": verdict}
    return out


def check_eq2(n_max: int, k_max: int) -> list[dict]:
    """Alternating-sum identity for reduced configuration counts.

    For each ``n <= n_max`` compares the exhaustive count of reduced
    configurations on 312-avoiders with term ``n`` of ``reduced_series``
    on the walk table, ``sum((-1)^i * w(n - i - 1))`` with ``w(-1) = 1``.
    Then cross-checks that the entries of triangle rows ``1..k_max``
    grouped by size (the triangle read along ``n = 2k + i``) sum to the
    same formula values.  Both caps are checked before any work.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _check_exhaustive(n_max, PATTERN_312)  # reduced_count's cap, before the triangle
    rows = triangle(k_max)
    formula = reduced_series(count_walks(max(n_max - 1, 0)))
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
