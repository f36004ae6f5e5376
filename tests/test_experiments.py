import math
import random
import re
import time
from functools import partial

import pytest

from hookcomb.experiments import (
    _TAMARI_LIMIT,
    _log_concave,
    _unimodal,
    catalan,
    check_conjectures,
    check_eq2,
    check_tamari_image,
    real_rooted,
)
from hookcomb.motzkin import _INTERVAL_LIMIT, enumerate_intervals
from hookcomb.perm import PATTERN_132, PATTERN_312
from hookcomb.vhc import (
    _EXHAUSTIVE_LIMIT,
    _carrier_counts,
    _carrier_pattern,
    carriers,
    enumerate_vhcs,
    reduced_count,
    vhc_count_exhaustive,
)
from hookcomb.walks import (
    _KMAX_LIMIT,
    _TRIANGLE_LIMIT,
    AsymptoticFit,
    _hook_slot,
    _walk_counts,
    asymptotic_fit,
    count_walks,
    reduced_series,
    triangle,
)

from .conftest import (
    all_permutations,
    alternating_sum,
    configurations_on_avoiders,
    is_reduced,
    paired_interval_count,
    perm,
    vhc_tallies_312,
)


def three_dimensional_catalan(k: int) -> int:
    return 2 * math.factorial(3 * k) // (
        math.factorial(k) * math.factorial(k + 1) * math.factorial(k + 2)
    )


class TestTriangle:
    def test_rows_1_to_3(self):
        rows = triangle(3)
        assert [row.entries for row in rows] == [(1,), (3, 5), (14, 51, 42)]

    def test_first_column_formula(self):
        for row in triangle(_TRIANGLE_LIMIT[0]):
            k = row.k
            assert row.entries[0] == catalan(k) * catalan(k + 2) - catalan(k + 1) ** 2

    def test_diagonal_is_three_dimensional_catalan(self):
        for row in triangle(_TRIANGLE_LIMIT[0]):
            assert row.entries[-1] == three_dimensional_catalan(row.k)

    def test_alternating_row_sum_is_catalan(self):
        for row in triangle(_TRIANGLE_LIMIT[0]):
            k = row.k
            alternating = sum(
                (-1) ** (k - i) * e for i, e in enumerate(row.entries, start=1)
            )
            assert alternating == catalan(k)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            triangle(_TRIANGLE_LIMIT[0] + 1)

    def test_hook_refined_identity_matches_sweep(self):
        """reduced(n, h) = sum((-1)^i w(n-1-i, h)) for every n <= 12 and
        every h, read off the hook-weighted walk DP, equals the exhaustive
        histogram; the triangle rows are its band entries."""
        packed = reduced_series(_walk_counts(11, by_hooks=True))
        plain = reduced_series(count_walks(11))
        rows = {row.k: row.entries for row in triangle(5)}
        for n in range(13):
            derived = {h: _hook_slot(packed[n], h, 11) for h in range(n + 1)}
            assert sum(derived.values()) == plain[n]
            _, reduced = vhc_tallies_312(n)
            assert {h: c for h, c in derived.items() if c} == reduced, n
            for k, entries in rows.items():
                if 2 * k + 1 <= n <= 3 * k:
                    assert entries[n - 2 * k - 1] == derived[k]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_entries_zero_outside_band(self, n):
        """Reduced k-hook counts vanish unless 2k+1 <= n <= 3k."""
        _, reduced = vhc_tallies_312(n)
        for k, count in reduced.items():
            if count:
                assert 2 * k + 1 <= n <= 3 * k

    @pytest.mark.parametrize("n", range(1, 11))
    def test_hook_count_expansion(self, n):
        """Per-hook-count totals expand over the triangle by binomials."""
        rows = {row.k: row.entries for row in triangle(3)}
        total, _ = vhc_tallies_312(n)
        for k in range(1, 4):
            expected = sum(
                math.comb(n, 2 * k + i) * rows[k][i - 1] for i in range(1, k + 1)
            )
            assert total.get(k, 0) == expected


class TestReducedSeries:
    """The running series against the direct alternating sum."""

    def test_matches_direct_sum_to_400(self):
        walks = count_walks(399)
        reduced = reduced_series(walks)
        assert len(reduced) == 401
        assert reduced[0] == 1  # w(-1)
        for n in range(401):
            assert reduced[n] == alternating_sum(walks, n), n

    def test_matches_direct_sum_hook_weighted_to_60(self):
        walks = _walk_counts(59, by_hooks=True)
        reduced = reduced_series(walks)
        assert len(reduced) == 61
        for n in range(61):
            assert reduced[n] == alternating_sum(walks, n), n


class TestCarrierSweeps:
    """The sweeps over ``carriers`` against the same sums over every
    avoider."""

    @pytest.mark.parametrize(
        "sigma,n_max",
        [(sigma, 9) for sigma in all_permutations(3)]
        + [(perm(text), 7) for text in ("1324", "2413", "4231")],
        ids=str,
    )
    def test_count(self, sigma, n_max):
        expected = [sum(1 for _ in configurations_on_avoiders(n, sigma))
                    for n in range(n_max + 1)]
        assert vhc_count_exhaustive(n_max, sigma) == expected

    def test_reduced_count(self):
        expected = [sum(map(is_reduced, configurations_on_avoiders(n, PATTERN_312)))
                    for n in range(10)]
        assert reduced_count(9) == expected


#: the patterns whose sigma' has length 3: the four in S3 that do not end
#: in 3, and the six of length 4 that end in 4
COUNTED_PATTERNS = tuple(
    sigma
    for sigma in (*all_permutations(3), *(perm(f"{p}4") for p in all_permutations(3)))
    if _carrier_pattern(sigma).n == 3
)
#: the counts for 132 at sizes 0..14, its cap, took 0.13-0.22 s in a fresh
#: process on a 2-core Xeon (at n = 12 alone, 1.7 s when every
#: configuration was listed)
COUNT_AT_CAP_BUDGET_S = 1.0


def t_interval_count(n: int) -> int:
    """The T-intervals of length ``n`` by pairing lng vectors, not through
    the 132 count that ``count_intervals`` runs (1.1 s at n = 13, counted
    once per process)."""
    return paired_interval_count("T", n)


def listed_count(n: int, sigma, reduced: bool) -> int:
    """Oracle for ``_carrier_counts``: list the configurations on every
    carrier and keep the reduced ones when asked."""
    return sum(
        not reduced or is_reduced(v)
        for pi in carriers(n, sigma)
        for v in enumerate_vhcs(pi)
    )


class TestCarrierCount:
    """The memoized count against listing every configuration."""

    @pytest.mark.parametrize("sigma", COUNTED_PATTERNS, ids=str)
    def test_count(self, sigma):
        expected = [listed_count(n, sigma, False) for n in range(10)]
        assert _carrier_counts(9, sigma, reduced=False) == expected

    @pytest.mark.parametrize("sigma", COUNTED_PATTERNS, ids=str)
    def test_reduced_count(self, sigma):
        expected = [listed_count(n, sigma, True) for n in range(9)]
        assert _carrier_counts(8, sigma, reduced=True) == expected

    @pytest.fixture(scope="class")
    def reduced_312(self):
        return _carrier_counts(11, PATTERN_312, reduced=True)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_reduced_count_312(self, n, reduced_312):
        assert reduced_312[n] == listed_count(n, PATTERN_312, True)

    def test_132_counts_the_tamari_intervals(self):
        """An oracle through the paper's bijection: the configurations on
        132-avoiders of size n match the T-intervals of length n - 1."""
        cap = _EXHAUSTIVE_LIMIT[3][0]
        expected = [t_interval_count(n - 1) for n in range(1, cap + 1)]
        assert vhc_count_exhaustive(cap, PATTERN_132)[1:] == expected

    def test_negative_size_raises(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            vhc_count_exhaustive(-1, PATTERN_132)
        with pytest.raises(ValueError, match="n must be >= 0"):
            reduced_count(-1)

    def test_132_at_the_cap_within_budget(self):
        cap = _EXHAUSTIVE_LIMIT[3][0]
        start = time.perf_counter()
        counts = _carrier_counts(cap, PATTERN_132, reduced=False)
        assert time.perf_counter() - start < COUNT_AT_CAP_BUDGET_S
        assert counts[cap] == t_interval_count(cap - 1)


class TestExhaustiveCaps:
    @pytest.mark.parametrize(
        "text,cap", [("123", 2000), ("213", 2000), ("132", _EXHAUSTIVE_LIMIT[3][0]),
                     ("312", _EXHAUSTIVE_LIMIT[3][0]), ("1324", _EXHAUSTIVE_LIMIT[3][0]),
                     ("2413", 9), ("4231", 9), ("12354", 9)],
    )
    def test_refused_past_the_cap(self, text, cap):
        with pytest.raises(ValueError, match=f"n <= {cap}: "):
            vhc_count_exhaustive(cap + 1, perm(text))

    def test_shorter_patterns_share_the_length_2_cap(self):
        cap = _EXHAUSTIVE_LIMIT[2][0]
        for text in ("1", "12", "21"):
            with pytest.raises(ValueError, match=f"n <= {cap}"):
                vhc_count_exhaustive(cap + 1, perm(text))

    def test_length_2_carriers_count_at_the_cap(self):
        """123 leaves one configuration up to n = 3 and none past it (two
        descent tops before the last point cannot both close), 213 one at
        every size (the identity, with no hook)."""
        cap = _EXHAUSTIVE_LIMIT[2][0]
        assert vhc_count_exhaustive(cap, perm("123")) == [1] * 4 + [0] * (cap - 3)
        assert vhc_count_exhaustive(cap, perm("213")) == [1] * (cap + 1)

    def test_conjectures_refuse_before_the_triangle(self, monkeypatch):
        import hookcomb.experiments

        monkeypatch.setattr(hookcomb.experiments, "triangle", None)
        cap = _EXHAUSTIVE_LIMIT[3][0]
        with pytest.raises(ValueError, match=f"132-avoiders .* n <= {cap}"):
            check_conjectures(k_max=2, bruhat_n_max=cap + 1)


class TestEq2:
    def test_holds_exhaustively(self):
        report = check_eq2(n_max=8, k_max=2)
        assert all(entry["verdict"] == "holds" for entry in report)

    def test_small_values(self):
        assert reduced_count(6) == [1, 0, 0, 1, 0, 3, 5]

    def test_budget_guard(self):
        """``reduced_count`` runs the search of the exhaustive counts, so
        ``check_eq2`` shares their cap on 312-avoiders."""
        cap = _EXHAUSTIVE_LIMIT[3][0]
        report = check_eq2(n_max=cap, k_max=2)
        assert all(entry["verdict"] == "holds" for entry in report)
        with pytest.raises(ValueError, match=f"312-avoiders .* n <= {cap}: "):
            check_eq2(n_max=cap + 1, k_max=2)

    def test_refuses_before_the_triangle(self, monkeypatch):
        import hookcomb.experiments

        monkeypatch.setattr(hookcomb.experiments, "triangle", None)
        cap = _EXHAUSTIVE_LIMIT[3][0]
        with pytest.raises(ValueError, match=f"312-avoiders .* n <= {cap}: "):
            check_eq2(n_max=cap + 1, k_max=2)


class TestConjectures:
    def test_report_k3(self):
        report = check_conjectures(k_max=3, bruhat_n_max=6)
        by_check = {}
        for entry in report:
            by_check.setdefault(entry["check"], []).append(entry)
        assert len(by_check["conjecture1"]) == 3
        assert len(by_check["conjecture2"]) == 3
        assert len(by_check["conjecture3"]) == 3
        assert len(by_check["conjecture4"]) == 11  # comparable pairs in S3
        assert all(
            e["verdict"] == "holds" for entries in by_check.values() for e in entries
        )

    def test_312_column_reads_the_series(self, monkeypatch):
        import hookcomb.experiments

        swept = []
        real = hookcomb.experiments.vhc_count_exhaustive

        def counted(n_max, pattern):
            swept.append(pattern)
            return real(n_max, pattern)

        monkeypatch.setattr(hookcomb.experiments, "vhc_count_exhaustive", counted)
        report = check_conjectures(k_max=1, bruhat_n_max=7)
        assert PATTERN_312 not in swept
        # the other classes stay exhaustive, one range of sizes each
        assert len(swept) == len(set(swept)) == 5
        column = {
            e["tau"]: e["rhs"] for e in report if e["check"] == "conjecture4"
        }["312"]
        assert column == [str(c) for c in real(7, PATTERN_312)[1:]]

    def test_kmax_past_the_cap_is_refused_by_the_triangle(self):
        with pytest.raises(ValueError, match=f"k <= {_TRIANGLE_LIMIT[0]}: "):
            check_conjectures(k_max=_TRIANGLE_LIMIT[0] + 1, bruhat_n_max=9)

    def test_alternating_sum_row3(self):
        assert 14 - 51 + 42 == 5 == catalan(3)
        entry = [
            e
            for e in check_conjectures(k_max=3, bruhat_n_max=3)
            if e["check"] == "conjecture2" and e["k"] == 3
        ][0]
        assert entry["lhs"] == entry["rhs"] == "5"

    def test_pattern_counts_here_match_known_sequences(self):
        # 132-avoiders carry as many configurations as lng-order intervals
        assert vhc_count_exhaustive(6, perm("132"))[1:] == [1, 1, 2, 5, 14, 43]
        # 213-avoiders admit exactly one configuration at every size
        assert vhc_count_exhaustive(6, perm("213"))[1:] == [1] * 6

    def test_weaker_fallbacks_reject_broken_rows(self):
        assert _unimodal((1, 3, 3, 2)) and not _unimodal((1, 3, 2, 4))
        assert _log_concave((1, 2, 2)) and not _log_concave((1, 1, 2))


def _times(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _real_rooted_products(rng: random.Random, count: int):
    """Products of integer linear factors and of ``x^2 - d`` factors with
    ``d`` not a square, each with multiplicity 1 to 3, low degree first."""
    for _ in range(count):
        p = [rng.choice([1, -1, 2, -3])]
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.7:
                factor = [rng.randint(-6, 6), rng.choice([1, 2, 3, -1, -2])]
            else:
                factor = [-rng.choice([2, 3, 5, 6, 7, 8, 10, 12]), 0, 1]
            for _ in range(rng.randint(1, 3)):
                p = _times(p, factor)
        yield p


class TestSturm:
    def test_distinct_roots_of_products(self):
        # (x - 1)(x - 2)(x - 3) = x^3 - 6x^2 + 11x - 6
        assert real_rooted([-6, 11, -6, 1])

    def test_no_real_roots(self):
        assert not real_rooted([1, 0, 1])

    def test_double_root_is_real_rooted(self):
        # (x - 1)^2
        assert real_rooted([1, -2, 1])

    def test_irrational_roots(self):
        assert real_rooted([-2, 0, 1])  # x^2 - 2

    def test_mixed_not_real_rooted(self):
        # (x^2 + 1)(x - 1)
        assert not real_rooted([-1, 1, -1, 1])

    def test_constant_and_linear(self):
        assert real_rooted([5])
        assert real_rooted([3, 2])

    def test_known_roots(self):
        """1,000 seeded products with only real roots, many repeated, and
        each of them times ``x^2 + c`` with ``c > 0``, which has two
        complex roots."""
        rng = random.Random(2019)
        for p in _real_rooted_products(rng, 1000):
            assert real_rooted(p), p
            q = _times(p, [rng.randint(1, 9), 0, 1])
            assert not real_rooted(q), q

    def test_triangle_rows_are_real_rooted(self):
        rows = triangle(_TRIANGLE_LIMIT[0])
        assert len(rows) == _TRIANGLE_LIMIT[0]
        for row in rows:
            assert real_rooted(list(reversed(row.entries))), row.k


class TestTamariImage:
    def test_small_sweep(self):
        report = check_tamari_image(n_max=5)
        assert all(entry["verdict"] == "holds" for entry in report)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            check_tamari_image(n_max=11)

    def test_holds_at_the_cap(self):
        report = check_tamari_image(n_max=10)
        assert all(entry["verdict"] == "holds" for entry in report)

    def test_enumerated_configurations_are_not_rechecked(self, monkeypatch):
        """No configuration is validated again (``Vhc`` values are valid by
        construction) or pattern-guarded."""
        import hookcomb.maps

        guards, validations = [], []
        real_validate = hookcomb.maps.validate

        def counted_validate(pi, ne):
            validations.append(pi)
            return real_validate(pi, ne)

        monkeypatch.setattr(
            hookcomb.maps, "find_occurrence", lambda *args: guards.append(args)
        )
        monkeypatch.setattr(hookcomb.maps, "validate", counted_validate)
        report = check_tamari_image(n_max=6)
        assert all(entry["verdict"] == "holds" for entry in report)
        configurations = sum(
            int(e["rhs"]) for e in report if e["check"] == "tamari_injective"
        )
        assert configurations == 1 + 1 + 2 + 5 + 14 + 43
        assert guards == []
        assert validations == []

    def test_encoded_intervals_are_not_compared_again(self, monkeypatch):
        import hookcomb.motzkin

        calls = []
        real = hookcomb.motzkin.leq

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hookcomb.motzkin, "leq", counted)
        report = check_tamari_image(n_max=8)
        assert all(entry["verdict"] == "holds" for entry in report)
        assert calls == []


class TestFit:
    def test_synthetic_geometric(self, monkeypatch):
        counts = {n: 2**n for n in range(200, 401)}
        monkeypatch.setattr("hookcomb.walks.vhc312_series", lambda n_max: counts)
        fit = asymptotic_fit(200, 400)
        assert isinstance(fit, AsymptoticFit)
        assert abs(fit.growth_hat - 2.0) < 1e-6
        assert abs(fit.alpha_hat) < 1e-6
        assert fit.residual < 1e-9

    def test_synthetic_with_polynomial_correction(self, monkeypatch):
        counts = {n: round(3.0**n / n**2 * 1e6) for n in range(100, 200)}
        monkeypatch.setattr("hookcomb.walks.vhc312_series", lambda n_max: counts)
        fit = asymptotic_fit(100, 199)
        assert abs(fit.growth_hat - 3.0) < 1e-3
        assert abs(fit.alpha_hat - 2.0) < 1e-2

    def test_window_guard(self):
        with pytest.raises(ValueError):
            asymptotic_fit(100, 120)


@pytest.mark.parametrize("refuse,limit,far", [
    pytest.param(count_walks, _KMAX_LIMIT, 10**6, id="kmax"),
    pytest.param(triangle, _TRIANGLE_LIMIT, 10**6, id="triangle"),
    pytest.param(partial(check_eq2, k_max=2), _EXHAUSTIVE_LIMIT[3], 10**6, id="eq2"),
    pytest.param(check_tamari_image, _TAMARI_LIMIT, 10**6, id="tamari"),
    *(pytest.param(partial(vhc_count_exhaustive, pattern=perm(text)),
                   _EXHAUSTIVE_LIMIT[length], 10**6, id=f"exhaustive-{text}")
      for length, text in ((2, "213"), (3, "132"), (4, "4231"))),
    *(pytest.param(partial(enumerate_intervals, order), _INTERVAL_LIMIT[order], 3000,
                   id=f"intervals-{order}")
      for order in "SCT"),
])
def test_every_cap_states_its_cost(refuse, limit, far):
    """One size past each cap, and one far past it, are refused within
    0.5 s of CPU time, ending with the cap's cost, a measured cost in
    seconds: a refusal computes nothing that grows with the size.  The
    interval orders go to 3000, not 10**6: there a refusal that counted the
    paths takes seconds, not hours."""
    cap, cost = limit
    assert re.search(r"\b\d+(\.\d+)? s\b", cost), cost
    for n in (cap + 1, far):
        start = time.process_time()
        with pytest.raises(ValueError) as info:
            refuse(n)
        assert time.process_time() - start < 0.5, n
        assert str(info.value).endswith(f": {cost}"), str(info.value)
