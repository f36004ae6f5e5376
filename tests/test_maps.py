import time

import pytest

from hookcomb.maps import (
    ALLOWED_STEP_PAIRS,
    ll_inverse,
    ll_map,
    phi,
    phi_inverse,
    swl,
    swr,
    w_map,
    w_map_left_inverse,
)
from hookcomb.motzkin import Interval, MotzkinPath, enumerate_intervals, leq, lng_all
from hookcomb.perm import (
    PATTERN_132,
    PATTERN_312,
    Permutation,
    Point,
    avoiders,
    ltr_maxima,
)
from hookcomb.vhc import Hook, Vhc, carriers, enumerate_vhcs, validate

from .conftest import (
    contains_pattern,
    descent_tops,
    enumerate_restricted_pairs,
    identity,
    ll_frame,
    ltr_minima,
    nw_of,
    perm,
    pivot_points,
    stripe_ends,
    stripes,
    swl_at,
    swr_at,
    w_map_by_points,
    w_map_left_inverse_by_points,
)


def all_vhcs(n: int, pattern: Permutation):
    for pi in avoiders(n, pattern):
        yield from enumerate_vhcs(pi)


class TestSlideAt:
    def test_swl_at_height_5(self):
        assert str(swl_at(perm("379481562"), 5)) == "341798562"

    def test_swr_at_height_5(self):
        assert str(swr_at(perm("341798562"), 5)) == "798341562"

    def test_no_op_when_first(self):
        pi = perm("379481562")
        assert swl_at(pi, 3) == pi  # value 3 sits at position 1

    def test_height_out_of_range(self):
        with pytest.raises(ValueError):
            swl_at(perm("21"), 3)


class TestSlide:
    def test_swl_4213(self):
        assert str(swl(perm("4213"))) == "2143"

    def test_identity_fixed(self):
        pi = identity(6)
        assert swl(pi) == pi
        assert swr(pi) == pi

    def test_swl_rejects_132_with_witness(self):
        with pytest.raises(ValueError) as err:
            swl(perm("132"))
        assert "132" in str(err.value) and "(1, 2, 3)" in str(err.value)

    def test_swr_rejects_312(self):
        with pytest.raises(ValueError):
            swr(perm("312"))

    @pytest.mark.parametrize("n", range(8))
    def test_round_trips(self, n):
        for tau in avoiders(n, PATTERN_132):
            image = swl(tau)
            assert not contains_pattern(image, PATTERN_312)
            assert swr(image) == tau
        for pi in avoiders(n, PATTERN_312):
            assert swl(swr(pi)) == pi

    @pytest.mark.parametrize("n", range(1, 9))
    def test_descent_tops_map_to_descent_tops(self, n):
        for tau in avoiders(n, PATTERN_132):
            image = swl(tau)
            top_values = {p.value for p in descent_tops(image)}
            for p in descent_tops(tau):
                assert p.value in top_values
        for pi in avoiders(n, PATTERN_312):
            image = swr(pi)
            top_values = {p.value for p in descent_tops(image)}
            for p in descent_tops(pi):
                assert p.value in top_values

    @pytest.mark.parametrize("n", range(1, 8))
    def test_swr_preserves_declivities(self, n):
        for pi in avoiders(n, PATTERN_312):
            image = swr(pi)
            pos = {v: i for i, v in enumerate(image.entries)}
            ent = pi.entries
            for i in range(n):
                for j in range(i + 1, n):
                    if ent[i] > ent[j]:
                        assert pos[ent[i]] < pos[ent[j]]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_switch_characterization(self, n):
        """swr switches an ascending pair exactly when a later value falls
        strictly between it, and exactly when a single slide step does."""
        for pi in avoiders(n, PATTERN_312):
            ent = pi.entries
            image_pos = {v: i for i, v in enumerate(swr(pi).entries)}
            single = {}
            for h in range(1, n + 1):
                stepped = swr_at(pi, h)
                spos = {v: i for i, v in enumerate(stepped.entries)}
                for i in range(n):
                    for j in range(i + 1, n):
                        if spos[ent[i]] > spos[ent[j]]:
                            single[ent[i], ent[j]] = True
            for i in range(n):
                for j in range(i + 1, n):
                    a, b = ent[i], ent[j]
                    if a > b:
                        continue
                    switched = image_pos[a] > image_pos[b]
                    witness = any(a < ent[k] < b for k in range(j + 1, n))
                    assert switched == witness
                    assert switched == single.get((a, b), False)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_block_decomposition(self, n):
        """A 132-avoider splits as (values above the last entry), (values
        below it), (last entry); sliding swaps the blocks and recurses."""
        for tau in avoiders(n, PATTERN_132):
            last = tau.entries[-1]
            head = tau.entries[:-1]
            above = tuple(v for v in head if v > last)
            below = tuple(v for v in head if v < last)
            assert head == above + below  # forced by 132-avoidance
            expected = (
                _apply_normalized(swl, below)
                + _apply_normalized(swl, above)
                + (last,)
            )
            assert swl(tau).entries == expected


def _apply_normalized(func, values: tuple[int, ...]) -> tuple[int, ...]:
    """Apply a permutation map to a word on an arbitrary value set."""
    if not values:
        return ()
    ordered = sorted(values)
    ranks = {v: r + 1 for r, v in enumerate(ordered)}
    image = func(Permutation(tuple(ranks[v] for v in values)))
    return tuple(ordered[r - 1] for r in image.entries)


class TestNorthwest:
    def test_nw_in_2143(self):
        assert nw_of(perm("2143"), Point(4, 3)) == (3, 4)

    def test_nw_fixes_maxima(self):
        pi = perm("2143")
        for m in ltr_maxima(pi):
            assert nw_of(pi, m) == m

    def test_stripes_2143(self):
        s = stripes(perm("2143"))
        assert s == (((1, 2), (2, 1)), ((3, 4), (4, 3)))
        assert tuple(stripe[0] for stripe in s) == ((1, 2), (3, 4))

    def test_nw_inv_is_rightmost(self):
        ends = stripe_ends(perm("2143"))
        assert ends == {Point(3, 4): (4, 3), Point(1, 2): (2, 1)}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_nw_of_nw_inv_round_trip(self, n):
        for pi in avoiders(n, PATTERN_312):
            maxima = ltr_maxima(pi)
            ends = stripe_ends(pi)
            assert set(ends) == set(maxima)
            for m in maxima:
                assert nw_of(pi, ends[m]) == m

    @pytest.mark.parametrize("n", range(1, 9))
    def test_representative_lies_weakly_northwest(self, n):
        for pi in avoiders(n, PATTERN_312):
            for p in pi.points():
                m = nw_of(pi, p)
                assert m.index <= p.index and m.value >= p.value, (pi, p)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_stripes_descend_and_stack(self, n):
        for pi in avoiders(n, PATTERN_312):
            s = stripes(pi)
            for stripe in s:
                values = [p.value for p in stripe]
                assert values == sorted(values, reverse=True), (pi, stripe)
            tops = [stripe[0].value for stripe in s]
            assert tops == sorted(tops)
            for low, high in zip(s, s[1:]):
                assert max(p.value for p in low) < min(p.value for p in high)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stripe_structure_of_slid_avoiders(self, n):
        """In the slide image, the bottom stripe consists of images of
        left-to-right minima, and every higher stripe has exactly one
        non-minimum image, rightmost in its stripe."""
        for tau in avoiders(n, PATTERN_132):
            minima = {p.value for p in ltr_minima(tau)}
            decomposition = stripes(swl(tau))
            bottom = decomposition[0]
            assert all(p.value in minima for p in bottom)
            for stripe in decomposition[1:]:
                outsiders = [p for p in stripe if p.value not in minima]
                assert len(outsiders) == 1
                assert outsiders[0] == stripe[-1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stripes_are_value_ranges(self, n):
        """The stripe of a maximum holds the values above the previous
        maximum and at most it, and in a 312-avoider its rightmost point is
        the lowest: what the transfer reads instead of the stripes."""
        for pi in avoiders(n, PATTERN_312):
            highs = [m.value for m in ltr_maxima(pi)]
            lows = [top + 1 for top in [0, *highs[:-1]]]
            for low, high, stripe in zip(lows, highs, stripes(pi), strict=True):
                assert stripe[0].value == high, (pi, stripe)
                assert {p.value for p in stripe} == set(range(low, high + 1))
                assert stripe[-1].value == low, (pi, stripe)


class TestTransfer:
    def test_fixed_point(self):
        v = validate(perm("213"), {3})
        assert w_map(v) == v

    def test_identity_case(self):
        v = validate(identity(4), set())
        out = w_map(v)
        assert out.pi == identity(4) and out.ne_set == frozenset()

    def test_rejects_non_avoider(self):
        v = validate(perm("1324"), {4})
        assert v is not None
        with pytest.raises(ValueError):
            w_map(v)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_injective_with_distinct_stripes(self, n):
        images = set()
        for v in all_vhcs(n, PATTERN_132):
            w = w_map(v)
            assert Vhc(Permutation(w.pi.entries), w.ne_set) == w  # built unchecked
            assert len(w.ne_set) == len(v.ne_set)  # endpoints stay distinct
            key = (w.pi.entries, w.ne_set)
            assert key not in images
            images.add(key)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_point_by_point_maps(self, n):
        """On every configuration on the carriers, the lookups by value
        agree with the definitions through northwest representatives and
        stripes; the pullback's lookup also needs every northeast endpoint
        on a 312-avoider to head a stripe."""
        for tau in carriers(n, PATTERN_132):
            for v in enumerate_vhcs(tau):
                assert w_map(v) == w_map_by_points(v), v.to_json()
        for pi in carriers(n, PATTERN_312):
            for w in enumerate_vhcs(pi):
                assert w_map_left_inverse(w) == w_map_left_inverse_by_points(w), w.to_json()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_left_inverse_recovers(self, n):
        for v in all_vhcs(n, PATTERN_132):
            pulled = w_map_left_inverse(w_map(v))
            assert pulled.valid
            assert pulled.vhc == v


class TestIntervalCode:
    def test_worked_example(self):
        v = validate(perm("324156"), {3, 6})
        frame = ll_frame(v)
        assert frame.gammas == (0, 1, 1)
        assert frame.gamma_primes == (0, 0, 2)
        assert frame.letters == ("U", "E", "U")
        interval = ll_map(v)
        assert (str(interval.lower), str(interval.upper)) == ("UEDUD", "UEUDD")
        assert interval.order == "C"

    def test_identity_maps_to_flat_pair(self):
        for n in (1, 2, 5):
            v = validate(identity(n), set())
            interval = ll_map(v)
            assert str(interval.lower) == str(interval.upper) == "E" * (n - 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bijection_onto_class_intervals(self, n):
        image = {}
        for v in all_vhcs(n, PATTERN_312):
            interval = ll_map(v)
            key = (interval.lower.steps, interval.upper.steps)
            assert key not in image
            image[key] = v
        expected = {
            (iv.lower.steps, iv.upper.steps)
            for iv in enumerate_intervals("C", n - 1)
        }
        assert set(image) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_images_pass_the_public_check(self, n):
        # ll_map builds its interval and paths unchecked; the public
        # constructors agree
        for v in all_vhcs(n, PATTERN_312):
            interval = ll_map(v)
            rebuilt = [MotzkinPath(p.steps) for p in (interval.lower, interval.upper)]
            assert Interval(*rebuilt, "C") == interval

    @pytest.mark.parametrize("n", range(1, 8))
    def test_lookup_inverts(self, n):
        for v in all_vhcs(n, PATTERN_312):
            assert ll_inverse(ll_map(v)) == v

    @pytest.mark.parametrize("n", range(1, 10))
    def test_inverse_of_every_class_interval(self, n):
        for interval in enumerate_intervals("C", n - 1):
            v = ll_inverse(interval)
            assert Vhc(Permutation(v.pi.entries), v.ne_set) == v  # built unchecked
            assert ll_map(v) == interval

    def test_inverse_of_paths_in_different_classes_is_none(self):
        interval = Interval(MotzkinPath("EE"), MotzkinPath("UD"), "S")
        assert ll_inverse(interval) is None

    @pytest.mark.parametrize("n", range(1, 9))
    def test_hook_width_matches_lng(self, n):
        """Each hook's horizontal extent equals the lng statistic at its
        northeast endpoint's letter."""
        for v in all_vhcs(n, PATTERN_312):
            frame = ll_frame(v)
            lower = ll_map(v).lower
            lngs = lng_all(lower)
            for hook in v.matching:
                i = frame.maxima.index(hook.ne)  # maxima[i-1] is letter i
                assert lngs[i] == hook.ne.index - hook.sw.index


class TestPhi:
    def test_worked_example(self):
        interval = Interval(MotzkinPath("UEDUD"), MotzkinPath("UEUDD"), "C")
        x, y = phi(interval)
        assert (str(x), str(y)) == ("EEUDE", "UEDUD")

    def test_equal_pair_maps_to_flat(self):
        p = MotzkinPath("UEDUD")
        x, y = phi(Interval(p, p, "C"))
        assert str(x) == "E" * len(p) and y == p

    def test_allowed_pairs_are_derived_from_the_walk_steps(self):
        assert ALLOWED_STEP_PAIRS == {
            ("D", "E"), ("D", "U"), ("E", "D"), ("E", "E"), ("E", "U"), ("U", "D")
        }

    def test_output_respects_step_restriction(self):
        for n in range(7):
            for interval in enumerate_intervals("C", n):
                x, y = phi(interval)
                assert all(
                    pair in ALLOWED_STEP_PAIRS for pair in zip(x.steps, y.steps)
                )

    @pytest.mark.parametrize("n", range(8))
    def test_round_trips(self, n):
        # phi's x and phi_inverse's interval are built unchecked; the public
        # constructors agree
        for interval in enumerate_intervals("C", n):
            x, y = phi(interval)
            assert MotzkinPath(x.steps) == x
            back = phi_inverse(x, y)
            assert back.lower == interval.lower
            assert back.upper == interval.upper
        for x, y in enumerate_restricted_pairs(n):
            interval = phi_inverse(x, y)
            rebuilt = [MotzkinPath(p.steps) for p in (interval.lower, interval.upper)]
            assert Interval(*rebuilt, "C") == interval
            assert phi(interval) == (x, y)

    def test_rejects_an_interval_that_is_not_class_related(self):
        # EE <= UD in the S order, but their classes EE and U differ
        with pytest.raises(ValueError, match="not a class-order interval"):
            phi(Interval(MotzkinPath("EE"), MotzkinPath("UD"), "S"))

    def test_inverse_rejects_forbidden_pair(self):
        with pytest.raises(ValueError):
            phi_inverse(MotzkinPath("UD"), MotzkinPath("UD"))  # (U, U) step

    def test_inverse_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            phi_inverse(MotzkinPath("E"), MotzkinPath("EE"))


class TestPivotsAndTamari:
    def test_top_corner_hook_has_no_pivots(self):
        v = validate(perm("213"), {3})
        hook = v.matching[0]
        assert hook.ne == (3, 3)
        assert pivot_points(v, hook) == ()

    def test_foreign_hook_rejected(self):
        v = validate(perm("213"), {3})
        with pytest.raises(ValueError):
            pivot_points(v, Hook(Point(1, 1), Point(2, 2)))

    def test_unique_size6_invalid_pullback(self):
        """Sizes 6 has exactly one configuration whose code leaves the lng
        order (44 class intervals vs 43 lng intervals); its pullback is
        flagged invalid."""
        outside = [
            v
            for v in all_vhcs(6, PATTERN_312)
            if not leq("T", ll_map(v).lower, ll_map(v).upper)
        ]
        assert len(outside) == 1
        v = outside[0]
        assert v.to_json() == '{"perm":"214536","ne":[4,6]}'
        pulled = w_map_left_inverse(v)
        assert not pulled.valid
        assert str(pulled.perm) == "452136"

    @pytest.mark.parametrize("n", range(1, 8))
    def test_tamari_characterizes_valid_pullback(self, n):
        """The pulled-back configuration is valid exactly when the interval
        code lands in the lng order."""
        for v in all_vhcs(n, PATTERN_312):
            interval = ll_map(v)
            tamari = leq("T", interval.lower, interval.upper)
            assert w_map_left_inverse(v).valid == tamari

    @pytest.mark.parametrize("n", range(1, 8))
    def test_no_pivots_between_endpoint_and_bottom_when_tamari(self, n):
        for v in all_vhcs(n, PATTERN_312):
            interval = ll_map(v)
            if not leq("T", interval.lower, interval.upper):
                continue
            for hook in v.matching:
                bottom = Point(hook.sw.index + 1, v.pi.entries[hook.sw.index])
                for rho in pivot_points(v, hook):
                    assert not bottom.value < rho.value < hook.ne.value

    @pytest.mark.parametrize("n", range(1, 8))
    def test_gap_sums_witness_non_tamari(self, n):
        """When the code leaves the lng order, some stretch of gaps has the
        vertical sum exceeding the horizontal one while the horizontal sums
        stay under the rise counts."""
        for v in all_vhcs(n, PATTERN_312):
            interval = ll_map(v)
            lower, upper = interval.lower, interval.upper
            if leq("T", lower, upper):
                continue
            frame = ll_frame(v)
            lng_lo, lng_up = lng_all(lower), lng_all(upper)
            rises = [1 if x == "U" else 0 for x in frame.letters]
            bad = [i for i in range(len(rises)) if lng_lo[i] > lng_up[i]]
            assert bad
            for i in bad:
                found = False
                for k in range(len(rises) - i):
                    horiz = sum(frame.gammas[i : i + k + 1])
                    vert = sum(frame.gamma_primes[i : i + k + 1])
                    if horiz < vert and all(
                        sum(frame.gammas[i : i + j + 1])
                        < sum(rises[i : i + j + 1])
                        for j in range(k + 1)
                    ):
                        found = True
                        break
                assert found, (v.to_json(), i)


class TestGuards:
    """The pattern guard runs once per public call, not again in the steps
    that call builds on."""

    @pytest.fixture
    def guard_calls(self, monkeypatch):
        import hookcomb.maps

        calls = []
        real = hookcomb.maps.find_occurrence

        def counted(pi, sigma):
            calls.append(sigma)
            return real(pi, sigma)

        monkeypatch.setattr(hookcomb.maps, "find_occurrence", counted)
        return calls

    def test_one_guard_per_transfer(self, guard_calls):
        for v in all_vhcs(6, PATTERN_132):
            guard_calls.clear()
            w = w_map(v)
            assert guard_calls == [PATTERN_132]
            guard_calls.clear()
            w_map_left_inverse(w)
            assert guard_calls == [PATTERN_312]

    def test_one_guard_per_slide_and_code(self, guard_calls):
        for tau in avoiders(6, PATTERN_132):
            guard_calls.clear()
            pi = swl(tau)
            assert guard_calls == [PATTERN_132]
            guard_calls.clear()
            swr(pi)
            assert guard_calls == [PATTERN_312]
            for v in enumerate_vhcs(pi):
                guard_calls.clear()
                ll_map(v)
                assert guard_calls == [PATTERN_312]

    def test_no_guard_in_inverse_code(self, guard_calls):
        for interval in enumerate_intervals("C", 6):
            ll_inverse(interval)
        assert guard_calls == []


# A cubic guard would take minutes at this size.  With the replay of the
# extension rule, which quotes its own witness on a refusal, the three calls
# below took 57 ms (mostly the slides), 2 ms and 0.7 ms on a 2-core Xeon
# with Python 3.11, so the budget leaves room for a loaded machine.
SCALE_N = 1000
SCALE_BUDGET_S = 1.0


def _timed(func, *args):
    start = time.perf_counter()
    try:
        out = func(*args)
    except ValueError as exc:
        out = exc
    return out, time.perf_counter() - start


class TestScale:
    def test_swr_on_decreasing(self):
        pi = Permutation(tuple(range(SCALE_N, 0, -1)))
        image, seconds = _timed(swr, pi)
        assert seconds < SCALE_BUDGET_S
        assert swl(image) == pi

    def test_ll_map_on_a_large_configuration(self):
        m = (SCALE_N - 1) // 3
        interval = Interval(MotzkinPath("UDE" * m), MotzkinPath("UE" * m + "D" * m), "C")
        v = ll_inverse(interval)
        assert v.pi.n == SCALE_N and len(v.ne_set) == m
        image, seconds = _timed(ll_map, v)
        assert seconds < SCALE_BUDGET_S
        assert image == interval

    def test_refusal_with_the_only_occurrence_last(self):
        n = SCALE_N
        pi = Permutation(tuple(range(1, n - 2)) + (n, n - 2, n - 1))
        refusal, seconds = _timed(swr, pi)
        assert seconds < SCALE_BUDGET_S
        assert str(refusal).endswith(
            f"matches it at positions ({n - 2}, {n - 1}, {n}) "
            f"(values ({n}, {n - 2}, {n - 1}))"
        )
