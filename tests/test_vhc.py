import itertools
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hookcomb.perm import PATTERN_132, PATTERN_312, Permutation, avoiders
from hookcomb.vhc import (_EXHAUSTIVE_LIMIT, Vhc, carriers, enumerate_vhcs,
                          reduced_count, validate)

from .conftest import (
    _bruteforce_assignments,
    all_permutations,
    contains_pattern,
    descents,
    identity,
    is_reduced,
    is_reduced_by_matching,
    perm,
    restrict,
    validate_bruteforce,
    vhc_tallies_312,
)


#: CPU seconds for every 123 carrier up to the cap (0.43 s measured)
ENUMERATE_123_BUDGET_S = 1.0


def ne_sets(v_iter) -> list[tuple[int, ...]]:
    return [tuple(sorted(v.ne_set)) for v in v_iter]


class TestValidate:
    def test_worked_configuration(self):
        v = validate(perm("3215647"), {4, 5, 7})
        assert v is not None
        assert [(tuple(h.sw), tuple(h.ne)) for h in v.matching] == [
            ((1, 3), (5, 6)),
            ((2, 2), (4, 5)),
            ((5, 6), (7, 7)),
        ]

    def test_no_descents_empty_set(self):
        v = validate(perm("1234"), set())
        assert v is not None and v.matching == ()

    def test_21_has_no_configuration(self):
        assert validate(perm("21"), {2}) is None

    def test_wrong_cardinality_is_invalid_not_error(self):
        assert validate(perm("3215647"), {4, 5}) is None

    def test_out_of_range_index_raises(self):
        with pytest.raises(ValueError):
            validate(perm("21"), {3})

    def test_construction_checks_the_set(self):
        """A hand-built ``Vhc`` is checked like ``validate``, but raises."""
        with pytest.raises(ValueError, match="not a valid hook configuration"):
            Vhc(perm("21"), frozenset({2}))
        with pytest.raises(ValueError, match="out of range"):
            Vhc(perm("21"), frozenset({3}))
        with pytest.raises(ValueError, match="index True out of range"):
            Vhc.from_json('{"perm":"213","ne":[3,true]}')  # a bool is no index
        with pytest.raises(ValueError, match="index True out of range"):
            validate(perm("213"), [1, True])  # even where a set folds it into 1
        with pytest.raises(ValueError, match="not a valid hook configuration"):
            Vhc.from_json('{"perm":"21","ne":[2]}')

    def test_empty_permutation(self):
        v = validate(Permutation(()), set())
        assert v is not None and v.matching == ()

    def test_json_round_trip(self):
        v = validate(perm("3215647"), {4, 5, 7})
        assert v.to_json() == '{"perm":"3215647","ne":[4,5,7]}'
        assert Vhc.from_json(v.to_json()) == v

    def test_configuration_is_its_ne_set(self):
        """Two fields; equality and hashing follow them, and the matching
        is derived."""
        assert Vhc.__slots__ == ("pi", "ne_set")
        v = validate(perm("3215647"), {4, 5, 7})
        w = Vhc(perm("3215647"), frozenset({4, 5, 7}))
        assert v == w and hash(v) == hash(w) and v.matching == w.matching


def agree_with_oracle(pi: Permutation, ne) -> bool:
    fast, slow = validate(pi, ne), validate_bruteforce(pi, ne)
    return (None if fast is None else fast.matching) == slow


def agree_on_all_subsets(n: int) -> None:
    for pi in all_permutations(n):
        for r in range(n + 1):
            for ne in itertools.combinations(range(1, n + 1), r):
                assert agree_with_oracle(pi, ne), (pi, ne)


class TestBruteforceOracle:
    def test_agrees_on_worked_configuration(self):
        pi = perm("3215647")
        assert validate_bruteforce(pi, {4, 5, 7}) == validate(pi, {4, 5, 7}).matching

    def test_agrees_on_no_descents(self):
        assert validate_bruteforce(perm("1234"), set()) == ()

    @pytest.mark.parametrize("n", range(6))
    def test_exhaustive_agreement_small(self, n):
        agree_on_all_subsets(n)

    def test_exhaustive_agreement_s7(self):
        """Full sweep at size 7: every permutation, every endpoint subset."""
        agree_on_all_subsets(7)

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(1, 8))), st.data())
    def test_agreement_random_n7(self, word, data):
        pi = Permutation(tuple(word))
        d = len(descents(pi))
        ne = data.draw(
            st.lists(st.integers(1, 7), min_size=d, max_size=d, unique=True)
        )
        assert agree_with_oracle(pi, ne)

    def test_at_most_one_valid_assignment(self):
        """For fixed endpoints the crossing-free, nothing-above drawing is
        unique; checked over every candidate on S5."""
        for pi in all_permutations(5):
            d = len(descents(pi))
            for ne in itertools.combinations(range(1, 6), d):
                assignments = list(_bruteforce_assignments(pi, ne))
                assert len(assignments) <= 1, (pi, ne)


class TestEnumerate:
    def test_identity_has_only_empty(self):
        assert ne_sets(enumerate_vhcs(perm("1234"))) == [()]

    def test_long_identity_needs_no_recursion(self):
        """The sweep keeps its own stack, so a size past Python's
        recursion limit of 1000 is no different."""
        pi = identity(2000)
        assert list(enumerate_vhcs(pi)) == [Vhc(pi, frozenset())]

    def test_123_carriers_to_the_cap_within_budget(self):
        """The 123 carriers ``(n-1, ..., 1, n)`` open a hook at almost every
        point until too few points are left to close them.  The branches
        share the open hooks, so a point costs the same however many are
        open: sizes 1..2000, the cap of ``count --pattern 123``, took 0.43 s
        of CPU on a 2-core Xeon, and 1.2 s when every point copied them."""
        cap = _EXHAUSTIVE_LIMIT[2][0]
        start = time.process_time()
        counts = [
            sum(1 for pi in carriers(n, perm("123")) for _ in enumerate_vhcs(pi))
            for n in range(1, cap + 1)
        ]
        assert time.process_time() - start < ENUMERATE_123_BUDGET_S
        # two descent tops before the last point cannot both close from n = 4
        assert counts == [1, 1, 1] + [0] * (cap - 3)

    def test_2134(self):
        assert ne_sets(enumerate_vhcs(perm("2134"))) == [(3,), (4,)]

    def test_sum_over_av4_132(self):
        total = sum(
            sum(1 for _ in enumerate_vhcs(pi)) for pi in avoiders(4, PATTERN_132)
        )
        assert total == 5

    @pytest.mark.parametrize("n", range(9))
    def test_matches_validate_filter(self, n):
        """The backtracking enumerator equals the validate-everything
        filter.  Endpoint sets of the wrong cardinality are always invalid,
        so filtering size-d subsets is the full subset filter."""
        for pi in all_permutations(n):
            d = len(descents(pi))
            expected = []
            for ne in itertools.combinations(range(1, n + 1), d):
                if validate(pi, ne) is not None:
                    expected.append(ne)
            assert ne_sets(enumerate_vhcs(pi)) == sorted(expected)

    def test_order_is_lexicographic_on_sorted_ne(self):
        for pi in all_permutations(6):
            got = ne_sets(enumerate_vhcs(pi))
            assert got == sorted(got)

    def test_last_entry_is_maximal_when_configurations_exist(self):
        for n in range(1, 8):
            for pi in all_permutations(n):
                if any(True for _ in enumerate_vhcs(pi)):
                    assert pi.entries[-1] == n

    def test_last_entry_maximal_over_size_9_avoider_classes(self):
        for pattern in (PATTERN_132, PATTERN_312):
            for pi in avoiders(9, pattern):
                if any(True for _ in enumerate_vhcs(pi)):
                    assert pi.entries[-1] == 9


CARRIER_PATTERNS = (
    Permutation(()), perm("1"), perm("12"), perm("21"),
    *all_permutations(3), *all_permutations(4),
)


class TestCarriers:
    @pytest.mark.parametrize("sigma", CARRIER_PATTERNS, ids=str)
    def test_matches_filtered_oracle(self, sigma):
        """The filter-all oracle's avoiders that end in their maximum, in
        order (all of them at n = 0).  The cheap test runs first."""
        for n in range(8):
            expected = [
                pi for pi in all_permutations(n)
                if (n == 0 or pi.entries[-1] == n) and not contains_pattern(pi, sigma)
            ]
            assert list(carriers(n, sigma)) == expected, (str(sigma), n)

    def test_negative_size_raises(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            carriers(-1, PATTERN_312)  # the call raises, not the first item


class TestReduction:
    def test_singleton_not_reduced(self):
        v = validate(perm("1"), set())
        assert not is_reduced(v)

    def test_213_reduced(self):
        assert is_reduced(validate(perm("213"), {3}))

    def test_restrict_2134(self):
        v = validate(perm("2134"), {4})
        reduced, kept = restrict(v)
        assert str(reduced.pi) == "213"
        assert sorted(reduced.ne_set) == [3]
        assert kept == (1, 2, 4)

    def test_restrict_fixes_reduced(self):
        v = validate(perm("213"), {3})
        reduced, kept = restrict(v)
        assert reduced == v
        assert kept == (1, 2, 3)

    def test_restrict_of_identity_empties(self):
        reduced, kept = restrict(validate(perm("12345"), set()))
        assert reduced.pi.n == 0 and kept == ()

    @pytest.mark.parametrize("n", range(8))
    def test_is_reduced_matches_the_matching_rule(self, n):
        """The NE set, descent tops and bottoms give the same verdict as
        the hook endpoints of the drawn matching, on every configuration
        of S_n."""
        for pi in all_permutations(n):
            for v in enumerate_vhcs(pi):
                assert is_reduced(v) == is_reduced_by_matching(v), v.to_json()

    def test_reduced_count_av3(self):
        reduced = [
            v
            for pi in avoiders(3, PATTERN_312)
            for v in enumerate_vhcs(pi)
            if is_reduced(v)
        ]
        assert len(reduced) == 1
        assert str(reduced[0].pi) == "213"

    @pytest.mark.parametrize("n", range(9))
    def test_restriction_bijection(self, n):
        """Restriction paired with the set of surviving values is injective
        on the 312-avoiding configurations and lands on reduced ones.

        The surviving index set does not separate configurations: already
        at size 4, (1324, {4}) and (2314, {4}) both restrict to
        ((213, {3}), indices {2, 3, 4}).  The surviving value sets there
        are {2, 3, 4} and {1, 3, 4}, and pairing with values is injective
        at every size tested."""
        seen = set()
        for pi in avoiders(n, PATTERN_312):
            for v in enumerate_vhcs(pi):
                reduced, kept = restrict(v)
                assert Vhc(Permutation(reduced.pi.entries), reduced.ne_set) == reduced
                assert is_reduced(reduced)
                values = tuple(sorted(pi.entries[i - 1] for i in kept))
                key = (reduced.pi.entries, tuple(sorted(reduced.ne_set)), values)
                assert key not in seen
                seen.add(key)

    def test_restriction_index_collision_witness(self):
        a = validate(perm("1324"), {4})
        b = validate(perm("2314"), {4})
        ra, ka = restrict(a)
        rb, kb = restrict(b)
        assert ra == rb and ka == kb == (2, 3, 4)
        values_a = {a.pi.entries[i - 1] for i in ka}
        values_b = {b.pi.entries[i - 1] for i in kb}
        assert values_a == {2, 3, 4} and values_b == {1, 3, 4}

    @pytest.mark.parametrize("n", range(1, 10))
    def test_binomial_expansion_identity(self, n):
        """Total configurations decompose over reduced ones by choosing
        the surviving index set."""
        total = sum(vhc_tallies_312(n)[0].values())
        assert total == sum(
            comb(n, r) * reduced for r, reduced in enumerate(reduced_count(n))
        )


class TestHookGeometry:
    def test_hook_requires_northeast_direction(self):
        # (2, 4) cannot hook to (4, 1): the endpoint is below
        assert validate_bruteforce(perm("3421"), {4}) is None

    def test_crossing_rejected(self):
        """2413: tops (2,4); hooking (2,4) to anything right must clear the
        interior maximum."""
        pi = perm("2413")
        d = len(descents(pi))
        assert d == 1
        valid = [
            ne
            for ne in itertools.combinations(range(1, 5), d)
            if validate_bruteforce(pi, ne) is not None
        ]
        assert valid == [
            ne
            for ne in itertools.combinations(range(1, 5), d)
            if validate(pi, ne) is not None
        ]
