import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hookcomb.perm import (
    PATTERN_132,
    PATTERN_312,
    Permutation,
    avoiders,
    bruhat_leq,
    find_occurrence,
    _guard,
    _guard3,
    ltr_maxima,
)

from .conftest import (
    all_permutations,
    brute_avoiders,
    catalan,
    contains_pattern,
    descent_bottoms,
    descent_tops,
    identity,
    ltr_minima,
    perm,
)

ALL_S3 = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
S4_TEXTS = ["".join(map(str, p)) for p in itertools.permutations((1, 2, 3, 4))]


class TestConstruction:
    def test_round_trip_compact(self):
        assert str(perm("324156")) == "324156"

    def test_round_trip_commas(self):
        word = tuple([10] + list(range(1, 10)))
        pi = Permutation(word)
        assert str(pi) == "10,1,2,3,4,5,6,7,8,9"
        assert Permutation.from_text(str(pi)) == pi

    def test_comma_form_accepted_for_small(self):
        assert Permutation.from_text("3,2,1") == perm("321")

    def test_empty(self):
        assert Permutation.from_text("").n == 0

    @pytest.mark.parametrize("bad", [(1, 1), (2,), (0, 1), (1, 2, 4), (True, 2)])
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    def test_rejects_zero_digit_text(self):
        with pytest.raises(ValueError):
            Permutation.from_text("102")


class TestPatterns:
    def test_324156_avoids_312(self):
        assert not contains_pattern(perm("324156"), PATTERN_312)

    def test_increasing_avoids_21(self):
        assert not contains_pattern(perm("123"), perm("21"))

    def test_2143_contains_132(self):
        # 2, 4, 3 at positions (1, 3, 4) and 1, 4, 3 at (2, 3, 4) share the
        # leftmost middle letter, 4; the least first value, 1, is quoted
        assert contains_pattern(perm("2143"), PATTERN_132)
        assert find_occurrence(perm("2143"), PATTERN_132) == (2, 3, 4)

    @pytest.mark.parametrize("sigma", ALL_S3, ids=str)
    def test_agrees_with_brute_force(self, sigma, s3_quoted_occurrences):
        """The replay of the extension rule gives the verdict and quotes the
        occurrence that the brute force over every 3-subset of positions
        picks, for every permutation of size <= 8."""
        for pi, quoted in s3_quoted_occurrences.items():
            assert find_occurrence(pi, sigma) == quoted.get(sigma), pi

    def test_only_length_3_patterns(self):
        for sigma in (Permutation(()), perm("21"), perm("1324")):
            with pytest.raises(ValueError, match="not a length-3 pattern"):
                find_occurrence(perm("2143"), sigma)

    def test_empty_pattern_trivially_contained(self):
        assert contains_pattern(perm("1"), Permutation(()))
        assert contains_pattern(Permutation(()), Permutation(()))

    @given(st.permutations(list(range(1, 8))), st.data())
    def test_monotone_under_subsequence_deletion(self, word, data):
        """A pattern found in a subsequence is found in the whole word."""
        pi = Permutation(tuple(word))
        k = data.draw(st.integers(2, pi.n))
        positions = sorted(
            data.draw(
                st.lists(
                    st.integers(0, pi.n - 1), min_size=k, max_size=k, unique=True
                )
            )
        )
        sub_values = [pi.entries[i] for i in positions]
        ranks = {v: r + 1 for r, v in enumerate(sorted(sub_values))}
        sub = Permutation(tuple(ranks[v] for v in sub_values))
        for sigma in ALL_S3:
            if contains_pattern(sub, sigma):
                assert contains_pattern(pi, sigma)


class TestAvoiders:
    @pytest.mark.parametrize("sigma", ALL_S3)
    @pytest.mark.parametrize("n", range(7))
    def test_matches_filter_oracle(self, n, sigma):
        expected = brute_avoiders(n, sigma)
        got = list(avoiders(n, sigma))
        assert got == expected  # same set, same (lexicographic) order

    def test_av4_132_is_catalan(self):
        assert sum(1 for _ in avoiders(4, PATTERN_132)) == 14 == catalan(4)

    def test_av5_312_is_catalan(self):
        assert sum(1 for _ in avoiders(5, PATTERN_312)) == 42 == catalan(5)

    def test_empty_size_yields_empty_permutation(self):
        assert list(avoiders(0, PATTERN_312)) == [Permutation(())]

    def test_empty_pattern_yields_nothing(self):
        assert list(avoiders(3, Permutation(()))) == []

    @pytest.mark.parametrize("sigma", ALL_S3)
    def test_catalan_counts_to_8(self, sigma):
        for n in range(9):
            assert sum(1 for _ in avoiders(n, sigma)) == catalan(n)

    def test_lexicographic_order(self):
        words = [pi.entries for pi in avoiders(6, PATTERN_312)]
        assert words == sorted(words)

    @pytest.mark.parametrize(
        "text", ["1", "12", "21", *S4_TEXTS, "52341", "24153", "623451"]
    )
    def test_other_lengths_match_filter_oracle(self, text):
        """Lengths 1 and 2 are answered directly (length 2 checked up to
        n = 8); longer patterns take ``_guard``."""
        sigma = perm(text)
        for n in range(9 if sigma.n == 2 else 7):
            assert list(avoiders(n, sigma)) == brute_avoiders(n, sigma), n

    @staticmethod
    def assert_no_dead_ends(n, sigma, guard):
        """``refuses(x)`` is false exactly when prefix + x begins an avoider."""
        members = [pi.entries for pi in brute_avoiders(n, sigma)]
        prefixes = {word[:i] for word in members for i in range(n + 1)}
        for prefix in prefixes:
            used = bytearray(n + 1)
            for v in prefix:
                used[v] = 1
            refuses = guard(sigma.entries, list(prefix), used)
            for x in range(1, n + 1):
                if not used[x]:
                    assert (not refuses(x)) == (prefix + (x,) in prefixes)

    @pytest.mark.parametrize("sigma", ALL_S3)
    @pytest.mark.parametrize("n", range(7))
    def test_length_3_guard_has_no_dead_ends(self, n, sigma):
        self.assert_no_dead_ends(n, sigma, lambda sig, prefix, used: _guard3(sig, used))

    @pytest.mark.parametrize("text", S4_TEXTS)
    def test_guard_has_no_dead_ends(self, text):
        for n in range(7):
            self.assert_no_dead_ends(n, perm(text), _guard)

    @pytest.mark.parametrize("sigma", ALL_S3, ids=str)
    def test_guard_agrees_with_length_3_guard(self, sigma):
        """Two implementations of one rule: on every prefix of every
        permutation of size at most 6, they refuse the same values, and each
        witness ``(a, u)`` of ``_guard3`` forms ``sigma`` with ``x``, ``a``
        from the prefix and ``u`` from the values left."""
        for n in range(7):
            prefixes = {word[:i] for word in itertools.permutations(range(1, n + 1))
                        for i in range(n + 1)}
            for prefix in prefixes:
                used = bytearray(n + 1)
                for v in prefix:
                    used[v] = 1
                refuses = _guard(sigma.entries, list(prefix), used)
                refuses3 = _guard3(sigma.entries, used)
                for x in range(1, n + 1):
                    if not used[x]:
                        witness = refuses3(x)
                        assert refuses(x) == (witness is not None), (prefix, x)
                        if witness:
                            a, u = witness
                            assert used[a] and not used[u], (prefix, x)
                            word = (a, x, u)
                            ranks = tuple(sorted(word).index(v) + 1 for v in word)
                            assert ranks == sigma.entries, (prefix, x)

    def test_generated_words_pass_the_public_check(self):
        # avoiders skips the constructor's check; the words must still pass it
        for sigma in ALL_S3 + [perm("1324")]:
            for pi in avoiders(6, sigma):
                assert Permutation(pi.entries) == pi
        with pytest.raises(ValueError):
            Permutation((1, 3, 3))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            avoiders(-1, PATTERN_312)  # the call raises, not the first item


class TestDescentsAndExtrema:
    def test_descent_tops_3215647(self):
        assert descent_tops(perm("3215647")) == ((1, 3), (2, 2), (5, 6))

    def test_descent_tops_increasing(self):
        assert descent_tops(perm("1234")) == ()

    def test_descent_tops_324156(self):
        assert descent_tops(perm("324156")) == ((1, 3), (3, 4))

    @given(st.permutations(list(range(1, 9))))
    def test_tops_and_bottoms_pair_up(self, word):
        pi = Permutation(tuple(word))
        tops = descent_tops(pi)
        bottoms = descent_bottoms(pi)
        assert len(tops) == len(bottoms)
        for top, bottom in zip(tops, bottoms):
            assert bottom.index == top.index + 1
            assert bottom.value < top.value

    def test_maxima_324156(self):
        assert ltr_maxima(perm("324156")) == (
            (1, 3),
            (3, 4),
            (5, 5),
            (6, 6),
        )

    def test_maxima_of_increasing_is_everything(self):
        pi = identity(5)
        assert ltr_maxima(pi) == pi.points()

    def test_minima_2143(self):
        assert ltr_minima(perm("2143")) == ((1, 2), (2, 1))


class TestWeakOrder:
    def test_single_cover(self):
        assert bruhat_leq(perm("132"), perm("312"))

    def test_reflexive(self):
        for sigma in ALL_S3:
            assert bruhat_leq(sigma, sigma)

    def test_not_downward(self):
        assert not bruhat_leq(perm("312"), perm("132"))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bruhat_leq(perm("12"), perm("123"))

    @pytest.mark.parametrize("n", range(6))
    def test_equals_reachability_by_ascent_swaps(self, n):
        """The inversion-set test against a breadth-first search over
        adjacent-ascent swaps, for every pair of size ``n``."""
        for sigma in all_permutations(n):
            reached = {sigma.entries}
            frontier = [sigma.entries]
            while frontier:
                nxt = []
                for ent in frontier:
                    for i in range(n - 1):
                        if ent[i] < ent[i + 1]:
                            up = ent[:i] + (ent[i + 1], ent[i]) + ent[i + 2 :]
                            if up not in reached:
                                reached.add(up)
                                nxt.append(up)
                frontier = nxt
            for tau in all_permutations(n):
                assert bruhat_leq(sigma, tau) == (tau.entries in reached), (sigma, tau)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_partial_order_axioms(self, r):
        perms = all_permutations(r)
        rel = {
            (a.entries, b.entries): bruhat_leq(a, b)
            for a in perms
            for b in perms
        }
        for a in perms:
            assert rel[a.entries, a.entries]
            for b in perms:
                if rel[a.entries, b.entries] and rel[b.entries, a.entries]:
                    assert a == b
                for c in perms:
                    if rel[a.entries, b.entries] and rel[b.entries, c.entries]:
                        assert rel[a.entries, c.entries]

