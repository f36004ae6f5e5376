import itertools
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hookcomb.motzkin import (
    _INTERVAL_LIMIT,
    Interval,
    MotzkinPath,
    count_intervals,
    enumerate_intervals,
    enumerate_paths,
    leq,
    lng_all,
    motzkin_number,
    path_class,
    support,
)
from hookcomb.vhc import _EXHAUSTIVE_LIMIT

from .conftest import (
    dyck_prefix_leq,
    is_dyck_prefix,
    lng_scan,
    motzkin_by_convolution,
    paired_interval_count,
    reconstruct,
)


@lru_cache(maxsize=None)
def paths(n: int) -> tuple[MotzkinPath, ...]:
    return tuple(enumerate_paths(n))


@st.composite
def motzkin_paths(draw, max_len=7):
    n = draw(st.integers(0, max_len))
    return draw(st.sampled_from(paths(n)))


class TestBasics:
    def test_displacements(self):
        # U rises 1, E stays flat, D falls 1
        assert MotzkinPath("UEDE").heights() == (1, 1, 0, 0)
        assert MotzkinPath("UUDEDE").heights() == (1, 2, 1, 1, 0, 0)

    def test_bad_step(self):
        with pytest.raises(ValueError, match="not a Motzkin step: 'X'"):
            MotzkinPath("X")

    @pytest.mark.parametrize("bad", ["D", "UDD", "UU", "UDX"])
    def test_invalid_paths_rejected(self, bad):
        with pytest.raises(ValueError):
            MotzkinPath(bad)

    def test_empty_path_legal(self):
        assert len(MotzkinPath("")) == 0

    def test_class_of_worked_path(self):
        assert path_class(MotzkinPath("UDEUEUDD")) == "UEUEU"

    def test_class_of_flat(self):
        assert path_class(MotzkinPath("EEEE")) == "EEEE"

    def test_class_drops_downs(self):
        assert path_class(MotzkinPath("UUDD")) == "UU"

    def test_lng_of_worked_path(self):
        assert lng_all(MotzkinPath("UDEUEUDD")) == (2, 1, 5, 1, 2)

    def test_lng_flat(self):
        assert lng_all(MotzkinPath("EEE")) == (1, 1, 1)

    def test_lng_ued(self):
        assert lng_all(MotzkinPath("UED")) == (3, 1)

    def test_lng_bounds(self):
        for p in paths(6):
            for letter, ln in zip(path_class(p), lng_all(p)):
                assert ln == 1 if letter == "E" else ln >= 2

    @pytest.mark.parametrize("n", range(11))
    def test_lng_matches_the_scan(self, n):
        for p in paths(n):
            assert lng_all(p) == lng_scan(p), p


class TestSupport:
    def test_letterwise_map(self):
        assert support(MotzkinPath("UDEUEUDD")) == "uduuuudd"

    @pytest.mark.parametrize("n", range(9))
    def test_reconstruct_round_trip(self, n):
        for p in paths(n):
            assert reconstruct(path_class(p), support(p)) == p

    def test_reconstruct_rejects_unbalanced_support(self):
        assert reconstruct("UU", "uddu") is None

    def test_reconstruct_rejects_wrong_arity(self):
        assert reconstruct("U", "uu") is None

    def test_reconstruct_rejects_non_motzkin_assembly(self):
        # class letters slot into the u positions, giving UE and EU, and
        # neither word returns to the axis
        assert reconstruct("UE", "uu") is None
        assert reconstruct("EU", "uu") is None

    def test_support_is_dyck_prefix(self):
        for p in paths(7):
            assert is_dyck_prefix(support(p))

    @given(motzkin_paths())
    def test_property_round_trip(self, p):
        assert reconstruct(path_class(p), support(p)) == p


class TestOrders:
    def test_t_example(self):
        assert leq("T", MotzkinPath("UDE"), MotzkinPath("UED"))

    @given(motzkin_paths())
    def test_reflexive_in_all_orders(self, p):
        for order in "SCT":
            assert leq(order, p, p)

    def test_class_mismatch_not_c(self):
        assert not leq("C", MotzkinPath("EUD"), MotzkinPath("UDE"))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            leq("S", MotzkinPath("E"), MotzkinPath("EE"))

    def test_bad_order_name(self):
        with pytest.raises(ValueError):
            leq("X", MotzkinPath("E"), MotzkinPath("E"))

    @pytest.mark.parametrize("n", range(8))
    def test_strength_chain(self, n):
        """T-comparable implies C-comparable implies S-comparable."""
        for p in paths(n):
            for q in paths(n):
                if leq("T", p, q):
                    assert leq("C", p, q)
                if leq("C", p, q):
                    assert leq("S", p, q)

    @pytest.mark.parametrize("order", ["S", "C", "T"])
    @pytest.mark.parametrize("n", range(7))
    def test_partial_order_axioms(self, order, n):
        ps = paths(n)
        rel = [[leq(order, p, q) for q in ps] for p in ps]
        for i in range(len(ps)):
            assert rel[i][i]
            for j in range(len(ps)):
                if rel[i][j] and rel[j][i]:
                    assert i == j
                if not rel[i][j]:
                    continue
                for k in range(len(ps)):
                    if rel[j][k]:
                        assert rel[i][k]


class TestEnumeration:
    def test_paths_3(self):
        assert [str(p) for p in paths(3)] == ["UDE", "UED", "EUD", "EEE"]

    @pytest.mark.parametrize("n", range(13))
    def test_counts_match_recurrence(self, n):
        assert len(paths(n)) == motzkin_number(n)

    def test_motzkin_numbers(self):
        assert [motzkin_number(n) for n in range(11)] == [
            1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188,
        ]

    def test_binomial_sum_matches_convolution(self):
        assert [motzkin_number(n) for n in range(301)] == motzkin_by_convolution(300)
        with pytest.raises(ValueError, match="n must be >= 0"):
            motzkin_number(-1)

    def test_negative_length_raises_at_the_call(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            enumerate_paths(-1)

    def test_lex_order_with_u_d_e(self):
        """The paths are built unchecked: they are the words over U < D < E,
        in order, that the public constructor accepts."""
        for n in range(9):
            expected = []
            for steps in itertools.product("UDE", repeat=n):
                try:
                    expected.append(MotzkinPath("".join(steps)))
                except ValueError:
                    pass
            assert list(enumerate_paths(n)) == expected, n

    def test_intervals_t3(self):
        assert sum(1 for _ in enumerate_intervals("T", 3)) == 5

    def test_interval_stream_order(self):
        got = [
            (str(iv.lower), str(iv.upper)) for iv in enumerate_intervals("T", 3)
        ]
        assert got == [
            ("UDE", "UDE"),
            ("UDE", "UED"),
            ("UED", "UED"),
            ("EUD", "EUD"),
            ("EEE", "EEE"),
        ]

    @pytest.mark.parametrize("order", ["S", "C", "T"])
    @pytest.mark.parametrize("n", range(8))
    def test_intervals_match_all_pairs_filter(self, order, n):
        """Pairing within a class yields the all-pairs ``leq`` filter, in
        the same order."""
        ps = paths(n)
        expected = [Interval(p, q, order) for p in ps for q in ps if leq(order, p, q)]
        assert list(enumerate_intervals(order, n)) == expected

    def test_enumerated_pairs_are_compared_once(self, monkeypatch):
        import hookcomb.motzkin

        calls = []
        real = hookcomb.motzkin.leq

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hookcomb.motzkin, "leq", counted)
        assert len(list(enumerate_intervals("S", 6))) > 0
        assert calls == []
        Interval(MotzkinPath("UD"), MotzkinPath("UD"), "S")
        assert len(calls) == 1  # the public constructor still checks

    def test_long_paths_refused_before_any_work(self, monkeypatch):
        import hookcomb.motzkin

        def no_paths(n):
            raise AssertionError("enumerated paths past the cap")

        monkeypatch.setattr(hookcomb.motzkin, "enumerate_paths", no_paths)
        with pytest.raises(ValueError, match=r"M\(12\) = 15511.*n > 11"):
            enumerate_intervals("S", 12)  # the call raises, not the first item
        with pytest.raises(ValueError, match=r"M\(14\) = 113634.*n > 13"):
            enumerate_intervals("C", 14)
        with pytest.raises(ValueError, match=r"M\(14\) = 113634.*n > 13"):
            enumerate_intervals("T", 14)
        with pytest.raises(ValueError, match="order must be one of"):
            enumerate_intervals("X", 3)

    @pytest.mark.parametrize("order", ["S", "C", "T"])
    @pytest.mark.parametrize("n", range(10))
    def test_count_matches_listing(self, order, n):
        """C from the walk series, T from the 132 count, S by packed
        counting."""
        assert count_intervals(order, n) == sum(1 for _ in enumerate_intervals(order, n))

    @pytest.mark.parametrize("n", range(_INTERVAL_LIMIT["T"][0] + 1))
    def test_t_count_matches_the_pairing(self, n):
        """The T count through the paper's bijection equals the lng pairing
        at every size the listing reaches."""
        assert count_intervals("T", n) == paired_interval_count("T", n)

    def test_counts_refused_past_the_cap_before_any_work(self, monkeypatch):
        """Each count refuses in its own terms, the order and the ``n`` of
        the call, with the cost of the cap that binds it."""
        import hookcomb.motzkin
        from hookcomb.walks import _KMAX_LIMIT

        def no_paths(n):
            raise AssertionError("enumerated paths past the cap")

        monkeypatch.setattr(hookcomb.motzkin, "enumerate_paths", no_paths)
        with pytest.raises(ValueError, match=r"M\(12\) = 15511.*n > 11"):
            count_intervals("S", 12)
        cap, cost = _EXHAUSTIVE_LIMIT[3]
        with pytest.raises(ValueError) as refused:
            count_intervals("T", cap)
        assert str(refused.value) == f"T-interval counts are capped at n <= {cap - 1}: {cost}"
        cap, cost = _KMAX_LIMIT
        with pytest.raises(ValueError) as refused:
            count_intervals("C", cap + 1)
        assert str(refused.value) == f"C-interval counts are capped at n <= {cap}: {cost}"
        for order in "CT":
            with pytest.raises(ValueError, match="n must be >= 0"):
                count_intervals(order, -1)
        with pytest.raises(ValueError, match="order must be one of"):
            count_intervals("X", 3)

    def test_intervals_c3(self):
        assert sum(1 for _ in enumerate_intervals("C", 3)) == 5

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(MotzkinPath("UED"), MotzkinPath("UDE"), "T")

    def test_interval_json(self):
        iv = Interval(MotzkinPath("UDE"), MotzkinPath("UED"), "T")
        assert iv.to_json() == '{"lower":"UDE","upper":"UED","order":"T"}'


class TestDyckPrefixOrder:
    def test_prefix_predicate(self):
        assert is_dyck_prefix("uudu")
        assert not is_dyck_prefix("udd")
        assert not is_dyck_prefix("ux")

    def test_comparison(self):
        assert dyck_prefix_leq("ud", "uu")
        assert not dyck_prefix_leq("uu", "ud")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dyck_prefix_leq("u", "uu")

    @pytest.mark.parametrize("n", range(8))
    def test_support_bijection_onto_dominating_prefixes(self, n):
        """For each lower path, taking supports is a bijection from the
        paths above it (same class) onto the Dyck prefixes dominating its
        support with the same letter counts."""
        for p in paths(n):
            sp = support(p)
            ups = sp.count("u")
            above = [support(q) for q in paths(n) if leq("C", p, q)]
            assert len(set(above)) == len(above)  # injective
            prefixes = [
                "".join(word)
                for word in itertools.product("ud", repeat=n)
                if word.count("u") == ups
                and is_dyck_prefix("".join(word))
                and dyck_prefix_leq(sp, "".join(word))
            ]
            assert sorted(above) == sorted(prefixes)
