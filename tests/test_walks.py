import ast
import hashlib
import itertools
from pathlib import Path

import pytest

import hookcomb
from hookcomb import cli
from hookcomb.maps import ALLOWED_STEP_PAIRS
from hookcomb.walks import (
    STEPS,
    _KMAX_LIMIT,
    _hook_slot,
    _walk_counts,
    count_walks,
    reduced_series,
    vhc312_series,
)

from .conftest import (
    binomial_sum,
    dict_hook_walk_counts,
    dict_walk_counts,
    enumerate_restricted_pairs,
    enumerate_walks,
)


def walks_by_product(k: int) -> int:
    """Independent oracle: filter all 5^k step sequences."""
    total = 0
    for seq in itertools.product(STEPS, repeat=k):
        x = y = 0
        for dx, dy in seq:
            x += dx
            y += dy
            if x < 0 or y < 0:
                break
        else:
            if x == 0 and y == 0:
                total += 1
    return total


class TestWalkCounts:
    def test_first_values_against_product_oracle(self):
        # frozen from the 5^k filter
        assert [walks_by_product(k) for k in range(4)] == [1, 0, 1, 1]
        assert count_walks(3) == (1, 0, 1, 1)

    def test_table_slices(self):
        assert count_walks(5)[1:3] == (0, 1)

    @pytest.mark.parametrize("k", range(7))
    def test_dp_matches_product_oracle(self, k):
        assert count_walks(k)[k] == walks_by_product(k)

    def test_dp_matches_backtracking_oracle_to_8(self, walk_table_small):
        for k in range(9):
            assert walk_table_small[k] == sum(1 for _ in enumerate_walks(k))

    def test_frozen_prefix(self, walk_table_small):
        assert walk_table_small[:13] == (
            1, 0, 1, 1, 3, 8, 19, 65, 177, 611, 1928, 6648, 22928,
        )

    def test_monotone_after_two(self, walk_table_small):
        # appending the up-down loop embeds length-k walks in length k+2
        for k in range(2, 15):
            assert walk_table_small[k + 2] >= walk_table_small[k]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_walks(-1)

    @pytest.mark.parametrize("k_max", range(81))
    def test_packed_dp_matches_dict_dp(self, k_max):
        # the pruning depends on k_max, so every table is its own case
        assert count_walks(k_max) == dict_walk_counts(k_max)

    def test_packed_dp_matches_dict_dp_at_200(self):
        assert count_walks(200) == dict_walk_counts(200)

    def test_shorter_tables_are_prefixes_to_150(self):
        # each k_max prunes and widens its slots on its own schedule
        full = _walk_counts(150)
        for k_max in range(151):
            assert _walk_counts(k_max) == full[: k_max + 1], k_max

    def test_frozen_digest_at_400(self, capsys):
        # recorded from the fixed-width DP, whose slots were 929 bits throughout
        assert cli.main(["walks", "--kmax", "400", "--output", "json"]) == 0
        text = capsys.readouterr().out.removesuffix("\n")
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == (
            "22ad07eb1b02c9d0ec1d88fd4d4dcd47296fb5e79a427cc7446fa0655eca8e3e"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["count", "--pattern", "312", "--n", "1..300", "--output", "csv"],
                "27a16066c55d00a35f2364682877ed38719607036ada2f0837199c867518dfee",
            ),
            (
                ["fit", "--window", "200:400"],
                "644f40040271861b9a2026ec6572e9bbbbe1747526ed68aaa618097d62f9b17c",
            ),
        ],
        ids=["count-312-to-300", "fit-200-400"],
    )
    def test_frozen_digest_of_series_output(self, capsys, argv, digest):
        # recorded from the level-layout DP, one big integer per x + y
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest

    def test_over_cap_refused(self):
        assert _KMAX_LIMIT[0] > 400
        with pytest.raises(ValueError) as info:
            count_walks(_KMAX_LIMIT[0] + 1)
        message = str(info.value)
        assert f"length {_KMAX_LIMIT[0] + 2}" in message
        assert f"cap of {_KMAX_LIMIT[0] + 1}" in message


class TestHookWeightedWalks:
    def test_slices_match_enumerated_walks_to_10(self):
        """Slot ``h`` of entry ``k`` counts the closed walks of length
        ``k`` with ``h`` steps (-1,1) or (0,1)."""
        values = _walk_counts(10, by_hooks=True)
        for k in range(11):
            histogram: dict[int, int] = {}
            for walk in enumerate_walks(k):
                h = sum(1 for _, dy in walk if dy == 1)
                histogram[h] = histogram.get(h, 0) + 1
            sliced = {h: _hook_slot(values[k], h, 10) for h in range(k + 1)}
            assert {h: c for h, c in sliced.items() if c} == histogram, k
            assert values[k] >> (5**10).bit_length() * (k + 1) == 0  # no slot past k

    @pytest.mark.parametrize("k_max", range(41))
    def test_every_slot_matches_dict_dp(self, k_max):
        # the trim and repack schedules depend on k_max, and start past 10
        values = _walk_counts(k_max, by_hooks=True)
        for k, split in enumerate(dict_hook_walk_counts(k_max)):
            assert tuple(_hook_slot(values[k], h, k_max) for h in range(k + 1)) == split
            assert values[k] >> (5**k_max).bit_length() * (k + 1) == 0, k

    def test_slots_sum_to_plain_counts_to_80(self):
        # the slot width grows by b = (5**80).bit_length() bits a step here
        values = _walk_counts(80, by_hooks=True)
        plain = _walk_counts(80)
        for k in range(81):
            assert sum(_hook_slot(values[k], h, 80) for h in range(k + 1)) == plain[k]
            assert values[k] >> (5**80).bit_length() * (k + 1) == 0, k


class TestEnumerate:
    def test_k0(self):
        assert list(enumerate_walks(0)) == [()]

    def test_k2_exact(self):
        assert list(enumerate_walks(2)) == [((0, 1), (0, -1))]

    def test_k3_exact(self):
        assert list(enumerate_walks(3)) == [((0, 1), (1, -1), (-1, 0))]

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_walks(11))


class TestCountTable:
    """The walk table at its edges: extended by ``w(-1) = 1`` in the
    reduced series, and written by ``walks`` as CSV or JSON."""

    def test_convention_at_minus_one(self, walk_table_small):
        reduced = reduced_series(walk_table_small)
        assert reduced[0] == 1  # w(-1)
        assert reduced[1] == walk_table_small[0] - 1 == 0

    def test_csv(self, capsys):
        assert cli.main(["walks", "--kmax", "2"]) == 0
        assert capsys.readouterr().out == "k,value\n0,1\n1,0\n2,1\n"

    def test_json_uses_decimal_strings(self, capsys):
        assert cli.main(["walks", "--kmax", "2", "--output", "json"]) == 0
        assert capsys.readouterr().out == '["1","0","1"]\n'


class TestPairCounts:
    def test_n3(self):
        assert vhc312_series(4)[4] == 5  # 1 + 0 + 3*1 + 1*1

    def test_n0(self):
        assert vhc312_series(1)[1] == 1

    def test_forbidden_pair_rule(self):
        ud = ("U", "D")
        assert ("U", "U") not in ALLOWED_STEP_PAIRS
        assert ud in ALLOWED_STEP_PAIRS
        pairs = {
            (str(x), str(y)) for x, y in enumerate_restricted_pairs(2)
        }
        assert ("UD", "UD") not in pairs  # first coordinates would be (U, U)

    @pytest.mark.parametrize("n", range(9))
    def test_formula_equals_enumeration(self, n):
        direct = sum(1 for _ in enumerate_restricted_pairs(n))
        assert vhc312_series(n + 1)[n + 1] == direct


class TestVhc312Count:
    def test_n1(self):
        assert vhc312_series(1)[1] == 1

    def test_n4(self):
        assert vhc312_series(4)[4] == 5

    def test_frozen_series(self):
        got = vhc312_series(9)[1:]
        assert got == (1, 1, 2, 5, 14, 44, 148, 528, 1972)


class TestVhc312Series:
    def test_difference_pass_equals_binomial_sums_to_150(self):
        table = count_walks(149)
        series = vhc312_series(150)
        assert len(series) == 151
        assert series[0] == 1
        for n in range(1, 151):
            assert series[n] == binomial_sum(table, n - 1), f"n={n}"

    def test_builds_its_own_table(self):
        assert vhc312_series(9) == (1, 1, 1, 2, 5, 14, 44, 148, 528, 1972)

    def test_empty_permutation_only(self):
        assert vhc312_series(0) == (1,)

    def test_single_values_read_the_series(self):
        series = vhc312_series(17)
        for n in range(1, 18):  # a shorter series is a prefix
            assert vhc312_series(n)[n] == series[n]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vhc312_series(-1)


def test_no_other_module_reads_a_private_walks_name():
    """The walk DP's packing (``_walk_counts``, ``_hook_slot``, the slot
    widths) is read only inside ``walks``: no other module of the package
    imports an underscore name from it, or reads one off the module.  The
    one exception is a size cap (``*_LIMIT``), which README's Size caps
    table publishes with its module, and which ``count_intervals`` states
    for C."""
    found = []
    for path in sorted(Path(hookcomb.__file__).parent.glob("*.py")):
        if path.stem == "walks":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("walks", "hookcomb.walks"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "walks":
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith("_") and not name.endswith("_LIMIT")]
    assert found == []
