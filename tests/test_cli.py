import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hookcomb.cli import _CHECK_NMAX, main
from hookcomb.motzkin import MotzkinPath, leq
from hookcomb.perm import Permutation
from hookcomb.render import render_path, render_vhc
from hookcomb.vhc import _EXHAUSTIVE_LIMIT, validate
from hookcomb.walks import _KMAX_LIMIT, vhc312_series

PYTHON = [sys.executable, "-m", "hookcomb"]


def run(*args, check=True):
    proc = subprocess.run(
        PYTHON + list(args), capture_output=True, text=True
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


class TestMap:
    def test_ll_worked_example_bytes(self):
        proc = run("map", "--name", "ll", "--perm", "324156", "--ne", "3,6")
        assert proc.stdout == '{"lower":"UEDUD","upper":"UEUDD","order":"C"}\n'

    def test_audit_wrapper(self):
        proc = run(
            "map", "--name", "ll", "--perm", "324156", "--ne", "3,6", "--audit"
        )
        record = json.loads(proc.stdout)
        assert record["map"] == "ll"
        assert record["input"] == {"perm": "324156", "ne": [3, 6]}
        assert record["output"]["lower"] == "UEDUD"

    def test_swl(self):
        proc = run("map", "--name", "swl", "--perm", "4213")
        assert json.loads(proc.stdout) == {"perm": "2143"}

    def test_w_and_inverse(self):
        proc = run("map", "--name", "w", "--perm", "213", "--ne", "3")
        assert json.loads(proc.stdout) == {"perm": "213", "ne": [3]}
        proc = run("map", "--name", "winv", "--perm", "213", "--ne", "3")
        assert json.loads(proc.stdout) == {"perm": "213", "ne": [3], "valid": True}

    def test_phi_pair(self):
        proc = run("map", "--name", "phi", "--lower", "UEDUD", "--upper", "UEUDD")
        assert json.loads(proc.stdout) == {"x": "EEUDE", "y": "UEDUD"}
        proc = run("map", "--name", "phiinv", "--x", "EEUDE", "--y", "UEDUD")
        assert json.loads(proc.stdout) == {
            "lower": "UEDUD",
            "upper": "UEUDD",
            "order": "C",
        }

    def test_llinv(self):
        proc = run(
            "map", "--name", "llinv", "--lower", "UEDUD", "--upper", "UEUDD",
            "--n", "6",
        )
        assert json.loads(proc.stdout) == {"perm": "324156", "ne": [3, 6]}

    def test_llinv_rejects_length_mismatch(self):
        # the code of a size-3 configuration has length 2
        proc = run(
            "map", "--name", "llinv", "--lower", "E", "--upper", "E", "--n", "3",
            check=False,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "interval has length 1, expected 2" in proc.stderr

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_llinv_refuses_sizes_below_one(self, n):
        proc = run("map", "--name", "llinv", "--lower", "", "--upper", "", "--n", n,
                   check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--n must be >= 1" in proc.stderr

    def test_llinv_has_no_size_cap(self):
        lower, upper = "UEDUDUEDUDE", "UEUDDUEUDDE"
        proc = run("map", "--name", "llinv", "--lower", lower, "--upper", upper,
                   "--n", "12")
        v = json.loads(proc.stdout)
        assert len(v["perm"].split(",")) == 12
        proc = run("map", "--name", "ll", "--perm", v["perm"],
                   "--ne", ",".join(map(str, v["ne"])))
        assert json.loads(proc.stdout) == {"lower": lower, "upper": upper, "order": "C"}

    def test_invalid_configuration_is_config_error(self):
        proc = run("map", "--name", "ll", "--perm", "21", "--ne", "2", check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "not a valid hook configuration" in proc.stderr

    @pytest.mark.parametrize("argv, stderr", [
        (["swl", "--perm", "2413"],
         "swl needs a 132-avoiding permutation; 2413 matches it at positions "
         "(1, 2, 4) (values (2, 4, 3))"),
        (["swl", "--perm", "10,11,12,1,2,3,4,5,6,9,7,8"],
         "swl needs a 132-avoiding permutation; 10,11,12,1,2,3,4,5,6,9,7,8 "
         "matches it at positions (4, 10, 11) (values (1, 9, 7))"),
        (["swl", "--perm", "2143"],
         "swl needs a 132-avoiding permutation; 2143 matches it at positions "
         "(2, 3, 4) (values (1, 4, 3))"),
        (["swr", "--perm", "2413"],
         "swr needs a 312-avoiding permutation; 2413 matches it at positions "
         "(2, 3, 4) (values (4, 1, 3))"),
        (["w", "--perm", "31425", "--ne", "3,5"],
         "w_map needs a 132-avoiding permutation; 31425 matches it at positions "
         "(2, 3, 4) (values (1, 4, 2))"),
        (["winv", "--perm", "14235", "--ne", "5"],
         "w_map_left_inverse needs a 312-avoiding permutation; 14235 matches it "
         "at positions (2, 3, 4) (values (4, 2, 3))"),
        (["ll", "--perm", "14235", "--ne", "5"],
         "ll_map needs a 312-avoiding permutation; 14235 matches it at "
         "positions (2, 3, 4) (values (4, 2, 3))"),
        (["ll", "--perm", "", "--ne", ""], "ll_map needs a nonempty permutation"),
    ], ids=["swl", "swl-commas", "swl-2143", "swr", "w", "winv", "ll", "ll-empty"])
    def test_refusal_bytes(self, capsys, argv, stderr):
        assert main(["map", "--name", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"hookcomb: {stderr}\n"

    def test_missing_flag_is_config_error(self):
        proc = run("map", "--name", "ll", "--perm", "324156", check=False)
        assert proc.returncode == 2


#: every map name, in the ``--name`` choice order, with inputs it accepts
#: (needed inputs in the order a refusal names them) and their ``--audit``
#: echo: the permutation and endpoint set as read, paths and size as given
MAP_INPUTS = {
    "ll": ({"perm": "3,2,4,1,5,6", "ne": "6,3,3"}, {"perm": "324156", "ne": [3, 6]}),
    "llinv": ({"lower": "UEDUD", "upper": "UEUDD", "n": "6"},
              {"lower": "UEDUD", "upper": "UEUDD", "n": 6}),
    "swl": ({"perm": "4,2,1,3"}, {"perm": "4213"}),
    "swr": ({"perm": "2143"}, {"perm": "2143"}),
    "w": ({"perm": "213", "ne": "3,3"}, {"perm": "213", "ne": [3]}),
    "winv": ({"perm": "213", "ne": "3"}, {"perm": "213", "ne": [3]}),
    "phi": ({"lower": "UEDUD", "upper": "UEUDD"},
            {"lower": "UEDUD", "upper": "UEUDD"}),
    "phiinv": ({"x": "EEUDE", "y": "UEDUD"}, {"x": "EEUDE", "y": "UEDUD"}),
}


def _map_argv(name, inputs):
    return ["map", "--name", name,
            *itertools.chain.from_iterable((f"--{k}", v) for k, v in inputs.items())]


def _dropped_inputs():
    for name, (given, _) in MAP_INPUTS.items():
        drops = [(key,) for key in given]
        if len(given) > 1:
            drops.append(tuple(given))
        for drop in drops:
            yield pytest.param(name, drop, id=f"{name}-{'-'.join(drop)}")


class TestMapFrontDoor:
    def test_choices_in_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["map", "--help"])
        assert "--name {" + ",".join(MAP_INPUTS) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("name, drop", _dropped_inputs())
    def test_missing_inputs_refusal_bytes(self, capsys, name, drop):
        given = MAP_INPUTS[name][0]
        kept = {k: v for k, v in given.items() if k not in drop}
        assert main(_map_argv(name, kept)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"hookcomb: map --name {name} needs --{', --'.join(drop)}\n"

    @pytest.mark.parametrize("name", MAP_INPUTS)
    def test_audit_wraps_the_read_input(self, capsys, name):
        given, echo = MAP_INPUTS[name]
        assert main(_map_argv(name, given)) == 0
        plain = capsys.readouterr().out
        assert main([*_map_argv(name, given), "--audit"]) == 0
        audit = capsys.readouterr().out
        record = {"input": echo, "output": json.loads(plain), "map": name}
        assert audit == json.dumps(record, separators=(",", ":")) + "\n"


class TestCount:
    def test_single_value_plain(self):
        assert run("count", "--pattern", "312", "--n", "1").stdout == "1\n"
        assert run("count", "--pattern", "312", "--n", "4").stdout == "5\n"

    def test_range_json_lines(self):
        proc = run("count", "--pattern", "312", "--n", "1..4")
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["count"] for r in rows] == ["1", "1", "2", "5"]

    def test_csv(self):
        proc = run("count", "--pattern", "312", "--n", "1..3", "--output", "csv")
        assert proc.stdout == "n,count\n1,1\n2,1\n3,2\n"

    def test_enumerate_matches_formula(self):
        fast = run("count", "--pattern", "312", "--n", "6").stdout
        slow = run(
            "count", "--pattern", "312", "--n", "6", "--method", "enumerate"
        ).stdout
        assert fast == slow == "44\n"

    def test_other_pattern(self):
        assert run("count", "--pattern", "321", "--n", "4").stdout == "6\n"

    @pytest.mark.parametrize("pattern", ["132", "1234"])
    def test_formula_refuses_other_patterns(self, pattern):
        proc = run(
            "count", "--pattern", pattern, "--n", "4", "--method", "formula",
            check=False,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "312" in proc.stderr

    def test_bad_pattern_is_config_error(self):
        assert run("count", "--pattern", "99", "--n", "1", check=False).returncode == 2

    def test_methods_agree_from_the_empty_permutation(self):
        outputs = {
            method: run(
                "count", "--pattern", "312", "--n", "0..9", "--method", method
            ).stdout
            for method in ("auto", "formula", "enumerate")
        }
        assert len(set(outputs.values())) == 1
        first = json.loads(outputs["auto"].splitlines()[0])
        assert first == {"pattern": "312", "n": 0, "count": "1"}

    def test_negative_size_is_config_error(self):
        proc = run("count", "--pattern", "312", "--n=-1..3", check=False)
        assert proc.returncode == 2 and proc.stdout == ""

    def test_empty_range_is_config_error(self):
        proc = run("count", "--pattern", "312", "--n", "9..3", check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "empty range '9..3'" in proc.stderr

    def test_table_over_cap_fails_fast(self):
        proc = run("count", "--pattern", "312", "--n", "1..1002", check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "312 configuration counts are capped at n <= 1001" in proc.stderr


    @pytest.mark.parametrize(
        "argv,cap,length",
        [(["--pattern", "132", "--n", "1..15"], 14, 3),
         (["--pattern", "312", "--n", "15", "--method", "enumerate"], 14, 3),
         (["--pattern", "2413", "--n", "0..10", "--output", "csv"], 9, 4),
         (["--pattern", "213", "--n", "2001"], 2000, 2)],
        ids=["132", "312-enumerate", "2413", "213"],
    )
    def test_exhaustive_over_cap_fails_fast(self, argv, cap, length):
        """The refusal ends with the cost that ``_EXHAUSTIVE_LIMIT`` states
        for the length of sigma'."""
        proc = run("count", *argv, check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.endswith(
            f"capped at n <= {cap}: {_EXHAUSTIVE_LIMIT[length][1]}\n")

    def test_length_2_cap_is_accepted(self):
        assert run("count", "--pattern", "213", "--n", "2000").stdout == "1\n"

    def test_patterns_ending_in_their_maximum_search_one_size_down(self):
        """1324 counts search the 132-avoiders of size n - 1, so they are
        the 132 counts."""
        assert run("count", "--pattern", "1324", "--n", "9").stdout == "1683\n"
        assert run("count", "--pattern", "132", "--n", "9").stdout == "1683\n"


class TestSequencesAndChecks:
    def test_walks_csv_header(self):
        proc = run("walks", "--kmax", "4")
        assert proc.stdout == "k,value\n0,1\n1,0\n2,1\n3,1\n4,3\n"

    def test_walks_json(self):
        proc = run("walks", "--kmax", "3", "--output", "json")
        assert proc.stdout == '["1","0","1","1"]\n'

    def test_walks_over_cap_fails_fast(self):
        proc = run("walks", "--kmax", "1001", check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "length 1002" in proc.stderr and "cap of 1001" in proc.stderr

    def test_fit_over_cap_fails_fast(self):
        proc = run("fit", "--window", "200:1002", check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "312 configuration counts are capped at n <= 1001" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["count", "--pattern", "312", "--n", "1002"],
        ["fit", "--window", "900:1002"],
    ], ids=["count", "fit"])
    def test_312_series_refuses_in_its_own_terms(self, capsys, argv):
        """The counts past the walk table's cap are refused as counts, one
        size above the table's last k."""
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"hookcomb: 312 configuration counts are capped at n <= 1001: {_KMAX_LIMIT[1]}\n")

    def test_intervals_stream(self):
        proc = run("intervals", "--order", "T", "--n", "3")
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(rows) == 5
        assert {"lower": "UDE", "upper": "UED", "order": "T"} in rows

    def test_intervals_count_only(self):
        assert run(
            "intervals", "--order", "C", "--n", "3", "--count-only"
        ).stdout == "5\n"

    @pytest.mark.parametrize("n", [14, 30])
    def test_c_count_only_reads_the_walk_series(self, n):
        """Past the listing cap of 13, C is counted from the walk series."""
        proc = run("intervals", "--order", "C", "--n", str(n), "--count-only")
        assert proc.stdout == f"{vhc312_series(n + 1)[n + 1]}\n"

    def test_triangle_json(self):
        proc = run("triangle", "--kmax", "2")
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        assert rows == [
            {"k": 1, "entries": ["1"]},
            {"k": 2, "entries": ["3", "5"]},
        ]

    def test_triangle_csv(self):
        proc = run("triangle", "--kmax", "1", "--output", "csv")
        assert proc.stdout == "k,i,n,value\n1,1,3,1\n"

    def test_triangle_over_cap_fails_fast(self):
        proc = run("triangle", "--kmax", "41", check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "k <= 40" in proc.stderr

    def test_intervals_over_cap_fails_fast(self):
        for output in (["--count-only"], ["--output", "csv"]):
            proc = run("intervals", "--order", "S", "--n", "12", *output, check=False)
            assert proc.returncode == 2 and proc.stdout == "", output
            assert "M(12) = 15511" in proc.stderr and "n > 11" in proc.stderr

    def test_check_eq2_exits_zero(self):
        proc = run("check", "--suite", "eq2", "--nmax", "5", "--kmax", "2")
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        assert all(r["verdict"] == "holds" for r in rows)

    def test_check_tamari(self):
        proc = run("check", "--suite", "tamari", "--nmax", "5")
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        assert all(r["verdict"] == "holds" for r in rows)

    def test_check_conjectures(self):
        proc = run("check", "--suite", "conjectures", "--kmax", "2", "--nmax", "5")
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        assert {r["check"] for r in rows} == {
            "conjecture1", "conjecture2", "conjecture3", "conjecture4",
        }
        assert all(r["verdict"] == "holds" for r in rows)

    @pytest.mark.parametrize("suite", ["conjectures", "tamari", "eq2"])
    def test_check_nmax_default_is_the_table_value(self, capsys, suite):
        assert main(["check", "--suite", suite]) == 0
        default = capsys.readouterr().out
        nmax = str(_CHECK_NMAX[suite])
        assert main(["check", "--suite", suite, "--nmax", nmax]) == 0
        assert capsys.readouterr().out == default != ""

    def test_check_kmax_over_cap_fails_fast(self):
        for suite in ("conjectures", "eq2"):
            proc = run("check", "--suite", suite, "--kmax", "41", check=False)
            assert proc.returncode == 2 and proc.stdout == "", suite
            assert proc.stderr.startswith("hookcomb: ") and "k <= 40" in proc.stderr
            assert len(proc.stderr.splitlines()) == 1

    def test_fit_prints_one_json_line(self):
        lines = run("fit", "--window", "50:110").stdout.splitlines()
        assert len(lines) == 1
        fit = json.loads(lines[0])
        assert set(fit) == {"growth", "alpha", "window", "residual"}
        assert fit["window"] == [50, 110]

    def test_conjectures_over_cap_fails_fast(self):
        proc = run("check", "--suite", "conjectures", "--nmax", "15", check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.endswith(f"capped at n <= 14: {_EXHAUSTIVE_LIMIT[3][1]}\n")

    def test_conjectures_refusal_names_the_tightest_cap(self):
        """Past the length-2 cap the refusal still names the cap that
        binds, the tightest of the six classes, not the first one checked."""
        proc = run("check", "--suite", "conjectures", "--nmax", "2001", check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.endswith(f"capped at n <= 14: {_EXHAUSTIVE_LIMIT[3][1]}\n")

    @pytest.mark.parametrize(
        "suite,nmax",
        [("conjectures", "0"), ("conjectures", "-1"), ("tamari", "0"),
         ("tamari", "-1"), ("eq2", "-1")],
    )
    def test_check_vacuous_nmax_fails(self, suite, nmax):
        proc = run("check", "--suite", suite, "--nmax", nmax, check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "must be >=" in proc.stderr


class TestRender:
    @pytest.mark.parametrize("args, expected", [
        (["--vhc", '{"perm":"3215647","ne":[4,5,7]}'], lambda: render_vhc(
            validate(Permutation.from_text("3215647"), {4, 5, 7}))),
        (["--vhc", '{"perm":"324156","ne":[3,6]}'], lambda: render_vhc(
            validate(Permutation.from_text("324156"), {3, 6}))),
        (["--path", "UDEUEUDD"], lambda: render_path(MotzkinPath("UDEUEUDD"))),
    ])
    def test_readme_figures_equal_the_renderers(self, tmp_path, args, expected):
        """README's three figure commands write the library's SVG, byte
        for byte."""
        out = tmp_path / "fig.svg"
        run("render", *args, "--out", str(out))
        assert out.read_bytes() == expected().encode()

    def test_render_vhc(self, tmp_path):
        out = tmp_path / "fig.svg"
        run("render", "--vhc", '{"perm":"3215647","ne":[4,5,7]}', "--out", str(out))
        svg = out.read_text()
        assert svg.count("<circle") == 7 and svg.count("<polyline") == 3

    def test_render_path(self, tmp_path):
        out = tmp_path / "path.svg"
        run("render", "--path", "UDEUEUDD", "--out", str(out))
        assert out.read_text().count('class="path"') == 1

    def test_requires_exactly_one_object(self, tmp_path):
        proc = run("render", "--out", str(tmp_path / "x.svg"), check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("text", ['{"perm":"21"}', "[1]", '{"ne":[]}',
                                      '{"perm":21,"ne":[]}'])
    def test_malformed_vhc_is_config_error(self, tmp_path, text):
        out = tmp_path / "x.svg"
        proc = run("render", "--vhc", text, "--out", str(out), check=False)
        assert proc.returncode == 2 and proc.stdout == "" and not out.exists()
        assert "perm" in proc.stderr and "internal error" not in proc.stderr

    def test_unwritable_path_fails(self):
        """An output path that cannot be opened is the user's error."""
        proc = run(
            "render", "--path", "EE", "--out", "/nonexistent/dir/x.svg",
            check=False,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("hookcomb: cannot write /nonexistent/dir/x.svg: "
                               "No such file or directory\n")

    def test_directory_out_is_config_error(self, tmp_path):
        proc = run("render", "--path", "UD", "--out", str(tmp_path), check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"hookcomb: cannot write {tmp_path}: Is a directory\n"

    def test_boolean_index_is_refused_as_one(self, tmp_path):
        out = tmp_path / "x.svg"
        text = '{"perm":"213","ne":[true]}'
        proc = run("render", "--vhc", text, "--out", str(out), check=False)
        assert proc.returncode == 2 and proc.stdout == "" and not out.exists()
        assert "northeast index True out of range" in proc.stderr


class TestDeterminism:
    def test_identical_bytes_across_runs(self):
        a = run("map", "--name", "ll", "--perm", "324156", "--ne", "3,6")
        b = run("map", "--name", "ll", "--perm", "324156", "--ne", "3,6")
        assert a.stdout == b.stdout


def paths_by_brute_force(n: int) -> list[MotzkinPath]:
    """Every step word of length ``n`` that is a Motzkin path, in the
    U < D < E lexicographic order."""
    out = []
    for word in itertools.product("UDE", repeat=n):
        try:
            out.append(MotzkinPath("".join(word)))
        except ValueError:
            pass
    return out


class TestIntervalListing:
    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize("order", ["S", "C", "T"])
    @pytest.mark.parametrize("n", range(7))
    def test_bytes_equal_the_all_pairs_filter(self, capsys, n, order, output):
        """The chunked listing against text built here from all pairs."""
        ps = paths_by_brute_force(n)
        pairs = [(p, q) for p in ps for q in ps if leq(order, p, q)]
        if output == "csv":
            want = "lower,upper,order\n" + "".join(
                f"{p.steps},{q.steps},{order}\n" for p, q in pairs)
        else:
            want = "".join(
                f'{{"lower":"{p.steps}","upper":"{q.steps}","order":"{order}"}}\n'
                for p, q in pairs)
        assert main(["intervals", "--order", order, "--n", str(n),
                     "--output", output]) == 0
        assert capsys.readouterr().out == want


class WriteCounter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestWrites:
    @pytest.mark.parametrize("argv, writes", [
        (["count", "--pattern", "312", "--n", "1..300", "--output", "csv"], 1),
        (["count", "--pattern", "312", "--n", "1..30"], 1),
        (["triangle", "--kmax", "5", "--output", "csv"], 1),
        (["triangle", "--kmax", "5"], 1),
        (["check", "--suite", "tamari", "--nmax", "4"], 1),
        # the header, then one chunk per lower path: M(5) = 21
        (["intervals", "--order", "S", "--n", "5", "--output", "csv"], 22),
        (["intervals", "--order", "T", "--n", "5"], 21),
    ])
    def test_one_write_per_chunk(self, monkeypatch, argv, writes):
        out = WriteCounter()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
        assert out.writes == writes


# Run in a fresh interpreter, since this process has every module loaded:
# import the CLI, then run one command; print the hookcomb modules loaded
# after each step, and whether dataclasses was loaded before and after.
_LOADED_BY = """
import contextlib, io, json, sys
before = "dataclasses" in sys.modules
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "hookcomb")
import hookcomb.cli
steps = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    assert hookcomb.cli.main(sys.argv[1:]) == 0
steps.append(loaded())
print(json.dumps([steps, before, "dataclasses" in sys.modules]))
"""


class TestStartup:
    @pytest.mark.parametrize("argv, allowed, forbidden", [
        (["walks", "--kmax", "3"], {"walks"}, None),
        (["intervals", "--order", "C", "--n", "4", "--count-only"], None,
         {"perm", "vhc", "maps", "experiments"}),
        (["intervals", "--order", "T", "--n", "4", "--count-only"], None,
         {"maps", "experiments", "render", "walks"}),
        (["intervals", "--order", "S", "--n", "4"], None, {"walks", "perm", "vhc"}),
        (["map", "--name", "phi", "--lower", "UDUD", "--upper", "UUDD"], None,
         {"experiments", "render"}),
        (["count", "--pattern", "132", "--n", "1..5", "--method", "enumerate"], None,
         {"maps", "render", "experiments", "walks"}),
        (["count", "--pattern", "312", "--n", "1..5"], {"frozen", "perm", "walks"}, None),
        (["triangle", "--kmax", "2"], {"walks"}, None),
        (["fit", "--window", "50:110"], {"walks"}, None),
    ], ids=["walks", "intervals", "intervals-T", "intervals-S", "map", "count",
            "count-formula", "triangle", "fit"])
    def test_a_command_loads_only_its_layers(self, argv, allowed, forbidden):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_BY, *argv], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        (after_import, after_command), before, after = json.loads(proc.stdout)
        assert after_import == ["hookcomb", "hookcomb.cli"]
        submodules = {m.removeprefix("hookcomb.") for m in after_command} - {"hookcomb"}
        if allowed is not None:
            assert submodules == {"cli"} | allowed
        if forbidden is not None:
            assert not submodules & forbidden
        assert after == before

    def test_package_root_names_load_on_use(self):
        import hookcomb
        from hookcomb import (Hook, Interval, MotzkinPath, Permutation, Point, Vhc,
                              count_walks, enumerate_vhcs, validate)
        from hookcomb import motzkin, perm, vhc, walks

        assert (Hook, Vhc, enumerate_vhcs, validate) == (
            vhc.Hook, vhc.Vhc, vhc.enumerate_vhcs, vhc.validate)
        assert (Interval, MotzkinPath) == (motzkin.Interval, motzkin.MotzkinPath)
        assert (Permutation, Point, count_walks) == (perm.Permutation, perm.Point,
                                                     walks.count_walks)
        assert sorted(hookcomb.__all__) == sorted(
            ["Hook", "Interval", "MotzkinPath", "Permutation", "Point", "Vhc",
             "count_walks", "enumerate_vhcs", "validate", "__version__"])
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            hookcomb.missing
