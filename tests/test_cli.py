"""Command-line interface: subcommands, formats, and exit codes."""

import argparse
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tamari_balance import cli, fixtures, grammars, intervals, limits
from tamari_balance._record import replace
from tamari_balance.cli import SequenceReport, main, run_enum
from tamari_balance.grammars import (
    builtin_grammar,
    builtin_names,
    parse_grammar,
    series,
)
from tamari_balance.polynomials import Polynomial
from tamari_balance.trees import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    return code, payload


# Strings with quotes, backslashes, control characters and non-ASCII text.
json_strings = st.text(
    st.sampled_from(
        ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀"]
    )
    | st.characters()
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | json_strings,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=24,
)


class TestJsonText:
    @given(json_values)
    def test_matches_json_dumps_with_indent_two(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_empty_containers_and_nesting(self):
        value = {"a": [], "b": {}, "c": [[], {}, [1, [True, None]]], "": "x"}
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value", [1.5, {1, 2}, (1, 2), {"a": [0.5]}, [{"b": {3}}], {1: 2}]
    )
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)


class TestSequenceReport:
    def test_all_matching(self):
        report = SequenceReport("demo", "n", (0, 1), (1, 2), (1, 2))
        assert report.ok
        assert report.matches == (True, True)
        assert report.lines()[-1] == "PASS (2/2 match)"

    def test_mismatch_marked(self):
        report = SequenceReport("demo", "n", (0, 1), (1, 3), (1, 2))
        assert not report.ok
        assert report.matches == (True, False)
        assert "MISMATCH" in report.lines()[-2]
        assert report.lines()[-1] == "FAIL (1/2 match)"

    def test_payload_rows(self):
        report = SequenceReport("demo", "h", (0,), (5,), (5,))
        payload = report.payload()
        assert payload["rows"] == [
            {"h": 0, "computed": 5, "expected": 5, "match": True}
        ]
        assert payload["ok"]


class TestEnum:
    def test_balanced_matches_reference(self, capsys):
        code, out, err = run(capsys, "enum", "balanced", "--max-n", "12")
        assert code == 0
        assert err == ""
        assert out.splitlines()[-1] == "PASS (13/13 match)"
        assert " 12 " in out or "12" in out

    def test_balanced_json(self, capsys):
        code, payload = run_json(capsys, "enum", "balanced", "--max-n", "8")
        assert code == 0
        assert payload["command"] == "enum"
        assert payload["ok"]
        computed = [row["computed"] for row in payload["rows"]]
        assert computed == fixtures.BALANCED_COUNTS[:9]

    def test_balanced_intervals_prefix(self, capsys):
        code, payload = run_json(capsys, "enum", "balanced-intervals", "--max-n", "8")
        assert code == 0
        computed = [row["computed"] for row in payload["rows"]]
        assert computed == fixtures.BALANCED_INTERVAL_COUNTS[:9]

    def test_maximal_balanced_prefix(self, capsys):
        code, payload = run_json(capsys, "enum", "maximal-balanced", "--max-n", "12")
        assert code == 0
        computed = [row["computed"] for row in payload["rows"]]
        assert computed == fixtures.MAXIMAL_BALANCED_COUNTS[:13]

    def test_interior_by_height(self, capsys):
        code, payload = run_json(capsys, "enum", "interior-by-height")
        assert code == 0
        computed = [row["computed"] for row in payload["rows"]]
        assert computed == fixtures.INTERIOR_BY_HEIGHT
        assert payload["label"] == "h"

    def test_weight_balanced_full_range(self, capsys):
        code, payload = run_json(capsys, "enum", "weight-balanced")
        assert code == 0
        computed = [row["computed"] for row in payload["rows"]]
        assert computed == fixtures.WEIGHT_BALANCED_COUNTS

    def test_zero_one_balanced(self, capsys):
        code, payload = run_json(capsys, "enum", "zero-one-balanced", "--max-n", "17")
        assert code == 0
        computed = [row["computed"] for row in payload["rows"]]
        assert computed == fixtures.ZERO_ONE_BALANCED_COUNTS[:18]

    def test_narayana_row_seven(self, capsys):
        code, out, err = run(capsys, "enum", "narayana", "--n", "7")
        assert code == 0
        computed = [
            int(line.split()[1]) for line in out.splitlines()[2:-1]
        ]
        assert computed == [1, 21, 105, 175, 105, 21, 1]

    def test_narayana_needs_n(self, capsys):
        code, out, err = run(capsys, "enum", "narayana")
        assert code == 2
        assert "--n" in err

    def test_narayana_rejects_max_n(self, capsys):
        code, _, err = run(capsys, "enum", "narayana", "--n", "5", "--max-n", "5")
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "enum", "unbalanced")
        assert code == 2
        assert "unknown family" in err

    def test_bound_exceeded(self, capsys):
        code, _, err = run(capsys, "enum", "balanced", "--max-n", "20")
        assert code == 2
        assert "no reference values" in err

    @pytest.mark.parametrize(
        "family, what, route",
        [
            pytest.param(family, what, route, id=family)
            for family, what, route in (
                ("balanced", "balanced", "enumeration"),
                ("maximal-balanced", "maximal", "brute"),
                ("balanced-intervals", "balanced interval", "brute"),
                ("maximal-intervals", "maximal interval", "brute"),
                ("zero-one-balanced", "zero-one balanced", "enumeration"),
            )
        ],
    )
    def test_route_disagreement_is_a_fail(
        self, capsys, monkeypatch, family, what, route
    ):
        real = intervals.counting_series

        def wrong_at_three(g, max_degree):
            poly = real(g, max_degree)
            return poly - poly.coefficient({"x": 4}) * Polynomial.variable("x") ** 4

        monkeypatch.setattr(intervals, "counting_series", wrong_at_three)
        error = f"{what} routes disagree at n=3: 1 vs 0"
        code, out, err = run(capsys, "enum", family, "--max-n", "3")
        assert code == 1
        assert out == ""
        assert err == f"FAIL: {error}\n"
        code, payload = run_json(capsys, "enum", family, "--max-n", "3")
        assert code == 1
        assert payload == {
            "verdict": "FAIL",
            "error": error,
            "routes": {route: 1, "series": 0},
        }

    def test_plain_assertion_is_not_a_fail(self, capsys, monkeypatch):
        def broken(args):
            raise AssertionError("a bug, not a route disagreement")

        monkeypatch.setattr(cli, "cmd_enum", broken)
        for extra in ((), ("--json",)):
            with pytest.raises(AssertionError, match="a bug"):
                main(["enum", "balanced", "--max-n", "3", *extra])
            assert capsys.readouterr().out == ""

    def test_full_maximal_balanced_range(self, capsys):
        code, payload = run_json(
            capsys, "enum", "maximal-balanced", "--max-n", "34"
        )
        assert code == 0
        computed = [row["computed"] for row in payload["rows"]]
        assert computed == fixtures.MAXIMAL_BALANCED_COUNTS
        assert len(computed) == 35

    @pytest.mark.parametrize("family", ["balanced-intervals", "maximal-intervals"])
    def test_interval_sequences_to_nineteen(self, capsys, family):
        code, out, err = run(capsys, "enum", family, "--max-n", "19")
        assert code == 0
        assert err == ""
        assert out.splitlines()[-1] == "PASS (20/20 match)"

    @pytest.mark.parametrize("family", ["balanced-intervals", "maximal-intervals"])
    def test_default_interval_enum_builds_one_series(self, monkeypatch, family):
        built = []
        real = intervals.counting_series

        def recording(g, max_degree):
            built.append(g.name)
            return real(g, max_degree)

        monkeypatch.setattr(intervals, "counting_series", recording)
        assert run_enum(family).ok
        assert built == [cli._FAMILIES[family].compute.grammar]

    def test_cli_leaves_the_route_cross_check_to_the_library(self):
        names = {"counting_series", "_balanced_pair_count", "_maximal_pair_count"}
        assert names.isdisjoint(vars(cli))
        own = [
            value
            for value in vars(cli).values()
            if isinstance(value, type) and value.__module__ == cli.__name__
        ]
        assert all("brute" not in getattr(c, "__match_args__", ()) for c in own)
        with open(cli.__file__, encoding="utf-8") as handle:
            assert "CrossCheckError(" not in handle.read()

    def test_run_enum_defaults(self):
        report = run_enum("interior-by-height")
        assert report.indices == tuple(range(13))
        assert report.ok

    @pytest.mark.parametrize("family", sorted(cli._FAMILIES))
    def test_default_is_the_whole_reference_range(self, monkeypatch, family):
        spec = cli._FAMILIES[family]
        asked = []

        def compute(max_n):
            asked.append(max_n)
            return spec.expected[: max_n + 1]

        monkeypatch.setitem(
            cli._FAMILIES, family, replace(spec, compute=compute)
        )
        report = run_enum(family)
        assert asked == [len(spec.expected) - 1]
        assert report.indices == tuple(range(len(spec.expected)))
        assert report.ok


def _delay_buds_at_zero(name):
    """``--set`` arguments that set every bud but the axiom to 0, under
    the names the series shows."""
    g = builtin_grammar(name)
    renames = dict(g.merges)
    shown = (renames.get(bud, bud) for bud in g.buds if bud != g.axiom)
    return [f"{var}=0" for var in dict.fromkeys(shown)]


def _series_output(poly, source, assignments):
    """The text and ``--json`` stdout of ``series`` printing ``poly``."""
    payload = {
        "command": "series",
        "grammar": source,
        "degree": 10,
        "assignments": assignments,
        "polynomial": str(poly),
        "terms": [
            {"coefficient": coeff, "monomial": dict(mono.pairs)}
            for mono, coeff in poly.sorted_terms()
        ],
    }
    return f"{poly}\n", json.dumps(payload, indent=2) + "\n"


class TestSeries:
    @pytest.mark.parametrize(
        "name, extra",
        [(name, "") for name in builtin_names() if _delay_buds_at_zero(name)]
        + [("mbi_xi", "xi=2"), ("bi", "x=3")],
    )
    def test_delay_buds_at_zero_print_the_specialized_series(
        self, capsys, monkeypatch, name, extra
    ):
        g = builtin_grammar(name)
        sets = _delay_buds_at_zero(name) + ([extra] if extra else [])
        assignments = {k: int(v) for k, v in (item.split("=") for item in sets)}
        text, as_json = _series_output(
            series(g, 10).specialize(assignments), name, assignments
        )
        starts = []
        engine = grammars._summed_iterates

        def recorded(g, max_degree, start):
            starts.append(tuple(start))
            return engine(g, max_degree, start)

        monkeypatch.setattr(grammars, "_summed_iterates", recorded)
        argv = ("series", "--builtin", name, "--degree", "10", "--set", *sets)
        assert run(capsys, *argv) == (0, text, "")
        assert run(capsys, *argv, "--json") == (0, as_json, "")
        started = (g.axiom,) if "x=0" not in sets else ()
        assert starts == [started, started]

    @pytest.mark.parametrize("sets", [["m=0"], ["x=2", "m=0"], ["m=2"], ["x=0"]])
    def test_bud_merged_onto_a_marker(self, capsys, tmp_path, sets):
        path = tmp_path / "merged.grammar"
        path.write_text(
            "buds: x y\naxiom: x\nmarkers: m\nmerge: y m\n"
            "x -> [<x> <x>] @m | [<x> <y>]\ny -> [<x> <x>] | [<y> <x>] @m\n"
        )
        assignments = {k: int(v) for k, v in (item.split("=") for item in sets)}
        poly = series(parse_grammar(path.read_text()), 10).specialize(assignments)
        text, as_json = _series_output(poly, str(path), assignments)
        argv = ("series", "--file", str(path), "--degree", "10", "--set", *sets)
        assert run(capsys, *argv) == (0, text, "")
        assert run(capsys, *argv, "--json") == (0, as_json, "")

    def test_perfect_series(self, capsys):
        code, out, err = run(capsys, "series", "--builtin", "perf", "--degree", "8")
        assert code == 0
        assert out.strip() == "x + x^2 + x^4 + x^8"

    def test_balanced_with_assignment(self, capsys):
        code, payload = run_json(
            capsys,
            "series", "--builtin", "bal", "--degree", "5", "--set", "y=0",
        )
        assert code == 0
        assert payload["assignments"] == {"y": 0}
        terms = {
            (tuple(sorted(t["monomial"].items()))): t["coefficient"]
            for t in payload["terms"]
        }
        assert terms[(("x", 5),)] == fixtures.BALANCED_COUNTS[4]

    def test_refined_maximal_interval_coefficient(self, capsys):
        code, payload = run_json(
            capsys,
            "series", "--builtin", "mbi_xi", "--degree", "12",
            "--set", "y=0", "z=0", "t=0",
        )
        assert code == 0
        degree_12 = {
            tuple(sorted(t["monomial"].items())): t["coefficient"]
            for t in payload["terms"]
            if t["monomial"].get("x") == 12
        }
        assert degree_12 == {
            (("x", 12), ("xi", 1)): 1,
            (("x", 12), ("xi", 2)): 13,
            (("x", 12), ("xi", 3)): 2,
            (("x", 12), ("xi", 4)): 1,
        }

    def test_refined_series_reproduces_every_dimension_row(self, capsys):
        code, payload = run_json(
            capsys,
            "series", "--builtin", "mbi_xi", "--degree", "14",
            "--set", "y=0", "z=0", "t=0",
        )
        assert code == 0
        rows: dict[int, dict[int, int]] = {}
        for term in payload["terms"]:
            mono = dict(term["monomial"])
            xi = mono.pop("xi", 0)
            assert set(mono) == {"x"}
            rows.setdefault(mono["x"], {})[xi] = term["coefficient"]
        assert sorted(rows) == list(range(1, 15))
        assert rows == {
            leaves: dims
            for leaves, dims in fixtures.MAXIMAL_INTERVAL_DIMENSIONS.items()
            if leaves <= 14
        }

    def test_negative_degree_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "series", "--builtin", "perf", "--degree", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --degree must be nonnegative, got -1\n"

    def test_library_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(args):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(cli, "cmd_series", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["series", "--builtin", "perf", "--degree", "3"])
        assert capsys.readouterr().err == ""

    def test_grammar_file(self, capsys, tmp_path):
        path = tmp_path / "doubling.grammar"
        path.write_text("buds: x\naxiom: x\ncounting: x\nx -> [<x> <x>]\n")
        code, out, err = run(capsys, "series", "--file", str(path), "--degree", "8")
        assert code == 0
        assert out.strip() == "x + x^2 + x^4 + x^8"

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys, "series", "--file", "/nonexistent.grammar", "--degree", "3"
        )
        assert code == 2
        assert "cannot read" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "series", "--builtin", "nope", "--degree", "3")
        assert code == 2
        assert "unknown builtin" in err

    def test_bad_assignment(self, capsys):
        code, _, err = run(
            capsys, "series", "--builtin", "perf", "--degree", "4",
            "--set", "y=zero",
        )
        assert code == 2
        assert "--set" in err

    def test_repeated_assignment(self, capsys):
        code, out, err = run(
            capsys, "series", "--builtin", "bal", "--degree", "3",
            "--set", "y=1", "y=0",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --set assigns 'y' twice: y=1 and y=0\n"

    @pytest.mark.parametrize(
        "builtin, name, known",
        [("bal", "q", "x, y"), ("mbi", "u", "x, y, z, t")],
        ids=["unknown", "merged-away"],
    )
    def test_assignment_to_a_missing_variable(self, capsys, builtin, name, known):
        code, out, err = run(
            capsys, "series", "--builtin", builtin, "--degree", "3",
            "--set", f"{name}=0",
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: unknown variable {name!r} in --set; choose from {known}\n"
        )

    def test_marker_assignment(self, capsys):
        code, payload = run_json(
            capsys, "series", "--builtin", "mbi_xi", "--degree", "4",
            "--set", "xi=1",
        )
        assert code == 0
        assert payload["assignments"] == {"xi": 1}

    def test_nonstrict_file_refused(self, capsys, tmp_path):
        path = tmp_path / "loop.grammar"
        path.write_text("buds: x\naxiom: x\ncounting: x\nx -> <x>\n")
        code, _, err = run(capsys, "series", "--file", str(path), "--degree", "3")
        assert code == 2
        assert "strict" in err


class TestCheck:
    def test_closure_balanced_passes(self, capsys):
        code, out, err = run(capsys, "check", "closure-balanced", "--max-n", "8")
        assert code == 0
        assert "PASS" in out
        assert "n=8: closed" in out

    def test_closure_vbalanced_fails_with_chain(self, capsys):
        code, payload = run_json(
            capsys, "check", "closure-vbalanced", "--v=-2..0", "--max-n", "8"
        )
        assert code == 1
        assert payload["verdict"] == "FAIL"
        failing = [r for r in payload["results"] if r["counterexample"]]
        assert failing[0]["n"] == 7
        chain = failing[0]["counterexample"]["chain"]
        assert all(tree.count("(") == 7 for tree in chain)
        assert chain == [
            "((((..).).)(((..).).))",
            "(((..)(..))(((..).).))",
            "(((..)(..))((..)(..)))",
        ]

    def test_closure_vbalanced_closed_family(self, capsys):
        code, out, err = run(
            capsys, "check", "closure-vbalanced", "--v=-1,0,1", "--max-n", "7"
        )
        assert code == 0
        assert "PASS" in out

    def test_closure_text_reports_break(self, capsys):
        code, out, err = run(
            capsys, "check", "closure-vbalanced", "--v=-2..0", "--max-n", "8"
        )
        assert code == 1
        assert "n=7: counterexample" in out
        assert "FAIL: family -2..0 is not closed; first break at n=7" in out

    def test_hypercube_histogram(self, capsys):
        code, payload = run_json(capsys, "check", "hypercube", "--max-n", "7")
        assert code == 0
        assert payload["verdict"] == "PASS"
        by_n = {r["n"]: r for r in payload["results"]}
        assert by_n[7]["intervals"] == fixtures.BALANCED_INTERVAL_COUNTS[7]
        dims = {d["dimension"]: d["count"] for d in by_n[7]["dimensions"]}
        assert dims[3] == 1
        assert sum(dims.values()) == 52

    def test_non_cube_is_a_fail(self, capsys, monkeypatch):
        real = intervals._verify_cube
        bad = (parse("((..)((..).))"), parse("((..)(.(..)))"))

        def claims_a_square(lower, upper, *vectors):
            k, ok = real(lower, upper, *vectors)
            return (2, False) if (lower, upper) == bad else (k, ok)

        monkeypatch.setattr(intervals, "_verify_cube", claims_a_square)
        argv = ("check", "hypercube", "--max-n", "5")
        error = "[((..)((..).)), ((..)(.(..)))] is not a hypercube: 4 vs 2"
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"FAIL: {error}\n"
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert payload == {
            "verdict": "FAIL",
            "error": error,
            "routes": {"subset images": 4, "root split": 2},
        }

    def test_root_count_mismatch_is_a_fail(self, capsys, monkeypatch):
        real = intervals._vector_moves
        monkeypatch.setattr(intervals, "_vector_moves", lambda t: list(real(t))[1:])
        argv = ("check", "hypercube", "--max-n", "4")
        error = "cube dimension routes disagree on [((..).), (.(..))]: 0 vs 1"
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"FAIL: {error}\n"
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert payload == {
            "verdict": "FAIL",
            "error": error,
            "routes": {"root set": 0, "bracket vectors": 1},
        }

    def test_serial_sweep_stops_at_the_first_break(self, capsys, monkeypatch):
        swept = []
        real = cli._closure_at

        def recording(n, allowed):
            swept.append(n)
            return real(n, allowed)

        monkeypatch.setattr(cli, "_closure_at", recording)
        code, out, _ = run(
            capsys, "check", "closure-vbalanced", "--v=-2..0", "--max-n", "12"
        )
        assert code == 1
        assert out.splitlines()[-1].endswith("first break at n=7")
        assert swept == list(range(8))

    @pytest.mark.parametrize(
        "prop, worker, outcome",
        [
            ("closure-balanced", "_closure_at", None),
            (
                "hypercube",
                "_hypercube_at",
                {"trees": 1, "intervals": 1, "dimensions": [], "failing": None},
            ),
        ],
    )
    def test_default_sweeps_to_the_bound(
        self, capsys, monkeypatch, prop, worker, outcome
    ):
        swept = []

        def stub(n, *allowed):
            swept.append(n)
            return outcome

        monkeypatch.setattr(cli, worker, stub)
        code, payload = run_json(capsys, "check", prop)
        assert code == 0
        assert payload["max_n"] == limits.CHECK_SWEEP.bound
        assert swept == list(range(limits.CHECK_SWEEP.bound + 1))

    def test_hypercube_has_its_own_cap(self, capsys, monkeypatch):
        outcome = {"trees": 1, "intervals": 1, "dimensions": [], "failing": None}
        monkeypatch.setattr(cli, "_hypercube_at", lambda n: outcome)
        bound = limits.CHECK_HYPERCUBE.bound
        assert bound > limits.CHECK_SWEEP.bound
        code, payload = run_json(capsys, "check", "hypercube", "--max-n", str(bound))
        assert code == 0
        assert [r["n"] for r in payload["results"]] == list(range(bound + 1))
        code, _, err = run(capsys, "check", "closure-balanced", "--max-n", str(bound))
        assert code == 2
        assert err == (
            f"error: --max-n must lie in 0..{limits.CHECK_SWEEP.bound}, "
            f"got {bound}\n"
        )

    def test_unknown_property(self, capsys):
        code, _, err = run(capsys, "check", "associativity")
        assert code == 2
        assert "unknown property" in err

    def test_vbalanced_needs_v(self, capsys):
        code, _, err = run(capsys, "check", "closure-vbalanced", "--max-n", "5")
        assert code == 2
        assert "--v" in err

    def test_v_rejected_elsewhere(self, capsys):
        code, _, err = run(
            capsys, "check", "closure-balanced", "--v=0", "--max-n", "5"
        )
        assert code == 2

    def test_help_gives_v_after_equals(self, capsys, monkeypatch):
        # A wide terminal keeps argparse from wrapping the help at a hyphen.
        monkeypatch.setenv("COLUMNS", "200")
        code, out, _ = _exit(capsys, main, ["check", "--help"])
        assert code == 0
        assert "--v=-2..0" in out
        code, out, _ = run(
            capsys, "check", "closure-vbalanced", "--v=-2..0", "--max-n", "4"
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("PASS")

    def test_bad_v_set(self, capsys):
        code, _, err = run(
            capsys, "check", "closure-vbalanced", "--v=1..", "--max-n", "5"
        )
        assert code == 2
        code, _, err = run(
            capsys, "check", "closure-vbalanced", "--v=a,b", "--max-n", "5"
        )
        assert code == 2
        assert err == "error: cannot read imbalance set from 'a,b'\n"

    def test_max_n_capped(self, capsys):
        code, _, err = run(capsys, "check", "closure-balanced", "--max-n", "13")
        assert code == 2
        assert "0..12" in err

    def test_jobs_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "closure-balanced", "--jobs", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --jobs 2" in err


class TestHasse:
    def test_tamari_three(self, capsys):
        code, out, err = run(capsys, "hasse", "tamari", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "digraph hasse {"
        assert sum(1 for l in lines if "[label=" in l) == 5
        assert sum(1 for l in lines if "->" in l) == 5

    def test_balanced_seven_structure(self, capsys):
        for n, nodes, edges in ((7, 17, 24), (15, 1553, 4072)):
            code, payload = run_json(capsys, "hasse", "balanced", str(n))
            assert code == 0
            assert payload["nodes"] == nodes
            assert payload["edges"] == edges
            assert payload["dot"].startswith(f"digraph balanced_{n} {{")

    def test_single_node_interval(self, capsys):
        code, out, err = run(capsys, "hasse", "interval", "(..)", "(..)")
        assert code == 0
        assert out.count("[label=") == 1
        assert "->" not in out

    def test_interval_matches_poset(self, capsys):
        code, payload = run_json(
            capsys, "hasse", "interval", "(((..).).)", "(.(.(..)))"
        )
        assert code == 0
        assert payload["nodes"] == 5
        assert payload["edges"] == 5

    def test_interval_highlights_endpoints(self, capsys):
        code, out, err = run(capsys, "hasse", "interval", "((..).)", "(.(..))")
        assert code == 0
        assert out.count("fillcolor") == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t3.dot"
        code, out, err = run(capsys, "hasse", "tamari", "3", "--out", str(target))
        assert code == 0
        assert "wrote 5 nodes, 5 edges" in out
        assert target.read_text().startswith("digraph hasse {")

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    def test_unwritable_out_file(self, capsys, tmp_path, fmt):
        target = tmp_path / "missing" / "t3.dot"
        code, out, err = run(
            capsys, "hasse", "tamari", "3", *fmt, "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --out file: ")
        assert str(target) in err
        assert not target.exists()

    def test_empty_interval_rejected(self, capsys):
        code, _, err = run(capsys, "hasse", "interval", "(.(..))", "((..).)")
        assert code == 2
        assert "empty interval" in err

    def test_size_mismatch_rejected(self, capsys):
        code, _, err = run(capsys, "hasse", "interval", "(..)", "((..).)")
        assert code == 2
        assert "equal sizes" in err

    def test_bad_tree_string(self, capsys):
        code, _, err = run(capsys, "hasse", "interval", "((..)", "((..).)")
        assert code == 2
        assert err == "error: unclosed '(' (offset 5)\n"

    @pytest.mark.parametrize("target", ["tamari", "balanced"])
    def test_negative_size_rejected(self, capsys, target):
        code, out, err = run(capsys, "hasse", target, "-1")
        assert code == 2
        assert out == ""
        assert err == f"error: hasse {target} needs a nonnegative n, got -1\n"

    def test_tamari_capped(self, capsys):
        code, _, err = run(capsys, "hasse", "tamari", "11")
        assert code == 2
        assert "capped" in err


def _exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


_HELP = [
    ["--help"],
    *([name, "--help"] for name in ("enum", "series", "check", "hasse")),
    *(["hasse", target, "--help"] for target in ("tamari", "balanced", "interval")),
]
_USAGE_ERRORS = [
    [],
    ["bogus"],
    ["check", "closure-balanced", "--jobs", "2"],
    ["series", "--builtin", "bal"],
    ["series", "--builtin", "bal", "--degree", "x"],
    ["--json", "series", "--builtin", "bal", "--degree", "3"],
]


class TestUsage:
    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv", _HELP + _USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "none"
    )
    def test_reads_as_the_parser_with_every_command(self, capsys, argv):
        want = _exit(capsys, cli.build_parser().parse_args, argv)
        assert want[0] == (0 if argv in _HELP else 2)
        assert _exit(capsys, main, argv) == want

    def test_a_command_fills_in_only_its_own_arguments(self, capsys, monkeypatch):
        added = []
        real = argparse._ActionsContainer.add_argument

        def recording(container, *names, **kwargs):
            added.append(names[0])
            return real(container, *names, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", recording)
        assert main(["series", "--builtin", "bal", "--degree", "2"]) == 0
        own = ["--builtin", "--file", "--degree", "--set", "--json"]
        # One -h for the top-level parser and one for each command's.
        assert sorted(added) == sorted(["-h"] * 5 + own)
        added.clear()
        cli.build_parser()
        assert {"family", "property", "lower", "--out"} <= set(added)

    def test_console_entry_matches_module(self, capsys):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "tamari_balance.cli", "enum", "narayana", "--n", "4"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "PASS" in result.stdout

    def test_import_starts_no_process_pool(self):
        import subprocess
        import sys

        probe = (
            "import sys, tamari_balance.cli; "
            "print(*(m in sys.modules for m in "
            "('multiprocessing', 'concurrent.futures', 'locale')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False", "False", "True"]
