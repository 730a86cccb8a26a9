import argparse
import contextlib
import io
import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nadyn import (
    DegenerateMap,
    DegreeTooHigh,
    FactorClass,
    FiniteClass,
    GAUSS,
    INFINITY,
    KScalar,
    LevelCapExceeded,
    ParseError,
    PowerTooLarge,
    class_str,
    map_str,
    parse_direction_class,
    parse_map,
    parse_point,
    parse_scalar,
    point_str,
)
import nadyn.cli
from nadyn.cli import build_parser, main
from nadyn.lifts import frozen
from nadyn.parsing import MAX_LITERAL_DIGITS, MAX_MAP_DEGREE, _Parser, _mul, _power, parse_rational
from conftest import CORPUS_SOURCES, clear_caches, reference_parse


def test_parse_map_examples():
    phi = parse_map("t*z^2")
    assert [c.to_str() for c in phi.num] == ["0", "0", "t"]
    assert [c.to_str() for c in phi.den] == ["1", "0", "0"]
    phi = parse_map("(z^2-t)/z")
    assert [c.to_str() for c in phi.num] == ["-t", "0", "1"]
    assert [c.to_str() for c in phi.den] == ["0", "1", "0"]
    with pytest.raises(DegenerateMap):
        parse_map("(z^2+1)/(z^2+1)")


def test_parse_map_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_map("t*z^^2")
    assert "position" in str(err.value)


def test_parse_point_examples():
    assert parse_point("gauss") == GAUSS
    p = parse_point("a=0;s=-1/2")
    assert p.exponent == Fraction(-1, 2)
    assert p.center == KScalar.zero()
    q = parse_point("a=1+t;s=2")
    assert q.center == parse_scalar("1+t")


def test_parse_point_level_cap():
    with pytest.raises(LevelCapExceeded):
        parse_point("a=0;s=1/128")


def test_parse_map_level_cap():
    assert parse_map("z^2 + t^(1/64)*z").lift.level == 64
    with pytest.raises(LevelCapExceeded):
        parse_map("z^2 + t^(1/65)*z")


def test_parse_map_stores_the_lift_at_its_smallest_level():
    # t^(1/2)*t^(1/2) is t: the written level 2 is not the map's level
    assert parse_map("z^2+t^(1/2)*t^(1/2)").lift == parse_map("z^2+t").lift
    assert parse_map("z^2+t^(1/2)*t^(1/2)").lift.level == 1
    assert parse_map("z^2 + t^(2/6)*z").lift.level == 3
    with pytest.raises(LevelCapExceeded, match=r"^map needs level 128, cap is 64$"):
        parse_map("z^2+t^(1/128)")


def test_cli_map_level_cap_reads_the_smallest_level(capsys):
    written = run_cli(capsys, "reduce", "--map", "z^2+t^(1/128)*t^(127/128)")
    assert written == run_cli(capsys, "reduce", "--map", "z^2+t")
    assert written[0] == 0 and "error" not in json.loads(written[1])


@pytest.mark.parametrize(
    "argv, position",
    [
        (["ordres", "--map", "z + 0^-1"], 5),
        (["ordres", "--map", "z^2 + (1/t - 1/t)^-2"], 17),
        (["ordres", "--map", "z^2 + 1/(0*z)"], 7),
        (["ordres", "--map", "z^2+t^(1/0)"], 9),
        (["ordres", "--map", "z^2", "--point", "a=t^(1/0);s=1"], 5),
        (["slope", "--map", "z^2", "--direction", "factor=z^2+0^-1"], 5),
    ],
)
def test_cli_zero_in_a_power_is_a_parse_error(capsys, argv, position):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert f"(at position {position})" in err and "Traceback" not in err


def test_parse_error_positions_skip_the_whitespace_before_a_token():
    for text, message in [
        ("z^2 + )", "expected a value (at position 6)"),
        ("z^2 + 1 1", "trailing input (at position 8)"),
        ("z^2 $ 1", "unexpected character '$' (at position 4)"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_map(text)
        assert str(err.value) == message
    assert parse_map("z^2+1 ") == parse_map("z^2+1")


@pytest.mark.parametrize(
    "verb, rest",
    [
        ("ordres", ["--point", "a=0;s=x"]),
        ("slope", ["--point", "a=0;s=x", "--direction", "bogus"]),
        ("minlocus", ["--start", "a=0;s=x"]),
        ("degcheck", ["--t", "abc"]),
    ],
)
def test_cli_reports_the_map_error_before_the_other_inputs(capsys, verb, rest):
    code, out, err = run_cli(capsys, verb, "--map", "z^^2", *rest)
    assert (code, out) == (1, "")
    assert err == "error: expected an integer or parenthesised exponent (at position 2)\n"
    # a map that parses but is degenerate is a domain error, still before the point
    code, out, err = run_cli(capsys, verb, "--map", "(z+1)/(z+1)", *rest)
    assert code == 2 and json.loads(out)["type"] == "DegenerateMap" and err == ""
    # with a valid map, the other input's error shows
    code, out, err = run_cli(capsys, verb, "--map", "z^2", *rest)
    assert (code, out) == (1, "") and "position 2" not in err


def test_cli_map_level_cap_exits_2(capsys):
    code, out, _ = run_cli(capsys, "ordres", "--map", "z^2 + t^(1/65)*z")
    assert code == 2
    assert json.loads(out) == {"error": "map needs level 65, cap is 64", "type": "LevelCapExceeded"}


@pytest.mark.parametrize(
    "written, plain",
    [
        # the series cap counts terms at the centre's minimal level
        ("a=1/(1+t^(1/64)*t^(63/64));s=5", "a=1/(1+t);s=5"),
        # the point level cap reads the centre's minimal level
        ("a=t^(1/3)*t^(2/3);s=1/64", "a=t;s=1/64"),
    ],
)
def test_cli_point_caps_do_not_depend_on_how_the_centre_is_written(capsys, written, plain):
    answers = [run_cli(capsys, "reduce", "--map", "z^2+t", "--point", point) for point in (written, plain)]
    assert answers[0] == answers[1]
    code, out, err = answers[0]
    assert (code, err) == (0, "") and "error" not in json.loads(out)


def test_parse_direction_examples():
    assert parse_direction_class("inf", GAUSS) == INFINITY
    assert parse_direction_class("res=-3/2", GAUSS) == FiniteClass(Fraction(-3, 2))
    cls = parse_direction_class("factor=z^2+1", GAUSS)
    assert isinstance(cls, FactorClass)
    assert cls.poly.to_str("z") == "z^2 + 1"
    # a toward literal is resolved at the base point once, where it is read
    assert parse_direction_class("toward:a=0;s=-1", GAUSS) == INFINITY
    # degree-one factors collapse to finite classes
    assert parse_direction_class("factor=z-3", GAUSS) == FiniteClass(Fraction(3))
    with pytest.raises(ParseError):
        parse_direction_class("factor=z^2+2*z+1", GAUSS)


def test_scalar_grammar_extras():
    assert parse_scalar("t^-1").ord() == -1
    assert parse_scalar("t^(1/2)") == KScalar.t_power(Fraction(1, 2))
    assert parse_scalar("3/2*t^2") == parse_scalar("(3*t^2)/2")
    assert parse_map("z^(2)") == parse_map("z^2")  # a parenthesised integer exponent
    with pytest.raises(ParseError):
        parse_scalar("(1+t)^(1/2)")


def test_round_trip_maps():
    for src in CORPUS_SOURCES + ["(t + z^2 + t*z^3)/(z + t*z^3)", "((1+t)*z^2+1/2)/(z-t^2)"]:
        phi = parse_map(src)
        assert parse_map(map_str(phi)) == phi


def test_round_trip_points():
    for src in ["gauss", "a=0;s=-1/2", "a=1+t;s=2", "a=t^-1;s=-3/2", "a=t^(1/2);s=1"]:
        point = parse_point(src)
        assert parse_point(point_str(point)) == point


def test_round_trip_directions():
    for src in ["inf", "res=2/3", "factor=z^2+1", "toward:a=0;s=-1"]:
        cls = parse_direction_class(src, GAUSS)
        assert parse_direction_class(class_str(cls), GAUSS) == cls


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_ordres_golden(capsys):
    code, out, _ = run_cli(capsys, "ordres", "--map", "t*z^2", "--point", "gauss")
    assert code == 0
    assert json.loads(out) == {"ord_res": "2/1"}


def test_cli_minlocus_golden(capsys):
    code, out, _ = run_cli(capsys, "minlocus", "--map", "t*z^2")
    assert code == 0
    data = json.loads(out)
    assert data["minimizer"] == {"a": "0", "s": "-1/1"}
    assert data["verdict"] == "stable"
    assert data["unique"] is True
    assert data["min_hyp_res"] == "-1/2"


def test_cli_equidist_totally_invariant_exits_2(capsys):
    code, out, _ = run_cli(capsys, "equidist", "--map", "z^2", "--point", "gauss")
    assert code == 2
    data = json.loads(out)
    assert data["type"] == "TotallyInvariantPoint"
    assert "totally invariant" in data["error"]


def test_cli_equidist_report_shape(capsys):
    code, out, _ = run_cli(capsys, "equidist", "--map", "t*z^2", "--nmax", "3")
    assert code == 0
    data = json.loads(out)
    assert data["tv"] == ["0/1", "0/1"]
    assert data["match"] is True
    assert data["levels"][0] == {
        "n": 1,
        "atoms": [{"class": "inf", "mass": "1/1"}],
        "point_mass": "0/1",
    }
    assert data["predicted"]["atoms"] == [{"class": "inf", "mass": "1/1"}]


def test_cli_slope_report(capsys):
    code, out, _ = run_cli(
        capsys, "slope", "--map", "t*z^2", "--point", "gauss", "--direction", "inf"
    )
    assert code == 0
    assert json.loads(out) == {
        "class": "inf",
        "dep": 2,
        "fixed": False,
        "rhs": "-1/2",
        "measured": "-1/2",
    }


def test_cli_slope_all_contains_standard_directions(capsys):
    code, out, _ = run_cli(capsys, "slope", "--map", "z^2", "--point", "gauss")
    data = json.loads(out)
    assert code == 0
    assert len(data["slopes"]) == 3
    assert all(row["rhs"] in ("1/2", "3/2") for row in data["slopes"])


def test_cli_hypres_direct(capsys):
    code, out, _ = run_cli(
        capsys, "hypres", "--map", "(t*z^2+1)/t", "--point", "a=0;s=-1/2", "--direct"
    )
    assert json.loads(out) == {
        "ord_res": "1/1",
        "hyp_res": "-3/4",
        "hyp_res_direct": "-3/4",
    }


def test_cli_semistable(capsys):
    code, out, _ = run_cli(capsys, "semistable", "--map", "t*z^2", "--point", "gauss")
    assert json.loads(out) == {"verdict": "unstable"}


@pytest.mark.parametrize(
    "argv",
    [
        ["intrinsic"],
        ["depths"],
        ["minlocus"],
        ["slope"],
        ["slope", "--direction", "inf"],
        ["semistable"],
        ["equidist"],
        ["hypres"],
        ["degcheck", "--t", "1e-3", "--n", "3"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_cli_degree_one_map_is_a_typed_error(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--map", "z/t", *argv[1:])
    assert code == 2
    assert json.loads(out)["type"] == "DegreeTooLow"
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["ordres", "reduce"])
def test_cli_degree_one_map_ordres_and_reduce_answer(capsys, verb):
    code, out, _ = run_cli(capsys, verb, "--map", "z/t", "--point", "a=0;s=1")
    assert code == 0
    data = json.loads(out)
    # the chart conjugate at a=0;s=1 is z/t, whose resultant has valuation 1
    if verb == "ordres":
        assert data == {"ord_res": "1/1"}
    else:
        assert data["reduced_num"] == ["0/1", "1/1"] and data["reduced_den"] == ["0/1", "0/1"]
        assert data["image"] == {"class": "inf"}


@pytest.mark.parametrize(
    "point, target, resolved",
    [
        ("gauss", "a=0;s=1", "res=0"),
        ("gauss", "a=1;s=2", "res=1"),
        ("gauss", "a=0;s=-1", "inf"),
        ("a=0;s=1", "gauss", "inf"),
        ("a=1;s=1/2", "a=1+t;s=3", "res=0"),
    ],
)
def test_cli_slope_toward_matches_the_resolved_class(capsys, point, target, resolved):
    phi = "(t*z^2+1)/t"
    code, out, err = run_cli(
        capsys, "slope", "--map", phi, "--point", point, "--direction", f"toward:{target}"
    )
    assert code == 0, err
    expected = run_cli(capsys, "slope", "--map", phi, "--point", point, "--direction", resolved)
    assert (code, out) == expected[:2]


def test_cli_slope_toward_the_point_itself_is_a_typed_error(capsys):
    code, out, _ = run_cli(
        capsys, "slope", "--map", "t*z^2", "--point", "a=0;s=1", "--direction", "toward:a=0;s=1"
    )
    assert code == 2
    assert json.loads(out)["type"] == "SamePoint"


def test_cli_usage_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "nosuchverb")
    assert code == 1


_VERBS = [
    "reduce", "depths", "intrinsic", "ordres", "hypres",
    "slope", "minlocus", "semistable", "equidist", "degcheck",
]
_TOP_USAGE = (
    "usage: nadyn [-h]\n"
    "             {reduce,depths,intrinsic,ordres,hypres,slope,minlocus,semistable,equidist,degcheck}\n"
    "             ...\n"
)


@pytest.mark.parametrize(
    "argv, err",
    [
        ([], _TOP_USAGE + "error: the following arguments are required: verb\n"),
        (
            ["bogus"],
            _TOP_USAGE + "error: argument verb: invalid choice: 'bogus' (choose from "
            + ", ".join(repr(v) for v in _VERBS) + ")\n",
        ),
        (
            ["reduce"],
            "usage: nadyn reduce [-h] --map MAP [--point POINT] [--pretty]\n"
            "error: the following arguments are required: --map\n",
        ),
        (
            ["degcheck", "--n", "0"],
            "usage: nadyn degcheck [-h] --map MAP [--pretty] --t T [--n N] [--eps EPS]\n"
            "                      [--hypothesis HYPOTHESIS]\n"
            "error: argument --n: needs an integer >= 1, got '0'\n",
        ),
        (["reduce", "--map", "z^2", "extra"], _TOP_USAGE + "error: unrecognized arguments: extra\n"),
    ],
)
def test_cli_usage_errors_are_pinned(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reduce", "--map", "z^(1/2)"], "fractional exponent on a non-scalar base (at position 1)"),
        (["reduce", "--map", "t^(1/)*z"], "expected a denominator (at position 5)"),
        (["reduce", "--map", "t^(x)*z"], "expected a rational exponent (at position 3)"),
        (["reduce", "--map", "(z"], "expected ')' (at position 2)"),
        (["slope", "--map", "t*z^2", "--direction", "factor=0"], "factor class needs positive degree"),
        (
            ["slope", "--map", "t*z^2", "--direction", "factor=1/z"],
            "factor polynomials cannot have z in a denominator",
        ),
        (
            ["slope", "--map", "t*z^2", "--direction", "factor=z^2+t"],
            "factor polynomials need rational coefficients",
        ),
        (
            ["degcheck", "--map", "t*z^2", "--t", "1e-2", "--hypothesis", '[{"class": "bogus", "mass": "1"}]'],
            "unknown class kind 'bogus'",
        ),
        (["reduce", "--map", "z^2", "--point", "a=z;s=1"], "the variable z is not allowed here (at position 0)"),
        (["slope", "--map", "t*z^2", "--direction", "bogus"], "unknown direction literal 'bogus'"),
    ],
)
def test_cli_rare_syntax_errors_are_pinned(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "cap, argv, error, kind",
    [
        ("abc", ["reduce", "--map", "z^2"], "invalid NADYN_LEVEL_CAP value 'abc'", "LevelCapExceeded"),
        (
            "1000000000",
            ["reduce", "--map", "z^2", "--point", "a=0;s=1/200000000"],
            "internal level 200000000 exceeds hard cap",
            "LevelCapExceeded",
        ),
        (
            None,
            ["slope", "--map", "1+t*z^2", "--direction", "factor=z^2-1"],
            "image direction lies inside the factor class; refine it",
            "AmbiguousClass",
        ),
    ],
)
def test_cli_rare_domain_errors_are_pinned(capsys, monkeypatch, cap, argv, error, kind):
    if cap is not None:
        monkeypatch.setenv("NADYN_LEVEL_CAP", cap)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (2, "")
    assert json.loads(out) == {"error": error, "type": kind}


@pytest.mark.parametrize(
    "argv, flag, key, value",
    [
        (["reduce", "--map", "-z^2"], "--map", "map", "-z^2"),
        (["degcheck", "--map", "t*z^2", "--t", "-1e-3", "--n", "2"], "--t", "t", ["-0.001+0j"]),
    ],
)
def test_cli_values_that_begin_with_a_minus_need_the_equals_form(capsys, argv, flag, key, value):
    # argparse reads a separate value that begins with "-" as a flag
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.endswith(f"error: argument {flag}: expected one argument\n")
    i = argv.index(flag)
    code, out, err = run_cli(capsys, *argv[:i], f"{flag}={argv[i + 1]}", *argv[i + 2 :])
    assert (code, err) == (0, "")
    assert json.loads(out)[key] == value


@pytest.mark.parametrize("verb", [None, *_VERBS])
def test_cli_help_matches_the_fully_built_parser(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["-h"] if verb is None else [verb, "-h"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 0
    assert out == capsys.readouterr().out
    if verb is None:
        assert out.startswith(_TOP_USAGE + "\nexact non-archimedean dynamics solver\n")
    if verb == "reduce":
        assert out == (
            "usage: nadyn reduce [-h] --map MAP [--point POINT] [--pretty]\n\n"
            "options:\n"
            "  -h, --help     show this help message and exit\n"
            "  --map MAP\n"
            "  --point POINT\n"
            "  --pretty\n"
        )


def test_cli_reuses_one_parser_across_calls(capsys, monkeypatch):
    # the benchmark clears the program's caches before each query; the
    # parser is no cache, so the next calls still build no ArgumentParser
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    clear_caches()
    assert run_cli(capsys, "ordres", "--map", "t*z^2") == (0, '{"ord_res": "2/1"}\n', "")
    assert run_cli(capsys, "reduce")[0] == 1
    assert built == []


# main parses a query that names a verb first with that verb's sub-parser
# alone; the full parser, built fresh, is the oracle: the same Namespace,
# or the same exit code, stdout and stderr


_VERB_FLAGS = {
    "reduce": ["--point", "a=0;s=1"],
    "depths": ["--point", "a=1;s=1/2"],
    "intrinsic": ["--point", "gauss"],
    "ordres": ["--point", "a=t;s=2"],
    "hypres": ["--point", "a=0;s=1", "--direct"],
    "slope": ["--point", "gauss", "--direction", "inf"],
    "minlocus": ["--start", "a=0;s=-1"],
    "semistable": ["--point", "a=0;s=1"],
    "equidist": ["--point", "gauss", "--nmax", "2"],
    "degcheck": ["--t", "1e-3", "--n", "4", "--eps", "0.2", "--hypothesis", "auto"],
}


def _flag_forms(verb: str) -> dict:
    """The verb's query with every flag and its value as separate words,
    joined by "=", and with each flag cut to its shortest unambiguous prefix."""
    words = ["--map", "t*z^2", *_VERB_FLAGS[verb], "--pretty"]
    options = list(nadyn.cli._VERB_PARSERS[verb]._option_string_actions)

    def shortest(flag):
        return next(flag[:n] for n in range(3, len(flag) + 1) if [o for o in options if o.startswith(flag[:n])] == [flag])

    joined, i = [], 0
    while i < len(words):
        valued = i + 1 < len(words) and not words[i + 1].startswith("--")
        joined.append(f"{words[i]}={words[i + 1]}" if valued else words[i])
        i += 2 if valued else 1
    return {
        "split": [verb, *words],
        "equals": [verb, *joined],
        "abbreviated": [verb, *(shortest(w) if w.startswith("--") else w for w in words)],
    }


def _parsed(parse, argv, capsys):
    try:
        return parse(argv)
    except SystemExit as exc:
        return exc.code, capsys.readouterr()


@pytest.mark.parametrize("verb", _VERBS)
@pytest.mark.parametrize("form", ["split", "equals", "abbreviated"])
def test_cli_parses_a_query_as_the_full_parser_does(verb, form, capsys):
    argv = _flag_forms(verb)[form]
    if form == "abbreviated":
        assert argv[1] != "--map" and argv[-1] != "--pretty"
    args = nadyn.cli._parse(argv)
    assert args == build_parser().parse_args(argv) and args.verb == verb


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["bogus", "--map", "z^2"],
        ["reduce", "--map", "z^2", "extra", "--pretty", "more"],
        ["reduce", "--map", "z^2", "--p", "gauss"],  # ambiguous: --point or --pretty
        ["reduce", "--map", "z^2", "-h"],
        ["slope", "--map", "z^2", "--direction"],
        ["degcheck", "--map", "z^2", "--t", "1e-3", "--n", "0"],
        ["hypres", "--", "--map", "z^2"],
    ],
)
def test_cli_parse_errors_and_help_are_the_full_parsers(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _parsed(nadyn.cli._parse, argv, capsys) == _parsed(build_parser().parse_args, argv, capsys)


def test_cli_parses_a_well_formed_query_with_the_verb_parser_alone(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a well-formed query")

    monkeypatch.setattr(nadyn.cli._PARSER, "parse_known_args", refused)
    clear_caches()
    assert run_cli(capsys, "ordres", "--map", "t*z^2") == (0, '{"ord_res": "2/1"}\n', "")
    assert run_cli(capsys, "hypres", "--ma=t*z^2", "--po", "a=0;s=1")[0] == 0


_BIG_CONSTANT_MAP = "((z-10000000000001)*(z-1))/(t*z^2+z-10000000000001)"


@pytest.mark.parametrize(
    "verb, expected",
    [
        (
            "depths",
            {
                "parts": [{"poly": "z - 10000000000001", "multiplicity": 1}],
                "inf_mult": 0,
                "deg_h": 1,
                "classes": [{"class": "finite", "value": "10000000000001/1", "depth": 1}],
            },
        ),
        ("minlocus", None),
        ("slope", None),
        ("semistable", {"verdict": "stable"}),
    ],
)
def test_cli_large_constant_terms_answer(capsys, verb, expected):
    code, out, err = run_cli(capsys, verb, "--map", _BIG_CONSTANT_MAP)
    assert (code, err) == (0, "")
    report = json.loads(out)
    if expected is not None:
        assert report == expected
    if verb == "minlocus":
        assert report["verdict"] != "unstable"
    if verb == "slope":
        row = report["slopes"][0]
        assert (row["class"], row["value"], row["dep"]) == ("finite", "10000000000001/1", 1)
        assert all(r["rhs"] == r["measured"] for r in report["slopes"])


def test_parse_map_degree_cap():
    assert parse_map(f"z^{MAX_MAP_DEGREE} + t").degree == MAX_MAP_DEGREE
    for text in (
        f"z^{MAX_MAP_DEGREE + 1} + t",
        "z^1000000000",
        f"1/z^{MAX_MAP_DEGREE} + 1/(z+1)",
        f"(z+1)^{MAX_MAP_DEGREE} * z",
    ):
        with pytest.raises(DegreeTooHigh):
            parse_map(text)


def test_cli_degree_cap_exits_2(capsys):
    code, out, _ = run_cli(capsys, "ordres", "--map", "z^50+t")
    assert code == 2
    assert json.loads(out) == {
        "error": f"expression reaches degree {MAX_MAP_DEGREE + 1} in z, cap is {MAX_MAP_DEGREE}",
        "type": "DegreeTooHigh",
    }


def test_power_by_squaring_equals_repeated_products():
    cases = [("1+t", 13), ("z+1/(2-t)", 7), ("(z^2-t)/(3*z+1)", 5), ("t^(1/2)+z", 6), ("2/t", 9), ("z", 0)]
    for text, n in cases:
        base = _Parser(text, allow_z=True).parse()
        product = (1, [{0: 1}], [{0: 1}])  # the parsed value 1
        for _ in range(n):
            product = _mul(product, base)
        assert _power(base, n) == product, text


_DIFF_ATOMS = st.sampled_from(["0", "1", "2", "3", "12", "t", "z"])
# bases that are a bare power of t, so a fractional exponent applies
_DIFF_T_POWERS = st.sampled_from(["t", "(t)", "(2*t)/2", "(1/t)", "(t^2)", "(3*t^3/3)"])


@st.composite
def _grammar_expression(draw, depth=0):
    """An expression of the documented grammar, parentheses nested up to depth 4."""
    kinds = ["atom", "sign", "binary", "paren", "power", "root"] if depth < 4 else ["atom"]
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(_DIFF_ATOMS)
    if kind == "sign":
        return draw(st.sampled_from(["-", "+", "- "])) + draw(_grammar_expression(depth + 1))
    if kind == "binary":
        op = draw(st.sampled_from(["+", " - ", "*", "/", " * "]))
        return f"{draw(_grammar_expression(depth + 1))}{op}{draw(_grammar_expression(depth + 1))}"
    if kind == "paren":
        return f"({draw(_grammar_expression(depth + 1))})"
    if kind == "power":
        base = draw(st.one_of(_DIFF_ATOMS, _grammar_expression(depth + 1).map(lambda e: f"({e})")))
        return f"{base}^{draw(st.integers(-3, 4))}"
    p, q = draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3, 4, 1, 2, 3, 0]))
    return f"{draw(_DIFF_T_POWERS)}^({p}/{q})"


@st.composite
def _differential_input(draw):
    """A grammar expression, sometimes broken: a dropped token, a stray
    character, a division by zero or a power past the degree or size caps."""
    text = draw(_grammar_expression())
    broken = draw(st.sampled_from(["none", "none", "drop", "stray", "zero", "degree", "power"]))
    if broken == "drop":
        tokens = re.findall(r"\d+|[A-Za-z_]+|\S", text)
        i = draw(st.integers(0, len(tokens) - 1))
        text = " ".join(tokens[:i] + tokens[i + 1 :])
    elif broken == "stray":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(["$", "#", ".", "é", "!"])) + text[i:]
    elif broken == "zero":
        text = draw(st.sampled_from([f"{text}/0", f"({text})/(t-t)", f"{text}*0^-1"]))
    elif broken == "degree":
        text = f"{text} + z^40"
    elif broken == "power":
        text = f"{text}*t^401"
    return text


def _parse_outcome(parse, text: str, allow_z: bool):
    """(level, frozen value) of a parse, or the type and message of its error."""
    try:
        value = parse(text, allow_z)
    except (ParseError, DegreeTooHigh, PowerTooLarge) as exc:
        return type(exc), str(exc)
    return value[0], frozen(value)


@settings(max_examples=400, deadline=None)
@given(text=_differential_input(), allow_z=st.booleans())
def test_flat_evaluator_matches_the_recursive_descent_parser(text, allow_z):
    # the replaced parser, on the generic product route, is the oracle: the same
    # value, or the same error with the same message and position
    expected = _parse_outcome(reference_parse, text, allow_z)
    assert _parse_outcome(lambda t, z: _Parser(t, z).parse(), text, allow_z) == expected


def test_power_caps():
    # the degree cap names the degree that successive products reach first
    for text, degree in [("(z^2+1)^17", 34), ("(z^3+t)^-11", 33), ("(z^5/(z+1))^7", 35)]:
        with pytest.raises(DegreeTooHigh, match=f"reaches degree {degree} in z"):
            parse_map(text)
    for ok, too_large in [("(1+t)^80", "(1+t)^81"), ("t^400", "t^401"), ("2^-200", "2^-201")]:
        parse_map(f"z^2 + {ok}")
        with pytest.raises(PowerTooLarge):
            parse_map(f"z^2 + {too_large}")


@pytest.mark.parametrize("text", ["z^2+t^1000000000", "z^2+(1+t)^1000000000", "z^2+2^1000000000"])
def test_cli_huge_power_exits_2_at_once(capsys, text):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "ordres", "--map", text)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out)["type"] == "PowerTooLarge"


def test_cli_ordres_of_a_dense_map_is_fast(capsys):
    # ordRes takes the valuation of the Sylvester determinant by u-adic
    # elimination; its exact value had 3-4 s of dense Bareiss products
    clear_caches()
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "ordres", "--map", "(z+1/(2^45+2^45*t))^8")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, '{"ord_res": "0/1"}\n')


def test_cli_syntax_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "ordres", "--map", "t*)z^2")
    assert code == 1
    assert "error" in err


def test_cli_huge_literal_is_a_parse_error_with_its_position(capsys):
    # CPython's int() refuses a literal this long; the tokenizer refuses it first
    code, out, err = run_cli(capsys, "ordres", "--map", "z^2 + " + "7" * 5000)
    assert (code, out) == (1, "")
    assert "5000 digits" in err and "(at position 6)" in err
    assert parse_map("z^2 + " + "7" * MAX_LITERAL_DIGITS).degree == 2


def test_parse_rational_caps_digits_before_building_powers():
    for text in ["1e5000", "-1e-5000", "1e10000000", "9" * 4000 + "." + "9" * 4000]:
        with pytest.raises(ParseError, match=f"exceeds {MAX_LITERAL_DIGITS} digits"):
            parse_rational(text)
    assert parse_rational("1e300") == 10**300
    assert parse_rational("25e-4301") == Fraction(1, 4 * 10**4299)
    assert parse_rational("0e10000000") == 0


NINES = "9" * MAX_LITERAL_DIGITS


@pytest.mark.parametrize(
    "argv",
    [
        # ordRes = 6s has one digit more than the accepted s
        ("ordres", "--map", "z^2", "--point", f"a=0;s={NINES}"),
        # a coefficient of twice the digits of one accepted literal
        ("reduce", "--map", f"{NINES}*{NINES}*z^2 + 1"),
    ],
)
def test_cli_output_past_the_digit_limit_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (2, "")
    assert json.loads(out) == {
        "error": f"a value to print exceeds {MAX_LITERAL_DIGITS} decimal digits",
        "type": "OutputTooLarge",
    }


def test_cli_level_past_the_digit_limit_keeps_the_level_cap_error(capsys):
    # the lcm of two accepted levels has too many digits to print
    level = math.lcm(int(NINES), int(NINES[1:]))
    for argv in (
        ("ordres", "--map", f"z + t^(1/{NINES}) + t^(1/{NINES[1:]})"),
        ("ordres", "--map", "z^2", "--point", f"a=t^(1/{NINES});s=1/{NINES[1:]}"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (2, "")
        error = json.loads(out)
        assert error["type"] == "LevelCapExceeded"
        assert f"needs level of {level.bit_length()} bits, cap is" in error["error"]


def test_cli_degenerate_map_exit_2(capsys):
    code, out, _ = run_cli(capsys, "ordres", "--map", "(z^2+1)/(z^2+1)")
    assert code == 2
    assert json.loads(out)["type"] == "DegenerateMap"


def test_cli_determinism(capsys):
    first = run_cli(capsys, "minlocus", "--map", "(t*z^2+1)/t")
    second = run_cli(capsys, "minlocus", "--map", "(t*z^2+1)/t")
    assert first == second


def test_cli_pretty_flag(capsys):
    code, out, _ = run_cli(capsys, "ordres", "--map", "z^2", "--pretty")
    assert code == 0
    assert out.startswith("{\n")


def test_cli_degcheck_small(capsys):
    code, out, _ = run_cli(
        capsys, "degcheck", "--map", "t*z^2", "--t", "1e-2", "--n", "6", "--eps", "0.1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["per_t"][0]["masses"][0]["class"] == "inf"
    assert float(data["per_t"][0]["masses"][0]["sampled"]) >= 0.99
    assert float(data["max_discrepancy"]) <= 0.01


@pytest.mark.parametrize("t_arg", ["abc", ",", "nan", "1e-3,1+nanj"])
def test_cli_degcheck_bad_t_is_a_parse_error(capsys, t_arg):
    code, out, err = run_cli(capsys, "degcheck", "--map", "t*z^2", "--t", t_arg, "--n", "4")
    assert code == 1
    assert out == ""
    assert "error: --t" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flag,value", [("--n", "0"), ("--n", "-3"), ("--eps", "0"), ("--eps", "-0.1"), ("--eps", "nan")]
)
def test_cli_degcheck_rejects_bad_n_and_eps(capsys, flag, value):
    code, out, err = run_cli(capsys, "degcheck", "--map", "t*z^2", "--t", "1e-2", f"{flag}={value}")
    assert code == 1
    assert out == ""
    assert f"argument {flag}" in err


@pytest.mark.parametrize("flag,value", [("--nmax", "0"), ("--nmax", "-3")])
def test_cli_equidist_rejects_bad_nmax(capsys, flag, value):
    code, out, err = run_cli(capsys, "equidist", "--map", "t*z^2", f"{flag}={value}")
    assert code == 1
    assert out == ""
    assert f"argument {flag}" in err


@pytest.mark.parametrize("n", ["17", "40", "1000000000"])
def test_cli_degcheck_sample_cap_exits_2(capsys, n):
    code, out, _ = run_cli(capsys, "degcheck", "--map", "t*z^2", "--t", "1e-2", "--n", n)
    assert code == 2
    assert json.loads(out)["type"] == "SampleCapExceeded"


@pytest.mark.parametrize(
    "t_arg, expected",
    [
        # the t-values before a pole are sampled first, and 2^17 points exceed the cap
        ("1e-3,0", {"error": "sample size 2^17 exceeds cap 65536", "type": "SampleCapExceeded"}),
        ("0,1e-3", {"error": "specialisation needs t != 0", "type": "CoefficientPole"}),
    ],
)
def test_cli_degcheck_samples_the_t_values_before_a_pole(capsys, t_arg, expected):
    code, out, _ = run_cli(capsys, "degcheck", "--map", "t*z^2", "--t", t_arg, "--n", "17")
    assert (code, json.loads(out)) == (2, expected)


@pytest.mark.parametrize(
    "hypothesis",
    [
        "[",
        "1",
        "[1]",
        '[{"class": "inf"}]',
        '[{"class": "finite", "mass": "1"}]',
        '[{"class": "finite", "value": 3, "mass": "1"}]',
        '[{"class": "inf", "mass": "2"}]',
        '[{"class": "factor", "poly": null, "mass": "1"}]',
        '[{"class": "factor", "poly": true, "mass": "1"}]',
        '[{"class": "factor", "poly": ["z^2 + 1"], "mass": "1"}]',
        '[{"class": "finite", "value": null, "mass": "1"}]',
    ],
)
def test_cli_degcheck_bad_hypothesis_is_a_parse_error(capsys, hypothesis):
    code, out, err = run_cli(
        capsys, "degcheck", "--map", "t*z^2", "--t", "1e-2", "--n", "4", "--hypothesis", hypothesis
    )
    assert code == 1
    assert out == "" and "hypothesis" in err


_BIG = "1" + "0" * 400  # past the float range, under MAX_LITERAL_DIGITS


@pytest.mark.parametrize(
    "phi, t_arg, message",
    [
        ("(t*z^2+1)/t", "1e-200", "specialised resultant vanishes at t = (1e-200+0j)"),
        # 1/t overflows to inf without raising
        ("(t*z^2+1)/t", "1e-320", "coefficient 1/t leaves the float range at t = (1e-320+0j)"),
        # t^400 underflows to 0: ZeroDivisionError
        ("z^2+1/t^400", "1e-3", "coefficient 1/t^400 leaves the float range at t = (0.001+0j)"),
        # an int past the float range: OverflowError
        (f"{_BIG}*z^2+1/t", "1e-3", f"coefficient {_BIG} leaves the float range at t = (0.001+0j)"),
    ],
    ids=["1e-200", "1e-320", "t^400", "400 digits"],
)
def test_cli_degcheck_float_range_is_ill_conditioned(capsys, phi, t_arg, message):
    code, out, err = run_cli(capsys, "degcheck", "--map", phi, "--t", t_arg, "--n", "4")
    assert (code, err) == (2, "")
    assert json.loads(out) == {"error": message, "type": "IllConditioned"}


def test_cli_degcheck_hypothesis_value_past_the_float_range_is_ill_conditioned(capsys):
    hypothesis = json.dumps([{"class": "finite", "value": _BIG, "mass": "1"}])
    code, out, err = run_cli(
        capsys, "degcheck", "--map", "z^2+1/t", "--t", "1e-3", "--n", "4", "--hypothesis", hypothesis
    )
    assert (code, err) == (2, "")
    assert json.loads(out) == {"error": f"hypothesis value {_BIG} leaves the float range", "type": "IllConditioned"}


@pytest.mark.parametrize("value", ["1e200", "-1e300"])
def test_cli_degcheck_hypothesis_value_too_large_to_square(capsys, value):
    # past 1.34e154 the chordal distances to the target cannot square its
    # modulus; the ball of radius 0.1 around it is then the ball around
    # infinity, up to points of modulus near 10
    hypothesis = json.dumps([{"class": "finite", "value": value, "mass": "1"}])
    code, out, err = run_cli(
        capsys, "degcheck", "--map", "z^2+1/t", "--t", "1e-3", "--n", "4", "--hypothesis", hypothesis
    )
    assert (code, err) == (0, "")
    (row,) = json.loads(out)["per_t"][0]["masses"]
    assert (row["sampled"], row["targets"]) == ("1", [f"{float(value):g}+0j"])


_DEGCHECK_GOLDEN = json.loads((Path(__file__).parent / "data" / "degcheck_golden.json").read_text())


@pytest.mark.parametrize("case", _DEGCHECK_GOLDEN, ids=lambda case: " ".join(case["argv"][2:])[:60])
def test_cli_degcheck_golden(capsys, case):
    # stdout recorded from the per-point scalar sampler that the batched one replaced
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


_EXACT_GOLDEN = json.loads((Path(__file__).parent / "data" / "exact_golden.json").read_text())


@pytest.mark.parametrize("case", _EXACT_GOLDEN, ids=lambda case: " ".join(case["argv"])[:70])
def test_cli_exact_golden(capsys, case):
    # stdout recorded from the solver that normalised every intermediate map:
    # tree and iterates workload queries (seed 1), the nmax=4 equidist case,
    # and reductions whose chart conjugate has a non-monomial pivot
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_T_GOOD = ["1e-3", "1e-4", "-0.01", "2e-3j", "0.3+0.1j"]
_T_BAD = ["0", "1", "-1e-300", "1e-320", "inf", "nan", "abc", "", " "]
_GOOD_ATOM = st.builds(
    lambda atom, mass: {**atom, "mass": mass},
    st.one_of(
        st.just({"class": "inf"}),
        st.sampled_from(["0", "1", "-1/2"]).map(lambda v: {"class": "finite", "value": v}),
        st.sampled_from(["z^2 + 1", "z^2 - 2", "z^3 - 2"]).map(lambda f: {"class": "factor", "poly": f}),
    ),
    st.sampled_from(["1", "1/2", "0", "1/3"]),
)
_ANY_ATOM = st.fixed_dictionaries(
    {
        "class": st.sampled_from(["inf", "finite", "factor", "bogus"]),
        "mass": st.one_of(
            st.sampled_from(["1", "1/2", "0", "2", "-1/3", "x", "1/0"]), st.integers(-1, 2)
        ),
    },
    optional={
        "value": st.sampled_from(["0", "1", "-1/2", "y", 5]),
        "poly": st.sampled_from(["z^2 + 1", "z^2 - 2", "z - 3", "z^2+2*z+1", "q"]),
    },
)


_FLAGS = {
    # flag: (well-formed values, values from the whole grammar and beyond)
    "t": (
        st.lists(st.sampled_from(_T_GOOD), min_size=1, max_size=2).map(",".join),
        st.lists(st.sampled_from(_T_GOOD + _T_BAD), max_size=3).map(",".join),
    ),
    "n": (
        st.integers(1, 8).map(str),
        st.one_of(st.integers(-2, 18).map(str), st.sampled_from(["", "x", "2.5", "99"])),
    ),
    "eps": (
        st.floats(min_value=1e-3, max_value=0.5).map(str),
        st.one_of(st.floats().map(str), st.sampled_from(["-0.1", "0", "x"])),
    ),
    "hypothesis": (
        st.one_of(st.just("auto"), st.lists(_GOOD_ATOM, min_size=1, max_size=2).map(json.dumps)),
        st.one_of(st.lists(_ANY_ATOM, max_size=3).map(json.dumps), st.text(max_size=8)),
    ),
}


@st.composite
def _degcheck_argv(draw):
    # at most one flag is drawn from the wide grammar, so that a third of the
    # runs are well-formed and reach the sampler
    wide = draw(st.sampled_from([None, None, *_FLAGS]))
    phi = draw(st.sampled_from(["t*z^2", "(t*z^2+1)/t", "(z^2-t)/z", "z^2", "(z^3-t)/z"]))
    argv = ["degcheck", "--map", phi]
    for flag, (good, anything) in _FLAGS.items():
        argv.append(f"--{flag}={draw(anything if flag == wide else good)}")
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=_degcheck_argv())
def test_cli_degcheck_fuzz_never_tracebacks(argv):
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2)
    if code in (0, 2):
        json.loads(out)
    assert "Traceback" not in err


_EXPONENTS = st.one_of(
    st.integers(0, 3).map(str),
    st.integers(1, 2).map(lambda k: f"-{k}"),
    st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(lambda pq: f"({pq[0]}/{pq[1]})"),
)


@st.composite
def _map_expression(draw, depth=0):
    kind = draw(st.sampled_from(["atom", "atom", "power", "binary", "paren"] if depth < 3 else ["atom"]))
    if kind == "atom":
        return draw(st.sampled_from(["z", "t", "0", "1", "2", "1/2"]))
    if kind == "power":
        return f"{draw(st.sampled_from(['z', 't', '0', '(1+t)', '(t-t)']))}^{draw(_EXPONENTS)}"
    if kind == "paren":
        return f"({draw(_map_expression(depth + 1))})"
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    return f"{draw(_map_expression(depth + 1))}{op}{draw(_map_expression(depth + 1))}"


@settings(max_examples=80, deadline=None)
@given(
    verb=st.sampled_from(["ordres", "reduce"]),
    expression=st.one_of(
        _map_expression(),
        # a valid map with one drawn term, and the raw token soup of the grammar
        _map_expression().map(lambda e: f"(z^2+t)/(1+t*z) + {e}"),
        st.lists(st.sampled_from(["z", "t", "1", "0", "^", "-", "+", "*", "/", "(", ")", "(1/2)"]),
                 max_size=8).map("".join),
    ),
    point=st.sampled_from(["gauss", "a=0;s=1", "a=1;s=1/2", "a=t^(1/2);s=1"]),
)
def test_cli_map_fuzz_never_tracebacks(verb, expression, point):
    code, out, err = _run_in_process([verb, "--map", expression, "--point", point])
    assert code in (0, 1, 2)
    if code in (0, 2):
        data = json.loads(out)
        if code == 0 and verb == "reduce":
            assert map_str(parse_map(data["map"])) == data["map"]
    assert "Traceback" not in err


_RATIONAL_TEXT = st.one_of(
    st.integers(-4, 4).map(str),
    st.tuples(st.integers(-8, 8), st.integers(0, 6)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(["", "1/2/3", "a", "0.5", "-0", "1e2", "1e5000", "-1e-5000", "1e300"]),
)
_POINT_TEXT = st.one_of(
    st.just("gauss"),
    st.builds(
        lambda a, s: f"a={a};s={s}",
        st.sampled_from(["0", "1", "-3/2", "t", "t^-1", "1/t + 2", "t^(1/2)", "2*t^(-2/3) - t", "1/(1+t)", "z", "x"]),
        _RATIONAL_TEXT,
    ),
    st.sampled_from(
        ["a=0", "s=1", "a=0;s=1;b=2", "Gauss", "", "a=1+t;s=10000000", "a=1/(1+t);s=10000000"]
    ),
)
_DIRECTION_TEXT = st.one_of(
    st.just("inf"),
    _RATIONAL_TEXT.map(lambda q: f"res={q}"),
    st.sampled_from(["z^2+1", "z^2-2", "z-3", "z^2+2*z+1", "z^2+t", "1", "z/(z+1)"]).map(lambda f: f"factor={f}"),
    _POINT_TEXT.map(lambda p: f"toward:{p}"),
    st.sampled_from(["res", "up", "toward:"]),
)


@settings(max_examples=80, deadline=None)
@given(
    verb=st.sampled_from(["slope", "hypres", "depths", "intrinsic", "semistable"]),
    phi=st.sampled_from(CORPUS_SOURCES + ["(z^2+t)/(1+t*z)+1/t", "(z^3-t)/z", "z/t"]),
    point=_POINT_TEXT,
    direction=_DIRECTION_TEXT,
    flag=st.booleans(),
)
def test_cli_point_and_direction_fuzz_never_tracebacks(verb, phi, point, direction, flag):
    argv = [verb, "--map", phi, f"--point={point}"]
    if flag and verb == "slope":
        argv.append(f"--direction={direction}")
    if flag and verb == "hypres":
        argv.append("--direct")
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2)
    if code in (0, 2):
        json.loads(out)
    assert "Traceback" not in err
