import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from decimal import MAX_EMAX, Context, Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verlinde
import verlinde.formula as formula
from verlinde.cli import _parse, build_parser, main
from verlinde.numeric import MAX_PRECISION
from verlinde.rootsys import root_system, weight_from_marks
from verlinde.weights import CenterSpec, u_coords

from helpers import reference_listing


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute_so(capsys):
    code, out = run_cli(capsys, "compute", "--group", "so", "--r", "7",
                        "--genus", "3")
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "343"
    assert record["group_label"] == "SO(7)"
    assert record["level"] == 2
    assert record["precision_bits"] == 192
    assert float(record["residual"]) < 1e-20


def test_compute_so4_level_pair(capsys):
    code, out = run_cli(capsys, "compute", "--group", "so", "--r", "4",
                        "--genus", "2")
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "16"
    assert record["level"] == [2, 2]


def test_compute_sc(capsys):
    code, out = run_cli(capsys, "compute", "--group", "sc", "--type", "A",
                        "--rank", "1", "--level", "1", "--genus", "4")
    assert code == 0
    assert json.loads(out)["value"] == "16"


def test_compute_sp(capsys):
    code, out = run_cli(capsys, "compute", "--group", "sp", "--r", "1",
                        "--level", "2", "--genus", "2")
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "10"
    assert record["group_label"] == "Sp(2)"


def test_compute_json_round_trips(capsys):
    _, out = run_cli(capsys, "compute", "--group", "so", "--r", "9",
                     "--genus", "2")
    record = json.loads(out)
    assert json.loads(json.dumps(record, sort_keys=True)) == record


def test_compute_csv(capsys):
    code, out = run_cli(capsys, "compute", "--group", "so", "--r", "4",
                        "--genus", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "group_label,level,genus,value,residual,precision_bits,term_count"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["value"] == "16"
    assert rows[0]["level"] == "2:2"


def test_compute_md(capsys):
    code, out = run_cli(capsys, "compute", "--group", "so", "--r", "5",
                        "--genus", "2", "--format", "md")
    assert code == 0
    assert out.splitlines()[:2] == [
        "| group_label | level | genus | value | residual | precision_bits | term_count |",
        "|---|---|---|---|---|---|---|",
    ]
    assert "| 25 |" in out


def test_missing_required_args_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compute", "--group", "so", "--genus", "2"])
    assert info.value.code == 2


def test_invalid_value_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compute", "--group", "so", "--r", "2", "--genus", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["compare-oracle", "--r", "4", "--genus", "2"],
    ["compare-oracle", "--r", "7", "--genus", "2", "--precision", "32"],
    ["suite", "--r-max", "2"],
    ["suite", "--unitarity-level-max", "-1"],
    ["suite", "--unitarity-rank-max", "0"],
    ["compute", "--group", "so", "--r", "7", "--level", "4", "--genus", "2"],
    ["compute", "--group", "sp", "--r", "2", "--level", "3", "--rank", "2", "--genus", "2"],
    ["compute", "--group", "sc", "--type", "A", "--rank", "2", "--level", "3", "--r", "3",
     "--genus", "2"],
])
def test_bad_arguments_of_any_command_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["compute", "--group", "so", "--r", "5", "--genus", "2"],
    ["compute", "--group", "sc", "--type", "A", "--rank", "10", "--level", "10",
     "--genus", "2"],
    ["compare-oracle", "--r", "12", "--genus", "2"],
    ["suite", "--r-max", "5"],
])
def test_precision_above_the_cap_is_refused_at_once(capsys, command):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(command + ["--precision", str(MAX_PRECISION + 1)])
    assert time.perf_counter() - start < 1
    assert info.value.code == 2
    assert f"<= {MAX_PRECISION} bits" in capsys.readouterr().err


def test_compute_value_beyond_default_precision(capsys):
    code, out = run_cli(capsys, "compute", "--group", "so", "--r", "30",
                        "--genus", "60")
    assert code == 0
    assert json.loads(out)["value"] == str(30**60)


def test_compute_value_beyond_float_range(capsys):
    code, out = run_cli(capsys, "compute", "--group", "so", "--r", "12",
                        "--genus", "300", "--precision", "1200")
    assert code == 0
    assert json.loads(out)["value"] == str(12**300)


def test_compute_value_of_more_than_4300_digits(capsys):
    # 12**4000 has 4,317 digits, past the limit of int-to-str conversion
    code, out = run_cli(capsys, "compute", "--group", "so", "--r", "12",
                        "--genus", "4000", "--precision", "14400")
    assert code == 0
    assert json.loads(out)["value"] == str(Decimal(12**4000))


def test_parser_keeps_no_state_between_calls(capsys):
    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def state():
        return {name: {option: dict(vars(action)) for option, action in options.items()}
                for name, options in build_parser().options.items()}

    sp = ["compute", "--group", "sp", "--r", "2", "--level", "1", "--genus", "3"]
    argvs = [
        sp + ["--precision", "256", "--format", "csv"],
        sp,
        ["compute", "--group", "so", "--genus", "2"],  # argparse error
        ["compute", "--group", "so", "--r", "2", "--genus", "2"],  # ValueError
        ["weights", "--type", "A", "--rank", "1", "--level", "2"],
        sp + ["--bogus"],  # unrecognized argument
        sp + ["--", "x"],
        ["compute", "--group", "so", "--r=5", "--genus", "2"],  # argparse's route
        ["compute", "--group", "so", "--r", "5", "--gen", "2"],  # abbreviation
        ["compute", "-h"],
    ]
    fresh = {}
    for argv in argvs:
        build_parser.cache_clear()
        fresh[tuple(argv)] = outcome(argv)
    assert [fresh[tuple(a)][0] for a in argvs] == [0, 0, 2, 2, 0, 2, 2, 0, 0, 0]
    build_parser.cache_clear()
    parser, before = build_parser(), state()
    for argv in argvs + argvs[::-1] + argvs:
        assert outcome(argv) == fresh[tuple(argv)]
        assert state() == before
    assert build_parser() is parser


SO5 = ["compute", "--group", "so", "--r", "5", "--genus", "2"]
PARSE_MATRIX = [
    SO5,
    ["compute", "--group", "sc", "--type", "A", "--rank", "2", "--level", "3",
     "--genus", "2", "--precision", "256", "--format", "md"],
    ["weights", "--type", "A", "--rank", "1", "--level", "4", "--quotient", "so"],
    ["suite", "--r-max", "3", "--unitarity-level-max", "1", "--format", "json"],
    ["compare-oracle", "--r", "4", "--genus", "2"],
    ["-h"],
    ["--help"],
    ["compute", "-h"],
    ["compare-oracle", "--help"],
    ["-h", "compute"],
    [],
    ["frobnicate"],
    ["Compute", "--group", "so"],
    ["--group", "so", "compute"],  # an option before the command
    ["--"] + SO5,
    ["compute", "--group", "so", "--r", "5"],  # missing required option
    ["compute"],
    ["compute", "--group", "xx", "--r", "5", "--genus", "2"],  # bad choice
    ["weights", "--type", "E", "--rank", "1", "--level", "1"],
    ["compute", "--group", "so", "--r", "five", "--genus", "2"],  # bad int
    SO5 + ["--bogus"],
    SO5 + ["--bogus", "3"],
    SO5 + ["stray"],
    ["compute", "--format", "md", "stray", "--group", "so", "--genus", "2", "--r", "4",
     "--more"],
    SO5 + ["--", "x"],
    SO5 + ["--"],
    ["compute", "--group=so", "--r=5", "--genus=2"],
    ["compute", "--gro", "so", "--r", "5", "--genus", "2"],  # abbreviation
    ["compute", "--he"],
    SO5 + ["--genus", "3"],  # repeated option
    SO5 + ["--precision", "-1_0"],  # int() takes it, argparse reads an option
]


def parse_outcome(parse, argv):
    """The namespace ``parse(argv)`` gives as a dict, or its exit code,
    with what it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_MATRIX, ids=lambda argv: " ".join(argv) or "<none>")
def test_one_pass_parse_matches_the_two_level_parse(argv):
    """``_parse`` gives the namespace, or the exit code and output, of
    argparse's own two-level parse of the same argv."""
    assert parse_outcome(_parse, argv) == parse_outcome(build_parser().parse_args, argv)


BAD_VALUES = st.sampled_from(["", "-7", "-1", "-1_0", "E", "xml", "five", "1.5", "--", "-h", "-"])


def _good_value(action):
    return (st.sampled_from(action.choices) if action.choices
            else st.integers(0, 400).map(str))


@st.composite
def argvs(draw):
    """A command followed by its required options and some others, in exact
    spellings and with valid values, and then up to two faults: an option
    abbreviated (``--gen``) or given with its value in one word
    (``--genus=2``), an invalid value, an option repeated or left out."""
    name = draw(st.sampled_from(sorted(build_parser().options)))
    options = build_parser().options[name]
    pairs = [[option, draw(_good_value(options[option]))]
             for option in draw(st.permutations(sorted(options)))
             if options[option].required or draw(st.booleans())]
    for _ in range(draw(st.integers(0, 2)) if pairs else 0):
        i = draw(st.integers(0, len(pairs) - 1))
        fault = draw(st.sampled_from(["spelling", "value", "repeat", "missing"]))
        if fault == "spelling":
            option = pairs[i][0]
            pairs[i][0] = draw(st.sampled_from([option[:max(3, len(option) - 2)],
                                                option + "="]))
        elif fault == "value":
            pairs[i][1] = draw(BAD_VALUES)
        elif fault == "repeat":
            pairs.append(list(pairs[i]))
        elif len(pairs) > 1:
            del pairs[i]
    argv = [name]
    for option, value in pairs:
        argv += [option + value] if option.endswith("=") else [option, value]
    return argv


@settings(max_examples=500, deadline=None)
@given(argvs())
def test_parse_matches_argparse_on_generated_argvs(argv):
    assert parse_outcome(_parse, argv) == parse_outcome(build_parser().parse_args, argv)


def test_a_command_argv_skips_the_full_parser(monkeypatch):
    """The benchmark's argv shapes reach neither argparse's ``parse_args``
    nor any subparser's ``parse_known_args``; other spellings still do."""
    benchmark_argvs = [
        ["compute", "--group", "so", "--r", "12", "--genus", "60", "--precision", "400"],
        ["compute", "--group", "sp", "--r", "2", "--level", "3", "--genus", "7",
         "--precision", "200"],
        ["compute", "--group", "sc", "--type", "A", "--rank", "2", "--level", "6",
         "--genus", "40", "--precision", "400"],
        ["suite", "--format", "json"],
    ]
    expected = [vars(build_parser().parse_args(argv)) for argv in benchmark_argvs]

    def refuse(name):
        def run(*args, **kwargs):
            raise AssertionError(f"{name} ran")
        return run

    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(argparse.ArgumentParser, name, refuse(name))
    assert [vars(_parse(argv)) for argv in benchmark_argvs] == expected
    for argv in (["compute", "--group=so", "--r=5", "--genus=2"], ["-h", "compute"]):
        with pytest.raises(AssertionError, match="parse_args ran"):
            _parse(argv)


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["verlinde"] + SO5)
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["value"] == "25"


def test_console_script_without_arguments_exit_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["verlinde"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 2
    assert "required: command" in capsys.readouterr().err


def test_unknown_command_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_weights_listing_a1_quotient(capsys):
    code, out = run_cli(capsys, "weights", "--type", "A", "--rank", "1",
                        "--level", "4", "--quotient", "so", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [row["orbit_size"] for row in data["rows"]] == [2, 1]
    assert [row["marks"] for row in data["rows"]] == [[0], [2]]


def test_weights_listing_d4_orbits(capsys):
    code, out = run_cli(capsys, "weights", "--type", "D", "--rank", "4",
                        "--level", "2", "--quotient", "so", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 5
    assert all("u" in row for row in data["rows"])


def test_weights_listing_b2_level_zero(capsys):
    code, out = run_cli(capsys, "weights", "--type", "B", "--rank", "2",
                        "--level", "0")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("|")]
    assert len(lines) == 3  # header, separator, one row


def test_weights_quotient_unsupported(capsys):
    for family, rank in (("C", 2), ("A", 2)):
        with pytest.raises(SystemExit) as info:
            main(["weights", "--type", family, "--rank", str(rank), "--level", "2",
                  "--quotient", "so"])
        assert info.value.code == 2


def test_weights_deterministic(capsys):
    _, first = run_cli(capsys, "weights", "--type", "D", "--rank", "4",
                       "--level", "2", "--format", "json")
    _, second = run_cli(capsys, "weights", "--type", "D", "--rank", "4",
                        "--level", "2", "--format", "json")
    assert first == second


@pytest.mark.parametrize("argv", [
    ["--type", "B", "--rank", "2", "--level", "1"],
    ["--type", "A", "--rank", "2", "--level", "3"],
    ["--type", "D", "--rank", "4", "--level", "2", "--quotient", "so"],
])
def test_weights_markdown_cells_are_the_json_values(capsys, argv):
    """The default Markdown table prints a list cell as [3/2, 1/2], not as
    a Python repr: no quote, and each cell reads back as its json value."""
    _, table = run_cli(capsys, "weights", *argv)
    _, listing = run_cli(capsys, "weights", *argv, "--format", "json")
    assert "'" not in table
    header, _, *lines = table.splitlines()
    headers = header.strip("| ").split(" | ")
    rows = json.loads(listing)["rows"]
    assert sorted(headers) == sorted(rows[0])
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        for cell, value in zip(line[2:-2].split(" | "), map(row.get, headers)):
            if isinstance(value, list):
                assert cell[0] + cell[-1] == "[]"
                assert cell[1:-1].split(", ") == list(map(str, value))
            else:
                assert cell == str(value)


def _weights_cases():
    """A1-A5, B2-B5, C1-C5 and D3-D6 at levels 0-6, each also with
    ``--quotient so`` where the SO quotient is admitted: B, D, and A1 at an
    even level."""
    cases = []
    for family, ranks in (("A", range(1, 6)), ("B", range(2, 6)), ("C", range(1, 6)),
                          ("D", range(3, 7))):
        for rank in ranks:
            for level in range(7):
                cases.append(pytest.param(family, rank, level, False,
                                          id=f"{family}{rank}-{level}"))
                if family in "BD" or (rank == 1 and level % 2 == 0 and family == "A"):
                    cases.append(pytest.param(family, rank, level, True,
                                              id=f"{family}{rank}-{level}-so"))
    return cases


SO_SPEC = {"A": CenterSpec.SO3, "B": CenterSpec.SO_ODD, "D": CenterSpec.SO_EVEN}


@pytest.mark.parametrize("family,rank,level,quotient", _weights_cases())
def test_weights_rows_are_the_set_based_reference(capsys, family, rank, level, quotient):
    """The rows of ``weights --format json``, in order, are the weights of
    the set-based reference, or its orbits' least members and sizes under
    the quotient; their coordinates are those of their marks."""
    argv = ["weights", "--type", family, "--rank", str(rank), "--level", str(level),
            "--format", "json"]
    spec = SO_SPEC[family] if quotient else None
    code, out = run_cli(capsys, *argv, *(["--quotient", "so"] if quotient else []))
    assert code == 0
    rs = root_system(family, rank)
    rows = json.loads(out)["rows"]
    want = reference_listing(((rs, level),), spec)
    assert [tuple(row["marks"]) for row in rows] == [n for n, _ in want]
    if quotient:
        assert [row["orbit_size"] for row in rows] == [size for _, size in want]
    keys = {"marks", "coords"} | ({"u"} if family in "BD" else set())
    keys |= {"orbit_size"} if quotient else set()
    for row in rows:
        assert set(row) == keys
        lam = weight_from_marks(rs, tuple(row["marks"]))
        assert row["coords"] == [str(c) for c in lam]
        if family in "BD":
            assert row["u"] == [str(x) for x in u_coords(rs, lam).u]


def test_suite_small_run_exit_zero(capsys):
    code, out = run_cli(
        capsys, "suite", "--r-max", "4", "--genus-max", "2", "--sp-max", "2",
        "--sp-genus-max", "2", "--unitarity-rank-max", "2",
        "--unitarity-level-max", "2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["failed"] == 0


def test_suite_markdown_output(capsys):
    code, out = run_cli(
        capsys, "suite", "--r-max", "3", "--genus-max", "1", "--sp-max", "1",
        "--sp-genus-max", "1", "--unitarity-rank-max", "1",
        "--unitarity-level-max", "1",
    )
    assert code == 0
    assert out.startswith("| check |")


def test_compare_oracle(capsys):
    code, out = run_cli(capsys, "compare-oracle", "--r", "9", "--genus", "4")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["engine"]["value"] == data["oracle"]["value"] == "6561"


def test_certification_failure_exits_1_with_diagnostics(capsys, monkeypatch):
    from verlinde import cli
    from verlinde.numeric import IntegralityError

    def broken(*args, **kwargs):
        raise IntegralityError("42.5", 0.5, 1536, "farther from an integer than its bound")

    monkeypatch.setattr(cli, "n_so", broken)
    code, out = run_cli(capsys, "compute", "--group", "so", "--r", "7",
                        "--genus", "2")
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "integrality-certification-failed"
    assert record["raw_value"] == "42.5"
    assert float(record["residual"]) == 0.5


def test_a_value_beyond_the_default_precision_is_sized(monkeypatch, capsys):
    """SO(12) at genus 500 is 1,793 bits: the kernel's second pass runs at
    the least 192 << k its bound allows, 3,072 bits, and proves 12^500.  By
    default the value comes from the recurrence, exact at 192 bits."""
    argv = ("compute", "--group", "so", "--r", "12", "--genus", "500")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    default = json.loads(out)
    monkeypatch.setattr(formula, "RECURRENCE_MAX_TERMS", 0)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    record = json.loads(out)
    assert record["value"] == str(12**500)
    assert record["precision_bits"] == 3072
    assert default["value"] == record["value"]
    assert float(default["residual"]) == 0.0 and default["precision_bits"] == 192


def test_a_value_without_headroom_exits_1_in_30_digits(capsys):
    """SO(12) at genus 300000 is 1,075,489 bits: it would need 192 << 13 =
    1,572,864 bits, past MAX_BITS.  The command says so after one pass at
    192 bits, in well under a second, with the raw value in 30 digits."""
    start = time.perf_counter()
    code, out = run_cli(capsys, "compute", "--group", "so", "--r", "12",
                        "--genus", "300000")
    elapsed = time.perf_counter() - start
    assert code == 1
    assert elapsed < 1, f"the refusal took {elapsed:.2f} s"
    record = json.loads(out)
    assert sorted(record) == ["error", "precision_bits", "raw_value", "residual"]
    assert record["precision_bits"] == 1572864
    assert float(record["residual"]) == 0.0
    exact = Context(prec=60, Emax=MAX_EMAX).power(12, 300000)
    assert record["raw_value"] == f"{exact:.29e}"  # 30 significant digits


@pytest.mark.parametrize("argv", [
    ["compute", "--group", "so", "--r", "5"],
    ["compute", "--group", "sp", "--r", "2", "--level", "3"],
    ["compare-oracle", "--r", "5"],
])
def test_a_sum_past_the_decimal_exponent_range_exits_1(capsys, argv):
    """At genus 10^20 the sum overflows the decimal exponent range: a value
    past MAX_BITS, refused with the JSON diagnostic, not a traceback."""
    code, out = run_cli(capsys, *argv, "--genus", str(10**20))
    assert code == 1
    record = json.loads(out)
    assert record == {"error": "integrality-certification-failed", "raw_value": "Infinity",
                      "residual": "inf", "precision_bits": 192}


def test_compare_oracle_certification_failure_exits_1(capsys, monkeypatch):
    from verlinde import cli
    from verlinde.numeric import IntegralityError

    def broken(*args, **kwargs):
        raise IntegralityError("48.5", 0.5, 1536, "farther from an integer than its bound")

    monkeypatch.setattr(cli, "n_so_oracle", broken)
    code, out = run_cli(capsys, "compare-oracle", "--r", "7", "--genus", "2")
    assert code == 1
    assert json.loads(out)["error"] == "integrality-certification-failed"


def test_suite_failure_exits_1(capsys, monkeypatch):
    from verlinde import cli
    from verlinde.suite import SuiteEntry, SuiteReport

    failing = SuiteReport(entries=(SuiteEntry(
        check_name="synthetic", parameters={"x": 1}, expected="1",
        computed="2", residual=0.0, passed=False, elapsed_ms=0.0,
    ),))
    monkeypatch.setattr(cli, "run_default_suite", lambda **kw: failing)
    code, out = run_cli(capsys, "suite")
    assert code == 1


NO_MPMATH = textwrap.dedent("""
    import contextlib, io, sys
    sys.modules["mpmath"] = None  # any import of mpmath raises ImportError
    UNLOADED = ("dataclasses", "inspect", "csv")
    def loaded():
        return [name for name in UNLOADED if name in sys.modules]
    from verlinde.cli import build_parser, main
    build_parser()
    assert not loaded(), ("import", loaded())
    argvs = [
        ["compute", "--group", "so", "--r", "12", "--genus", "60"],
        ["compute", "--group", "sp", "--r", "3", "--level", "4", "--genus", "3"],
        ["compute", "--group", "sc", "--type", "A", "--rank", "2", "--level", "3",
         "--genus", "2"],
        ["suite", "--r-max", "6", "--genus-max", "2", "--sp-max", "2",
         "--sp-genus-max", "2", "--unitarity-rank-max", "2", "--unitarity-level-max", "2"],
        ["compare-oracle", "--r", "9", "--genus", "4"],
        ["weights", "--type", "D", "--rank", "4", "--level", "2", "--quotient", "so"],
    ]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        assert not loaded(), (argv, loaded())
    from verlinde import delta, enumerate_usets, root_system, uset_delta
    print(type(delta(root_system("A", 2), 3, (0, 0, 0))).__name__)
    print(type(uset_delta(enumerate_usets("D", 3, 2)[0][0])).__name__)
""")


def test_no_command_loads_mpmath():
    """With mpmath unimportable, importing the CLI, building its parser,
    running every command, ``delta`` and ``uset_delta`` all succeed, and
    leave dataclasses, inspect and csv unloaded; ``delta`` and
    ``uset_delta`` return Decimals."""
    src = os.path.dirname(os.path.dirname(verlinde.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", NO_MPMATH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Decimal\nDecimal\n"
