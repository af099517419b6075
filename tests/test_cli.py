"""Command-line surface: exit codes, output routing, dump files."""

import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fqlattice
from fqlattice.cli import EXPERIMENTS, build_parser, config_from_args, main, parse_args
from fqlattice.field import Fq, echo_text, get_field
from fqlattice.harness import ConfigError, RunConfig


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_ok(self, capsys):
        code, out, err = run(["count", "--n-max", "2"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "# schema_version=1"
        assert "count: ok" in err

    def test_guard_refusal(self, capsys):
        code, out, err = run(
            ["count", "--q", "3", "--n-max", "9", "--guard", "1000"], capsys)
        assert code == 2
        assert "configuration error" in err and "3486784401" in err
        assert out == ""

    def test_bad_ideal(self, capsys):
        code, _, err = run(["count", "--ideal", "0"], capsys)
        assert code == 2 and "configuration error" in err

    @pytest.mark.parametrize("argv", [
        ["count", "--q", "11", "--n-max", "1", "--ideal", "Y+10"],
        ["count", "--q", "37", "--n-max", "1"],
    ])
    def test_prime_field_coefficients_read_in_decimal(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 0 and "count: ok" in err
        ideal = argv[-1] if "--ideal" in argv else "1"
        assert f" ideal={ideal} " in out

    def test_ideal_zero_terms_of_high_degree_build_nothing(self, capsys):
        # the ideal text is read once and only its nonzero terms are built,
        # so a zero term of degree 10^7 costs neither time nor memory
        tracemalloc.start()
        try:
            code, out, err = run(["count", "--q", "2", "--ideal", "0*Y^10000000+1",
                                  "--n-max", "1"], capsys)
            assert code == 0 and err.startswith("count: ok, ")
            _, unit, _ = run(["count", "--q", "2", "--n-max", "1"], capsys)
            assert out == unit.replace(" ideal=1 ", " ideal=0*Y^10000000+1 ")
            code, out, err = run(["count", "--q", "2", "--ideal", "Y^10000000+Y^10000000",
                                  "--n-max", "1"], capsys)
            assert code == 2 and out == ""
            assert err == "configuration error: ideal generator must be nonzero\n"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("text", ["Y2", "Y^2+", "Y^", "Z", "2Y"])
    def test_unreadable_ideal(self, capsys, text):
        code, out, err = run(["count", "--ideal", text], capsys)
        assert code == 2 and out == ""
        assert f"bad ideal generator {text!r}" in err
        assert "invalid literal" not in err

    @pytest.mark.parametrize("text", ["Y\n+1", "Y\n", "Y\r+1", "Y\u2028+1"])
    def test_ideal_line_break_refused(self, tmp_path, capsys, text):
        # a line break in the echoed ideal would put a non-comment line in
        # the CSV header
        target = tmp_path / "r.csv"
        code, out, err = run(["count", "--q", "2", "--n-max", "2", "--ideal", text,
                              "--out", str(target)], capsys)
        assert code == 2 and out == ""
        assert err == (f"configuration error: bad ideal generator {text!r}: "
                       f"line break {text[1]!r} at position 1\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text,error", [
        # Arabic-Indic one and superscript two: str.isdigit takes both, and
        # int() would read the first as 1 and raise its own message on the second
        ("Y+\u0661", "cannot read '+\u0661' at position 1: expected terms such as "
                     "2*Y^3, Y or 1 joined by + or -"),
        ("1,\u00b2", "coefficient '\u00b2' is not a base-2 digit string"),
    ])
    def test_ideal_non_ascii_digits_refused(self, capsys, text, error):
        code, out, err = run(["count", "--q", "2", "--n-max", "1", "--ideal", text],
                             capsys)
        assert (code, out) == (2, "")
        assert err == f"configuration error: bad ideal generator {text!r}: {error}\n"

    @pytest.mark.parametrize("text", ["Y + 1", "Y\t+1"])
    def test_ideal_spaces_and_tabs_accepted(self, capsys, text):
        code, out, _ = run(["count", "--q", "2", "--n-max", "2", "--ideal", text], capsys)
        _, plus, _ = run(["count", "--q", "2", "--n-max", "2", "--ideal", "Y+1"], capsys)
        assert code == 0
        assert out == plus.replace(" ideal=Y+1 ", f" ideal={text} ")

    @pytest.mark.parametrize("argv", [
        ["count", "--q", "9", "--n-max", "1000000"],
        ["count", "--q", "9", "--n-max", "100000000"],
        ["joint", "--n-max", "1", "--depth-m", "100000000"],
        ["count", "--q", "2", "--n-max", "1", "--ideal", "Y^99999999"],
        ["count", "--q", "2", "--n-max", "3", "--ideal", "Y^30"],
    ])
    def test_guard_refuses_huge_runs_at_once(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("configuration error") and len(err) < 300

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_must_be_positive(self, capsys, workers):
        code, out, err = run(["joint", "--workers", workers], capsys)
        assert code == 2 and out == ""
        assert err == "configuration error: workers must be >= 1\n"

    @pytest.mark.parametrize("guard", ["0", "-5"])
    def test_guard_must_be_positive(self, capsys, guard):
        code, out, err = run(["count", "--guard", guard], capsys)
        assert code == 2 and out == ""
        assert err == "configuration error: guard must be >= 1\n"

    @pytest.mark.parametrize("argv", [
        ["count", "--ideal", "Y^" + "9" * 5000],
        ["count", "--ideal", "Y2" + "x" * 5000],
        ["count", "--ideal", "[" + "1" * 5000 + "]"],
        ["count", "--q", "4", "--modulus", "x" * 5000],
        ["count", "--out", "/" + "x" * 5000 + "/r.csv"],
        ["count", "--out", "/no-such-dir/" + "ab/" * 2000 + "r.csv"],
    ])
    def test_long_text_echo_is_cut(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(("configuration error: bad ",
                               "configuration error: output directory "))
        assert "...'" in err and len(err.encode()) < 300

    def test_dump_cells_refused_before_any_work(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr("fqlattice.harness._compile_transfer", no_work)
        code, out, err = run(["count", "--dump", "--depth-m", "40",
                              "--depth-mp", "60"], capsys)
        assert code == 2 and out == ""
        assert "--dump direction cell list would hold 3 x 2^78 rows" in err

    @pytest.mark.parametrize("name", ["cfe", "verify", "bijection"])
    def test_dump_refused_outside_count_and_joint(self, capsys, monkeypatch, name):
        # the runner refuses it before it builds the field
        def no_work(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr("fqlattice.harness.get_field", no_work)
        code, out, err = run([name, "--dump", "--n-max", "1"], capsys)
        assert code == 2 and out == ""
        assert err == ("configuration error: --dump applies only to count "
                       f"and joint, not {name}\n")

    @pytest.mark.parametrize("tail,refusal", [
        (["--workers", "0"], "workers must be >= 1"),
        (["--n-min", "3", "--n-max", "1"], "--dump applies only to count and joint, not cfe"),
    ])
    def test_dump_refusal_order(self, capsys, tail, refusal):
        code, out, err = run(["cfe", "--dump", *tail], capsys)
        assert (code, out, err) == (2, "", f"configuration error: {refusal}\n")

    @pytest.mark.parametrize("tail", [["--q", "9973"],
                                      ["--q", "1000000000039", "--guard", str(10 ** 30)]])
    def test_field_size_refused_before_any_table(self, capsys, monkeypatch, tail):
        # q^2 passes the guard's exponent check, but no q x q table is built
        def no_work(*args):
            raise AssertionError("the field build started")
        monkeypatch.setattr("fqlattice.field._prime_power_split", no_work)
        monkeypatch.setattr(Fq, "_build_tables", no_work)
        code, out, err = run(["count", *tail, "--n-min", "0", "--n-max", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == (f"configuration error: q={tail[1]} is above 1024, the largest "
                       "field this library builds\n")

    @pytest.mark.parametrize("argv,size", [
        (["--q", "17", "--n-min", "1", "--n-max", "1"], "q^2 = 289"),
        (["--q", "3", "--ideal", "Y^6+Y+2"], "N(I) = 729"),
        (["--q", "2", "--ideal", "Y^9+Y+1"], "N(I) = 512"),
    ])
    def test_verify_refuses_rings_beyond_its_oracle(self, capsys, monkeypatch, argv, size):
        # hecke_index_bruteforce would raise its own ValueError on them
        def no_work(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr("fqlattice.harness.hecke_index", no_work)
        monkeypatch.setattr("fqlattice.harness.hecke_index_bruteforce", no_work)
        code, out, err = run(["verify", *argv], capsys)
        assert (code, out) == (2, "")
        assert err == ("configuration error: verify's oracles take at most 256 "
                       f"residues, but {size}\n")

    def test_bad_modulus(self, capsys):
        code, _, err = run(["count", "--q", "4", "--modulus", "1,1"], capsys)
        assert code == 2 and "configuration error" in err

    @pytest.mark.parametrize("tail", [["--modulus", ""], ["--modulus="]])
    def test_empty_modulus_refused(self, capsys, tail):
        # an empty text is not the built-in modulus
        code, out, err = run(["count", "--q", "4"] + tail, capsys)
        assert code == 2 and out == ""
        assert err == ("configuration error: bad modulus '': expected "
                       "comma-separated coefficient digits, constant first\n")

    @pytest.mark.parametrize("text,digit", [("3,3,1", 3)])
    def test_modulus_digits_not_reduced_mod_p(self, capsys, text, digit):
        # 3,3,1 is not T^2+T+1 read mod 2
        code, out, err = run(["count", "--q", "4", "--modulus", text], capsys)
        assert code == 2 and out == ""
        assert err == (f"configuration error: modulus coefficient {digit} at "
                       "position 0 is not a digit 0..1 of GF(2)\n")

    @pytest.mark.parametrize("text", ["\u0661,\u0661,\u0661", "1,1\n,1", "1,\u00b2,1",
                                      "1,-1,1", "1,1_,1", "1,,1", "1_0,1,1", "1,0_1,1"])
    def test_modulus_pieces_are_ascii_digits(self, capsys, text):
        # int() reads Arabic-Indic digits, strips line breaks and skips a "_"
        # between digits; none of them runs as the modulus (1, 1, 1)
        code, out, err = run(["count", "--q", "4", "--n-max", "1", "--modulus", text],
                             capsys)
        assert (code, out) == (2, "")
        assert err == (f"configuration error: bad modulus {text!r}: expected "
                       "comma-separated coefficient digits, constant first\n")

    @pytest.mark.parametrize("text", ["1, 1, 1", " 1,1,\t1 "])
    def test_modulus_spaces_and_tabs_accepted(self, capsys, text):
        code, out, _ = run(["count", "--q", "4", "--n-max", "1", "--modulus", text],
                           capsys)
        _, plain, _ = run(["count", "--q", "4", "--n-max", "1", "--modulus", "1,1,1"],
                          capsys)
        assert code == 0 and out == plain

    def test_out_directory_missing(self, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr("fqlattice.harness._compile_transfer", no_work)
        missing = tmp_path / "missing"
        # a missing directory is named first, with or without a trailing separator
        for target in (str(missing / "x.csv"), f"{missing / 'x'}{os.sep}"):
            code, out, err = run(["count", "--out", target], capsys)
            assert code == 2 and out == ""
            assert err == (f"configuration error: output directory "
                           f"{echo_text(str(missing))} does not exist\n")
        assert not missing.exists()

    @pytest.mark.parametrize("target", ["", ".", "/", "x/", "x/.", "x//", "{tmp}/r/"])
    def test_out_names_no_file(self, tmp_path, capsys, monkeypatch, target):
        # Path reads "x/", "x/." and "x//" as the file x: a path that ends in
        # a separator or "/." is refused, not rewritten
        def no_work(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr("fqlattice.harness._compile_transfer", no_work)
        monkeypatch.chdir(tmp_path)
        target = target.format(tmp=tmp_path)
        code, out, err = run(["count", "--out", target], capsys)
        assert code == 2 and out == ""
        assert err == f"configuration error: output path {echo_text(target)} names no file\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_names_directory(self, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr("fqlattice.harness._compile_transfer", no_work)
        for target in ("..", str(tmp_path), str(tmp_path) + os.sep,
                       f"{tmp_path}{os.sep}."):
            code, out, err = run(["count", "--out", target], capsys)
            assert code == 2 and out == ""
            assert err == ("configuration error: output path "
                           f"{echo_text(target)} is a directory\n")

    def test_out_unwritable(self, tmp_path, capsys, monkeypatch):
        # a write that fails after the run, as on a read-only or full disk
        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(Path, "open", refuse)
        target = tmp_path / "x.csv"
        code, out, err = run(["count", "--n-max", "1", "--out", str(target)], capsys)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("cannot write report: ") and str(target) in err

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_verification_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("fqlattice.harness.hecke_index",
                            lambda I: 0)
        code, _, err = run(["verify"], capsys)
        assert code == 1
        assert "failure(s)" in err

    def test_joint_trend_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("fqlattice.harness._trend_status", lambda sups: "fail")
        code, out, err = run(["joint", "--n-max", "2"], capsys)
        assert code == 1 and "# summary trend=fail\n" in out
        assert err.splitlines()[-1].startswith("joint: 1 failure(s), ")


def ascii_int(text):
    """int() refusing what is not ASCII or holds a "_", as argparse's int."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


ascii_int.__name__ = "int"


def reference_parser() -> argparse.ArgumentParser:
    """The parser as built before the subcommands shared one set of options:
    each subcommand declares its own, with its own level-range defaults, and
    reads int values with ascii_int."""
    parser = argparse.ArgumentParser(
        prog="fqlattice",
        description="Exact experiments on primitive lattice points over "
                    "rational function fields")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, blurb in (
            ("count", "level counts against the main term"),
            ("joint", "direction/solution cell histograms"),
            ("cfe", "continued-fraction penultimate-denominator statistics"),
            ("verify", "run every oracle comparison and report a table"),
            ("bijection", "two-sided box enumeration comparison")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--q", type=ascii_int, default=2,
                       help="field size, a prime power (default 2)")
        p.add_argument("--modulus", default=None,
                       help="comma-separated modulus coefficients for "
                            "non-prime q, constant term first")
        p.add_argument("--n-min", type=ascii_int, default=1 if name != "bijection" else 0)
        p.add_argument("--n-max", type=ascii_int, default=3 if name != "bijection" else 2)
        p.add_argument("--depth-m", type=ascii_int, default=1,
                       help="direction cylinder depth (default 1)")
        p.add_argument("--depth-mp", type=ascii_int, default=2,
                       help="solution cylinder depth (default 2)")
        p.add_argument("--ideal", default="1",
                       help="ideal generator as polynomial text, e.g. 'Y' or "
                            "'Y^2+Y+1' (default 1)")
        p.add_argument("--workers", type=ascii_int, default=1,
                       help="accepted (must be >= 1) but has no effect: "
                            "count, joint and cfe run in one process")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--dump", action="store_true",
                       help="materialize point lists for levels n <= 4")
        p.add_argument("--guard", type=ascii_int, default=10 ** 8,
                       help="refuse runs whose work estimate "
                            "q^(2*n_max+2+deg gen), report table rows or "
                            "--dump cell list rows exceed this bound")
        p.add_argument("--cell-floor", type=ascii_int, default=8,
                       help="warn when expected counts per cell drop below "
                            "this floor")
    return parser


FLAGS = ("--q", "--modulus", "--n-min", "--n-max", "--depth-m", "--depth-mp",
         "--ideal", "--workers", "--format", "--out", "--dump", "--guard",
         "--cell-floor", "--n-m", "--cell")
VALUES = ("2", "3", "json", "Y+1", "1,1,1")
ODD_VALUES = (" 7", "+3", "1_0", "\u0663", "-1", "-Y", "", "x", "1e8")


def argvs():
    """A subcommand, then exact and abbreviated flags with values, the
    `--flag=value` form, and the bare tokens `--dump`, `-h` and `--`."""
    value = st.one_of(st.sampled_from(VALUES), st.sampled_from(ODD_VALUES))
    pair = st.tuples(st.sampled_from(FLAGS), value)
    piece = st.one_of(pair.map(list), pair.map(lambda fv: ["=".join(fv)]),
                      st.sampled_from([["--dump"], ["-h"], ["--"]]))
    return st.builds(lambda name, pieces: [name] + sum(pieces, []),
                     st.sampled_from(EXPERIMENTS), st.lists(piece, max_size=4))


def _outcome(parse, argv):
    """The RunConfig of an argv, its ConfigError text, or its exit code
    with what the parser printed."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            args = parse(argv)
    except SystemExit as stop:
        return stop.code, printed.getvalue()
    try:
        return config_from_args(args)
    except ConfigError as e:
        return str(e)


class TestParser:
    """The shared option set reads, errs and defaults exactly as the
    reference parser does, on whatever argparse is installed."""

    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def exits(parse, argv, capsys):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        captured = capsys.readouterr()
        return stop.value.code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [
        ["--help"], ["count", "--help"], ["joint", "--help"], ["cfe", "--help"],
        ["verify", "--help"], ["bijection", "--help"],
        ["frobnicate"], [], ["count", "--q", "x"], ["joint", "--format", "xml"],
        ["bijection", "--bogus"], ["cfe", "--n-max"],
        ["count", "stray"], ["joint", "--n-m", "3"], ["-h"],
        ["--q", "2", "count"], ["joint", "--", "x"],
        ["count", "--dump=1"], ["count", "--q="], ["joint", "--ideal", "-Y"],
        ["count", "--q"],
    ])
    def test_output_matches_reference(self, capsys, argv):
        new = self.exits(main, argv, capsys)
        assert new == self.exits(reference_parser().parse_args, argv, capsys)
        helps = "--help" in argv or "-h" in argv
        assert new[0] == (0 if helps else 2)
        assert (new[1] if helps else new[2]).startswith("usage: fqlattice")

    @pytest.mark.parametrize("argv", [
        ["count"], ["joint"], ["cfe"], ["verify"], ["bijection"],
        ["bijection", "--n-max", "4"], ["count", "--n-min", "2"],
        ["joint", "--q", "9", "--n-min", "0", "--ideal", "Y", "--dump"],
        ["cfe", "--depth-mp", "5", "--format", "json", "--guard", "7"],
        ["cfe", "--cell", "4"],
    ])
    def test_config_matches_reference(self, argv):
        parsed = config_from_args(parse_args(argv))
        assert parsed == config_from_args(reference_parser().parse_args(argv))

    @pytest.mark.parametrize("name", ["count", "joint", "cfe", "verify", "bijection"])
    def test_defaults(self, name):
        args = parse_args([name])
        cfg = config_from_args(args)
        levels = (0, 2) if name == "bijection" else (1, 3)
        assert (cfg.experiment, cfg.n_min, cfg.n_max) == (name,) + levels
        assert (cfg.q, cfg.modulus, cfg.depth_m, cfg.depth_mp, cfg.ideal) == (
            2, None, 1, 2, "1")
        assert (args.fmt, args.out, cfg.dump, cfg.guard, cfg.cell_floor) == (
            "csv", None, False, 10 ** 8, 8)

    @settings(max_examples=400, deadline=None)
    @given(argvs())
    @example(["count", "--n-m", "2"])
    @example(["cfe", "--cell", "4"])
    @example(["joint", "--q", "1e8"])
    def test_parse_matches_reference(self, argv):
        # a call the plain parser accepts must read as argparse reads it;
        # any other goes to argparse, which must err or read the same
        assert _outcome(parse_args, argv) == _outcome(reference_parser().parse_args, argv)

    def test_plain_calls_build_no_argparse(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("argparse was built")
        monkeypatch.setattr(argparse, "ArgumentParser", refuse)
        out = ["--out", str(tmp_path / "r.csv")]
        for argv in (["count", "--q", "3", "--ideal", "Y+1", "--workers", "1"],
                     ["joint", "--n-min=2", "--n-max", "3", "--dump", "--format", "json"],
                     ["cfe", "--depth-mp=3", "--guard", "1000", "--cell-floor", "2"]):
            assert main(argv + out) == 0
        with pytest.raises(AssertionError, match="argparse was built"):
            main(["count", "--n-m", "2"] + out)

    @pytest.mark.parametrize("tail,line", [
        (["--q", "\u0663"], "argument --q: invalid int value: '\u0663'"),
        (["--n-max", "1_0"], "argument --n-max: invalid int value: '1_0'"),
        (["--guard", "10_000"], "argument --guard: invalid int value: '10_000'"),
        (["--n-max=1_0"], "argument --n-max: invalid int value: '1_0'"),
    ])
    def test_int_options_refuse_other_scripts_and_underscores(self, tmp_path, capsys,
                                                               tail, line):
        # int() alone reads the first as 3 and the others as 10 and 10000
        out = tmp_path / "r.csv"
        code, stdout, stderr = self.exits(main, ["count", *tail, "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert stderr.splitlines()[-1] == f"fqlattice count: error: {line}"
        assert not out.exists()

    def test_defaults_do_not_leak_between_subcommands(self):
        parser = build_parser()
        for argv, levels in ((["bijection", "--n-max", "4"], (0, 4)),
                             (["count", "--n-min", "2"], (2, 3)),
                             (["bijection"], (0, 2)), (["joint"], (1, 3))):
            cfg = config_from_args(parser.parse_args(argv))
            assert (cfg.n_min, cfg.n_max) == levels


class TestOutputs:
    def test_stdout_csv_parses(self, capsys):
        _, out, _ = run(["count", "--n-max", "1", "--ideal", "Y"], capsys)
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body == ["n,exact_count,main_term,relative_error", "1,1,2,1/2"]

    def test_out_file_and_points_companion(self, tmp_path, capsys):
        target = tmp_path / "run.csv"
        code, out, err = run(
            ["count", "--n-max", "2", "--dump", "--out", str(target)], capsys)
        assert code == 0 and out == ""
        assert f"wrote {target}" in err
        pts = tmp_path / "run.points.csv"
        assert pts.exists()
        lines = pts.read_text().splitlines()
        assert lines[0] == "a,b,w_x,w_y,norm_exp,direction_cell,solution_cell"
        assert len(lines) == 1 + 6 + 24

    def test_json_embeds_points(self, tmp_path, capsys):
        target = tmp_path / "run.json"
        run(["joint", "--n-min", "2", "--n-max", "2", "--format", "json",
             "--dump", "--out", str(target)], capsys)
        doc = json.loads(target.read_text())
        assert len(doc["points"]) == 24
        assert doc["point_columns"][0] == "a"
        assert not (tmp_path / "run.points.csv").exists()

    def test_worker_flag_invisible_in_output(self, tmp_path, capsys):
        paths = []
        for workers in ("1", "2"):
            p = tmp_path / f"w{workers}.csv"
            run(["cfe", "--n-max", "2", "--workers", workers,
                 "--out", str(p)], capsys)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_warning_forwarded_to_stderr(self, capsys):
        _, _, err = run(["joint", "--n-min", "1", "--n-max", "1",
                         "--depth-mp", "4"], capsys)
        assert "depth warning" in err

    def test_config_echo_lists_the_modulus(self, capsys):
        argv = ["joint", "--q", "4", "--modulus", "1,1,1", "--n-max", "1"]
        _, out, _ = run(argv, capsys)
        assert "# config q=4 modulus=[1, 1, 1] n_min=1 " in out
        _, out, _ = run(argv + ["--format", "json"], capsys)
        assert json.loads(out)["config"]["modulus"] == [1, 1, 1]

    def test_config_echo_of_a_prime_field(self, capsys):
        _, out, _ = run(["joint", "--q", "3", "--n-max", "1"], capsys)
        assert "# config q=3 modulus=- n_min=1 " in out
        _, out, _ = run(["joint", "--q", "3", "--n-max", "1", "--format", "json"], capsys)
        assert json.loads(out)["config"]["modulus"] is None

    def test_config_echo_keys_are_the_run_config_fields(self, capsys):
        # every field in RunConfig order; the output format and path are the
        # command line's, not the run's
        _, out, _ = run(["cfe", "--n-max", "1"], capsys)
        echo = next(l for l in out.splitlines() if l.startswith("# config "))
        keys = [item.split("=", 1)[0] for item in echo[len("# config "):].split(" ")]
        assert keys == list(RunConfig._fields)
        assert "fmt" not in keys and "out" not in keys

    def test_json_rational_beyond_the_float_range(self, capsys):
        # 3/2 4^515 points are expected at level 515, above the largest float
        code, out, _ = run(["joint", "--q", "2", "--n-min", "515", "--n-max", "515",
                            "--format", "json", "--guard", str(10 ** 340)], capsys)
        assert code == 0
        expected = json.loads(out)["rows"][0]["expected"]
        assert Fraction(expected["num"], expected["den"]) == Fraction(3, 2) * 4 ** 515 / 6
        assert expected["approx"] is None
        ratio = json.loads(out)["rows"][0]["ratio"]
        assert ratio["approx"] == ratio["num"] / ratio["den"]

    def test_fitted_exponent_of_errors_below_the_floats(self, capsys):
        # the relative errors of levels 538 on underflow a float to 0.0
        code, out, _ = run(["count", "--q", "2", "--ideal", "Y", "--n-min", "535",
                            "--n-max", "545", "--guard", str(10 ** 340)], capsys)
        assert code == 0
        fitted = next(l for l in out.splitlines()
                      if l.startswith("# summary fitted_error_exponent="))
        assert float(fitted.split("=")[1]) == pytest.approx(1.0, rel=1e-6)

    def test_bijection_subcommand(self, capsys):
        code, out, err = run(["bijection", "--ideal", "Y"], capsys)
        assert code == 0
        assert "# summary cases=12" in out
        assert "bijection: ok" in err


def test_module_entry_point():
    # the child imports the same fqlattice as this process, whether that
    # came from PYTHONPATH or from pytest's own pythonpath setting
    src = str(Path(fqlattice.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fqlattice", "count", "--n-max", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "# kind=count" in proc.stdout


def test_no_module_imported_during_a_call(tmp_path):
    # a lazy import inside cli.main would be paid by every cold run
    src = str(Path(fqlattice.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from fqlattice.cli import main\n"
        "for argv in (['count', '--q', '3', '--ideal', 'Y+1'], ['joint'], ['cfe']):\n"
        "    before = set(sys.modules)\n"
        f"    assert main(argv + ['--out', {str(tmp_path / 'r.csv')!r}]) == 0\n"
        "    print(argv[0], sorted(set(sys.modules) - before))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["count []", "joint []", "cfe []"]


@pytest.mark.parametrize("argv", [["count", "--q", "3", "--ideal", "Y+1"],
                                  ["joint", "--q", "4"], ["cfe", "--q", "2"]])
def test_a_run_builds_no_field_its_caller_built(argv, tmp_path, monkeypatch):
    # the run's get_field(q, None) is the caller's get_field(q)
    get_field(int(argv[2]))
    built, init = [], Fq.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Fq, "__init__", counted)
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 0
    assert built == []


@pytest.mark.parametrize("enabled", [True, False])
def test_a_run_pauses_the_collector_and_restores_it(enabled, tmp_path, monkeypatch):
    # a CSV run leaves no cyclic garbage, so pausing the collector for the
    # call costs no memory; the caller's setting comes back after it
    seen, compile_transfer = [], fqlattice.harness._compile_transfer

    def spy(*args):
        seen.append(gc.isenabled())
        return compile_transfer(*args)

    monkeypatch.setattr("fqlattice.harness._compile_transfer", spy)
    gc.collect()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["joint", "--out", str(tmp_path / "r.csv")]) == 0
        assert seen == [False] and gc.isenabled() is enabled
    finally:
        gc.enable()
    assert gc.collect() == 0


@pytest.mark.parametrize("argv", [["joint"], ["cfe", "--ideal", "Y"],
                                  ["count", "--q", "3", "--dump"]])
def test_a_csv_run_leaves_no_cyclic_garbage(argv, tmp_path):
    # the premise of the paused collector: a CSV call leaves nothing for it
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv + ["--out", str(tmp_path / "r.csv")]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_import_loads_no_dataclasses_or_inspect():
    # each costs milliseconds of a cold start; compare against what the
    # interpreter had loaded before the import, whatever its site loads
    src = str(Path(fqlattice.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import fqlattice.cli\n"
        "print(sorted({'argparse', 'dataclasses', 'gettext', 'inspect', 'subprocess'}"
        " & (set(sys.modules) - before)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
