"""Command-line front end for the experiment drivers.

Exit codes: 0 when the run completes and every hard assertion holds, 1 when
the report counts failures (verification rows, bijection cases, or a failed
joint trend check), 2 for
configuration errors (including the work and row guards and an `--out` that
names no file or whose directory does not exist) and for a report that cannot
be written.  The format, the output path and the wall time are the front
end's, not the run's: it checks `--out` first and times the runner itself.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

from .field import echo_text
from .harness import (ConfigError, Report, RunConfig, RUNNERS, render_report,
                      to_points_csv)

EXPERIMENTS = tuple(RUNNERS)


def _int(text: str) -> int:
    """int() of an ASCII text without "_": int() alone would also read other
    scripts' digits and a "_" between digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII int: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse's "invalid int value" names the type by it

# the options every subcommand takes: flag, dest, kind, default, help, choices;
# config_from_args fills the level range
OPTIONS = (
    ("--q", "q", _int, 2, "field size, a prime power (default 2)", None),
    ("--modulus", "modulus", str, None,
     "comma-separated modulus coefficients for non-prime q, constant term first", None),
    ("--n-min", "n_min", _int, None, None, None),
    ("--n-max", "n_max", _int, None, None, None),
    ("--depth-m", "depth_m", _int, 1, "direction cylinder depth (default 1)", None),
    ("--depth-mp", "depth_mp", _int, 2, "solution cylinder depth (default 2)", None),
    ("--ideal", "ideal", str, "1",
     "ideal generator as polynomial text, e.g. 'Y' or 'Y^2+Y+1' (default 1)", None),
    ("--workers", "workers", _int, 1,
     "accepted (must be >= 1) but has no effect: count, joint and cfe run in "
     "one process", None),
    ("--format", "fmt", str, "csv", None, ("csv", "json")),
    ("--out", "out", str, None, "output path (default stdout)", None),
    ("--dump", "dump", bool, False, "materialize point lists for levels n <= 4", None),
    ("--guard", "guard", _int, 10 ** 8,
     "refuse runs whose work estimate q^(2*n_max+2+deg gen), report table rows "
     "or --dump cell list rows exceed this bound", None),
    ("--cell-floor", "cell_floor", _int, 8,
     "warn when expected counts per cell drop below this floor", None),
)
_BY_FLAG = {option[0]: option for option in OPTIONS}


def _parse_modulus(text: Optional[str]):
    if text is None:
        return None
    # ASCII digits with spaces or tabs around them: int() alone would also
    # read other scripts' digits, a sign, a line break or a "_" between digits
    pieces = [piece.strip(" \t") for piece in text.split(",")]
    try:
        if all(piece and set(piece) <= set("0123456789") for piece in pieces):
            return tuple(map(int, pieces))  # which refuses a piece past its digit limit
    except ValueError:
        pass
    raise ConfigError(f"bad modulus {echo_text(text)}: expected comma-separated "
                      "coefficient digits, constant first")


def build_parser():
    """The argparse tree over OPTIONS; it writes every help text and usage
    error, and reads abbreviated flags and `--`."""
    import argparse
    common = argparse.ArgumentParser(add_help=False)
    for flag, dest, kind, default, text, choices in OPTIONS:
        how = {"action": "store_true"} if kind is bool else {"type": kind, "choices": choices}
        common.add_argument(flag, dest=dest, default=default, help=text, **how)
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
        sub.add_parser(name, help=blurb, parents=[common])
    return parser


def _parse_plain(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives for a plain call: a subcommand, then only
    `--dump`, exact flags each followed by a value, and `--flag=value`, where
    no value starts with '-', `--format` names one of its choices and int
    values read by _int() as argparse's type=_int reads them.  None for any
    other argv, which argparse then parses."""
    if not argv or argv[0] not in EXPERIMENTS:
        return None
    args = SimpleNamespace(experiment=argv[0],
                           **{dest: default for _, dest, _, default, _, _ in OPTIONS})
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in _BY_FLAG:
            return None
        _, dest, kind, _, _, choices = _BY_FLAG[flag]
        if kind is bool:
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, "-")  # a missing value falls back as a '-' one
            if value.startswith("-") or (choices and value not in choices):
                return None
            try:
                value = kind(value)
            except ValueError:
                return None
        setattr(args, dest, value)
    return args


def parse_args(argv: Optional[Sequence[str]] = None) -> SimpleNamespace:
    """A plain call read from OPTIONS; argparse for every other argv, so
    only help and errors pay for building it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _parse_plain(argv) or build_parser().parse_args(argv, SimpleNamespace())


def _check_out(out: Optional[str]) -> Optional[Path]:
    """The `--out` path, refused if it names no file, a directory, or a file in a missing one."""
    if out is None:
        return None
    path = Path(out)
    if not path.name:
        raise ConfigError(f"output path {echo_text(out)} names no file")
    if os.path.isdir(path):
        raise ConfigError(f"output path {echo_text(out)} is a directory")
    if not os.path.isdir(path.parent):
        raise ConfigError(f"output directory {echo_text(str(path.parent))} does not exist")
    if os.path.basename(out) in ("", "."):  # Path would drop a trailing '/' or '/.'
        raise ConfigError(f"output path {echo_text(out)} names no file")
    return path


def config_from_args(args: SimpleNamespace) -> RunConfig:
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    lo = 0 if args.experiment == "bijection" else 1
    return RunConfig(
        q=args.q, modulus=_parse_modulus(args.modulus),
        n_min=lo if args.n_min is None else args.n_min,
        n_max=lo + 2 if args.n_max is None else args.n_max,
        depth_m=args.depth_m, depth_mp=args.depth_mp,
        ideal=args.ideal, experiment=args.experiment,
        dump=args.dump, guard=args.guard, cell_floor=args.cell_floor)


def _write_output(report: Report, fmt: str, path: Optional[Path]) -> None:
    """The report to stdout or `path`; CSV points after it or in their own file."""
    points = to_points_csv(report) if report.points is not None and fmt == "csv" else None
    if path is None:
        render_report(report, fmt, sys.stdout)
        if points is not None:
            sys.stdout.write("# points\n" + points)
        return
    with path.open("w") as stream:
        render_report(report, fmt, stream)
    print(f"wrote {path}", file=sys.stderr)
    if points is not None:
        path = path.with_name(path.stem + ".points.csv")
        path.write_text(points)
        print(f"wrote {path}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the collector would only rescan a run's tables: a CSV run makes no reference
    # cycles, a JSON run only json.dump's encoder closures, left to the next collection
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if collecting:
            gc.enable()


def _main(argv: Optional[Sequence[str]]) -> int:
    args = parse_args(argv)
    try:
        path = _check_out(args.out)
        cfg = config_from_args(args)
        t0 = time.perf_counter()
        report = RUNNERS[cfg.experiment](cfg)
        wall = time.perf_counter() - t0
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    try:
        _write_output(report, args.fmt, path)
    except OSError as e:
        print(f"cannot write report: {e}", file=sys.stderr)
        return 2
    status = f"{report.failures} failure(s)" if report.failures else "ok"
    print(f"{report.kind}: {status}, {wall:.2f}s", file=sys.stderr)
    return 1 if report.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
