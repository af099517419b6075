"""Command-line front end for the experiment drivers.

Exit codes: 0 when the run completes and every hard assertion holds, 1 when a
verification row, bijection case, or joint trend check fails, 2 for
configuration errors (including the work and row guards and an `--out` that
names no file or whose directory does not exist) and for a report that cannot
be written.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

from .field import echo_text
from .harness import (ConfigError, Report, RunConfig, RUNNERS, render_report,
                      to_points_csv, work_estimate)

EXPERIMENTS = ("count", "joint", "cfe", "verify", "bijection")

# the options every subcommand takes: flag, dest, kind, default, help, choices;
# config_from_args fills the level range
OPTIONS = (
    ("--q", "q", int, 2, "field size, a prime power (default 2)", None),
    ("--modulus", "modulus", str, None,
     "comma-separated modulus coefficients for non-prime q, constant term first", None),
    ("--n-min", "n_min", int, None, None, None),
    ("--n-max", "n_max", int, None, None, None),
    ("--depth-m", "depth_m", int, 1, "direction cylinder depth (default 1)", None),
    ("--depth-mp", "depth_mp", int, 2, "solution cylinder depth (default 2)", None),
    ("--ideal", "ideal", str, "1",
     "ideal generator as polynomial text, e.g. 'Y' or 'Y^2+Y+1' (default 1)", None),
    ("--workers", "workers", int, 1,
     "accepted (must be >= 1) but has no effect: count, joint and cfe run in "
     "one process", None),
    ("--format", "fmt", str, "csv", None, ("csv", "json")),
    ("--out", "out", str, None, "output path (default stdout)", None),
    ("--dump", "dump", bool, False, "materialize point lists for levels n <= 4", None),
    ("--guard", "guard", int, 10 ** 8,
     "refuse runs whose work estimate q^(2*n_max+2+deg gen), report table rows "
     "or --dump cell list rows exceed this bound", None),
    ("--cell-floor", "cell_floor", int, 8,
     "warn when expected counts per cell drop below this floor", None),
)
_BY_FLAG = {option[0]: option for option in OPTIONS}


def _parse_modulus(text: Optional[str]):
    if text is None:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as e:
        raise ConfigError(f"bad modulus {echo_text(text)}: expected comma-separated "
                          "coefficient digits, constant first") from e


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
    values read by int() as argparse's type=int reads them.  None for any
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
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
        setattr(args, dest, value)
    return args


def parse_args(argv: Optional[Sequence[str]] = None) -> SimpleNamespace:
    """A plain call read from OPTIONS; argparse for every other argv, so
    only help and errors pay for building it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _parse_plain(argv) or build_parser().parse_args(argv, SimpleNamespace())


def config_from_args(args: SimpleNamespace) -> RunConfig:
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    if args.dump and args.experiment not in ("count", "joint"):
        raise ConfigError(f"--dump applies only to count and joint, not {args.experiment}")
    lo = 0 if args.experiment == "bijection" else 1
    return RunConfig(
        q=args.q, modulus=_parse_modulus(args.modulus),
        n_min=lo if args.n_min is None else args.n_min,
        n_max=lo + 2 if args.n_max is None else args.n_max,
        depth_m=args.depth_m, depth_mp=args.depth_mp,
        ideal=args.ideal, experiment=args.experiment,
        fmt=args.fmt, out=args.out,
        dump=args.dump, guard=args.guard, cell_floor=args.cell_floor)


def _assertion_failures(report: Report) -> int:
    if report.kind == "verify":
        return int(report.summary.get("failed", 0))
    if report.kind == "bijection":
        return int(report.summary.get("mismatches", 0))
    if report.kind == "joint":
        return 1 if report.summary.get("trend") == "fail" else 0
    return 0


def _write_output(report: Report) -> None:
    cfg = report.config
    text = render_report(report)
    points = (to_points_csv(report)
              if report.points is not None and cfg.fmt == "csv" else None)
    if cfg.out is None:
        sys.stdout.write(text if points is None else text + "# points\n" + points)
        return
    out = Path(cfg.out)
    for path, body in ((out, text), (out.with_name(out.stem + ".points.csv"), points)):
        if body is not None:
            path.write_text(body)
            print(f"wrote {path}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        cfg = config_from_args(args)
        runner = RUNNERS[cfg.experiment]
        report = runner(cfg)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    try:
        _write_output(report)
    except OSError as e:
        print(f"cannot write report: {e}", file=sys.stderr)
        return 2
    failures = _assertion_failures(report)
    status = "ok" if failures == 0 else f"{failures} failure(s)"
    print(f"{report.kind}: {status}, estimate {work_estimate(cfg)} ops, "
          f"{report.wall_time_s:.2f}s", file=sys.stderr)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
