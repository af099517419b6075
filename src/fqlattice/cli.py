"""Command-line front end for the experiment drivers.

Exit codes: 0 when the run completes and every hard assertion holds, 1 when a
verification row, bijection case, or joint trend check fails, 2 for
configuration errors (including the work and row guards and an `--out` whose
directory does not exist) and for a report that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .field import echo_text
from .harness import (ConfigError, Report, RunConfig, RUNNERS, render_report,
                      to_points_csv, work_estimate)

EXPERIMENTS = ("count", "joint", "cfe", "verify", "bijection")


def _parse_modulus(text: Optional[str]):
    if not text:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as e:
        raise ConfigError(f"bad modulus {echo_text(text)}: expected comma-separated "
                          "coefficient digits, constant first") from e


def _options() -> argparse.ArgumentParser:
    # options shared by every subcommand; config_from_args fills the level range
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=int, default=2,
                        help="field size, a prime power (default 2)")
    common.add_argument("--modulus", default=None,
                        help="comma-separated modulus coefficients for "
                             "non-prime q, constant term first")
    common.add_argument("--n-min", type=int, default=None)
    common.add_argument("--n-max", type=int, default=None)
    common.add_argument("--depth-m", type=int, default=1,
                        help="direction cylinder depth (default 1)")
    common.add_argument("--depth-mp", type=int, default=2,
                        help="solution cylinder depth (default 2)")
    common.add_argument("--ideal", default="1",
                        help="ideal generator as polynomial text, e.g. 'Y' or "
                             "'Y^2+Y+1' (default 1)")
    common.add_argument("--workers", type=int, default=1,
                        help="accepted (must be >= 1) but has no effect: "
                             "count, joint and cfe run in one process")
    common.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--dump", action="store_true",
                        help="materialize point lists for levels n <= 4")
    common.add_argument("--guard", type=int, default=10 ** 8,
                        help="refuse runs whose work estimate "
                             "q^(2*n_max+2+deg gen), report table rows or "
                             "--dump cell list rows exceed this bound")
    common.add_argument("--cell-floor", type=int, default=8,
                        help="warn when expected counts per cell drop below "
                             "this floor")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _options()
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


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """One subcommand's parser when argv starts with one; the whole tree
    otherwise, or for arguments left over, so argparse words the error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in EXPERIMENTS:
        parser = argparse.ArgumentParser(prog=f"fqlattice {argv[0]}", parents=[_options()])
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(experiment=argv[0]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def config_from_args(args: argparse.Namespace) -> RunConfig:
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
