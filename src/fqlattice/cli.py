"""Command-line front end for the experiment drivers.

Exit codes: 0 when the run completes and every hard assertion holds, 1 when a
verification row, bijection case, or joint trend check fails, 2 for
configuration errors (including the work guard and an `--out` whose directory
does not exist) and for a report that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .harness import (ConfigError, Report, RunConfig, RUNNERS, render_report,
                      to_points_csv, work_estimate)

EXPERIMENTS = ("count", "joint", "cfe", "verify", "bijection")


def _parse_modulus(text: Optional[str]):
    if not text:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as e:
        raise ConfigError(f"bad modulus {text!r}: expected comma-separated "
                          "coefficient digits, constant first") from e


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--q", type=int, default=2,
                       help="field size, a prime power (default 2)")
        p.add_argument("--modulus", default=None,
                       help="comma-separated modulus coefficients for "
                            "non-prime q, constant term first")
        p.add_argument("--n-min", type=int, default=1 if name != "bijection" else 0)
        p.add_argument("--n-max", type=int, default=3 if name != "bijection" else 2)
        p.add_argument("--depth-m", type=int, default=1,
                       help="direction cylinder depth (default 1)")
        p.add_argument("--depth-mp", type=int, default=2,
                       help="solution cylinder depth (default 2)")
        p.add_argument("--ideal", default="1",
                       help="ideal generator as polynomial text, e.g. 'Y' or "
                            "'Y^2+Y+1' (default 1)")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--dump", action="store_true",
                       help="materialize point lists for levels n <= 4")
        p.add_argument("--guard", type=int, default=10 ** 8,
                       help="refuse runs whose work estimate q^(2*n_max+2) "
                            "exceeds this bound")
        p.add_argument("--cell-floor", type=int, default=8,
                       help="warn when expected counts per cell drop below "
                            "this floor")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        q=args.q, modulus=_parse_modulus(args.modulus),
        n_min=args.n_min, n_max=args.n_max,
        depth_m=args.depth_m, depth_mp=args.depth_mp,
        ideal=args.ideal, experiment=args.experiment,
        workers=args.workers, fmt=args.fmt, out=args.out,
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
    if cfg.out is None:
        sys.stdout.write(text)
        if report.points is not None and cfg.fmt == "csv":
            sys.stdout.write("# points\n")
            sys.stdout.write(to_points_csv(report))
        return
    out = Path(cfg.out)
    out.write_text(text)
    print(f"wrote {out}", file=sys.stderr)
    if report.points is not None and cfg.fmt == "csv":
        pts = out.with_name(out.stem + ".points.csv")
        pts.write_text(to_points_csv(report))
        print(f"wrote {pts}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
