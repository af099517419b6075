"""Experiment drivers: exact counting, joint direction/solution histograms,
continued-fraction statistics, verification tables, and report rendering.

Everything is computed in exact arithmetic (integers and Fractions), so a
report is a pure function of its configuration.

`count`, `joint` and `cfe` walk the Euclid tree once, to depth n_max, for
all their levels at once.  Each node is a coprime pair (r, s), s monic of
degree n >= 1 and deg r < n, together with r^-1 mod s and lead(Q_k) read off
the convergents.  Over it lies an orbit of (q - 1)(q + 1) primitive vectors
of level n, the sharp (lambda*s, c*lambda*s + r) and the blunt
(r, lambda*s), whose direction cells come from the top digits of r and s and
whose solution statistic is -+lambda^-1 r^-1/s; so one division per node
bins the whole orbit.  `cfe` bins the q - 1 pairs (lambda*r, lambda*s) of
each node with r in the ideal by the penultimate convergent ratio
-lead(Q_k)^-2 r^-1/s, from the same division.  At q = 2 the blocks walk the
tree on bitmasks (`euclid_tree_gf2`, `_gf2_tree_block`) with the same keys:
over GF(2) every lead and sign is 1 and addition is XOR, so a node costs a
few shifts and XORs instead of several Poly objects.  The choice is by the
field alone, a property of the input, and the generic `_tree_block` stays the
only path for q > 2 and the reference for q = 2 in the tests.  Level 0 keeps
the vector-by-vector path.  Parallel runs split the tree by first partial
quotient over one process pool per run.  Block results are plain counters
merged by addition, which makes the output independent of the worker count.
To keep that guarantee byte-exact, serialized reports echo only the
result-relevant configuration (worker count, output path, and wall time are
console concerns and stay out of the files).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import subprocess
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cfrac import (brute_force_shortest, cf_expand, cf_value, check_approx,
                    convergents, shortest_solution)
from .field import (Fq, Ideal, Poly, get_field, is_coprime, poly_from_text,
                    polys_of_degree, polys_up_to_degree)
from .haar import (Mat2, cfe_prefactor, counting_main_term, c_constant,
                   expected_box_count, hecke_index, hecke_index_bruteforce,
                   kernel_elements, quotient_mass, refined_lu, sl2_order_mod,
                   sl2_order_bruteforce, sphere_mass, BoxSpec)
from .lattice import (EnumFilter, companion_of, count_membership_flips,
                      domain_cells, enumerate_primitive, euclid_tree,
                      euclid_tree_gf2, matrix_side_enumerate,
                      solution_statistic, sphere_cells, verify_bijection)
from .laurent import lattice_direction_digits, rat

SCHEMA_VERSION = 1

COLUMNS = {
    "count": ("n", "exact_count", "main_term", "relative_error"),
    "joint": ("n", "direction_cell", "solution_cell", "empirical_count",
              "expected", "ratio"),
    "cfe": ("n", "solution_cell", "empirical_count", "expected", "ratio"),
    "verify": ("name", "formula", "exact", "oracle", "match"),
    "bijection": ("n", "direction_cell", "solution_cell", "ideal",
                  "lattice_count", "matrix_count", "equal"),
}

POINT_COLUMNS = ("a", "b", "w_x", "w_y", "norm_exp",
                 "direction_cell", "solution_cell")


class ConfigError(ValueError):
    """Configuration rejected before any work starts."""


@dataclass(frozen=True)
class RunConfig:
    q: int = 2
    modulus: Optional[Tuple[int, ...]] = None
    n_min: int = 1
    n_max: int = 3
    depth_m: int = 1
    depth_mp: int = 2
    ideal: str = "1"
    experiment: str = "count"
    workers: int = 1
    fmt: str = "csv"
    out: Optional[str] = None
    dump: bool = False
    guard: int = 10 ** 8
    cell_floor: int = 8


def work_estimate(cfg: RunConfig) -> int:
    return cfg.q ** (2 * cfg.n_max + 2)


def validate_config(cfg: RunConfig) -> Tuple[Fq, Ideal]:
    if cfg.n_min < 0 or cfg.n_min > cfg.n_max:
        raise ConfigError(f"empty or negative level range [{cfg.n_min}, {cfg.n_max}]")
    if cfg.depth_m < 1 or cfg.depth_mp < 1:
        raise ConfigError("cylinder depths must be >= 1")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg.fmt!r}")
    out_dir = None if cfg.out is None else Path(cfg.out).parent
    if out_dir is not None and not out_dir.is_dir():
        raise ConfigError(f"output directory {str(out_dir)!r} does not exist")
    est = work_estimate(cfg)
    if est > cfg.guard:
        raise ConfigError(
            f"work estimate q^(2*n_max+2) = {est} exceeds guard {cfg.guard}; "
            "raise --guard to proceed")
    try:
        field = get_field(cfg.q, cfg.modulus)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    try:
        gen = poly_from_text(field, cfg.ideal)
    except ValueError as e:
        raise ConfigError(f"bad ideal generator {cfg.ideal!r}: {e}") from e
    if gen.is_zero():
        raise ConfigError("ideal generator must be nonzero")
    return field, Ideal(gen)


@dataclass
class Report:
    kind: str
    config: RunConfig
    columns: Tuple[str, ...]
    rows: List[dict]
    summary: Dict[str, object]
    warnings: List[str] = dataclass_field(default_factory=list)
    points: Optional[List[dict]] = None
    wall_time_s: float = 0.0


# the source checkout this module runs from, if it runs from one
_CHECKOUT = Path(__file__).resolve().parents[2]


@lru_cache(maxsize=1)
def build_id() -> str:
    """`git describe` of the checkout the package runs from; "unknown" for
    any other copy, so an installed one never stamps the hash of a
    repository it happens to sit in."""
    if not (_CHECKOUT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.check_output(
            ["git", "-C", str(_CHECKOUT), "describe", "--always", "--dirty"],
            text=True, stderr=subprocess.DEVNULL)
        return out.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _config_echo(cfg: RunConfig) -> Dict[str, object]:
    # workers and output location do not influence any reported value
    return {
        "q": cfg.q,
        "modulus": list(cfg.modulus) if cfg.modulus else None,
        "n_min": cfg.n_min,
        "n_max": cfg.n_max,
        "depth_m": cfg.depth_m,
        "depth_mp": cfg.depth_mp,
        "ideal": cfg.ideal,
        "experiment": cfg.experiment,
        "dump": cfg.dump,
        "guard": cfg.guard,
        "cell_floor": cfg.cell_floor,
    }


def _jsonable(v):
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator, "approx": float(v)}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def to_json(report: Report) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "build": build_id(),
        "kind": report.kind,
        "config": _config_echo(report.config),
        "warnings": list(report.warnings),
        "columns": list(report.columns),
        "rows": [_jsonable(r) for r in report.rows],
        "summary": _jsonable(report.summary),
    }
    if report.points is not None:
        payload["point_columns"] = list(POINT_COLUMNS)
        payload["points"] = [_jsonable(r) for r in report.points]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return "-"
    return str(v)


def _csv_table(columns: Sequence[str], rows: Sequence[dict]) -> str:
    import csv as _csv
    buf = io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for r in rows:
        w.writerow([_csv_cell(r[c]) for c in columns])
    return buf.getvalue()


def to_csv(report: Report) -> str:
    lines = [f"# schema_version={SCHEMA_VERSION}",
             f"# build={build_id()}",
             f"# kind={report.kind}"]
    echo = " ".join(f"{k}={_csv_cell(v)}" for k, v in _config_echo(report.config).items())
    lines.append(f"# config {echo}")
    for wmsg in report.warnings:
        lines.append(f"# warning {wmsg}")
    for k, v in report.summary.items():
        lines.append(f"# summary {k}={_csv_cell(v)}")
    return "\n".join(lines) + "\n" + _csv_table(report.columns, report.rows)


def to_points_csv(report: Report) -> str:
    if report.points is None:
        raise ValueError("report carries no point dump")
    return _csv_table(POINT_COLUMNS, report.points)


def render_report(report: Report, fmt: Optional[str] = None) -> str:
    fmt = fmt or report.config.fmt
    if fmt == "json":
        return to_json(report)
    return to_csv(report)


# ---------------------------------------------------------------------------
# parallel enumeration core
# ---------------------------------------------------------------------------


def _pool_size(workers: int, blocks: int) -> int:
    """Processes for a run: never more than requested, than CPUs, or than
    blocks.  The worker count stays out of the reports, so an oversized
    request is clamped rather than rejected."""
    return min(workers, os.cpu_count() or 1, blocks)


def _first_quotient_blocks(field: Fq, n_max: int) -> List[Tuple[Tuple[int, ...], ...]]:
    """The Euclid tree split by first partial quotient, largest blocks first.

    A first quotient of degree d roots q^(-2d) of the nodes, so each degree-1
    quotient is a block of its own and every higher degree forms one block.
    """
    blocks = [(a.coeffs,) for a in polys_of_degree(field, 1)]
    blocks += [tuple(a.coeffs for a in polys_of_degree(field, d))
               for d in range(2, n_max + 1)]
    return blocks


def _ideal_orbit(r: Poly, s: Poly, gen: Poly) -> Tuple[Tuple[int, ...], bool]:
    """Which vectors over (r, s) keep their small component in (gen), a
    proper ideal: the mu in F_q with mu*s + r in it (sharp vectors,
    mu = c*lambda), and whether r is in it (blunt vectors)."""
    field = gen.field
    rg, sg = r % gen, s % gen
    if rg.is_zero():
        # gcd(r, s) = 1 leaves s a unit mod gen
        return (0,), True
    if sg.is_zero() or rg.degree != sg.degree:
        return (), False
    mu = field.neg_t[field.mul_t[rg.lead][field.inv_t[sg.lead]]]
    return ((mu,) if (sg.scale(mu) + rg).is_zero() else ()), False


def _head_digits(inv: Poly, s: Poly, mp: int) -> Tuple[int, ...]:
    """Digits 1..mp-1 of inv/s: the coefficients of (inv * Y^(mp-1)) // s."""
    head = inv.shift(mp - 1) // s
    return tuple(head.coeff(k) for k in range(mp - 2, -1, -1))


def _tree_block(payload) -> Dict[int, Counter]:
    """Per-level tallies of the Euclid-tree nodes under one block of first
    partial quotients.  A node's key holds what binning it needs: for count
    the admissible mu and the blunt flag of _ideal_orbit, for joint the top m
    digits of s and r and the solution-cell digits of r^-1/s before those,
    and for cfe, whose nodes need r in the ideal, the digits of r^-1/s and
    lead(Q_k)."""
    q, modulus, gen_coeffs, n_lo, n_max, kind, m, mp, first_codes = payload
    field = get_field(q, modulus)
    gen = None if gen_coeffs is None else Poly(field, gen_coeffs)
    every_mu = tuple(range(q))
    tallies: Dict[int, Counter] = {n: Counter() for n in range(n_lo, n_max + 1)}
    first = [Poly(field, c) for c in first_codes]
    for r, s, inv, lead in euclid_tree(field, n_max, first):
        n = s.degree
        if n < n_lo:
            continue
        if kind == "cfe":
            if gen is not None and not (r % gen).is_zero():
                continue
            key = (_head_digits(inv, s, mp), lead)
        else:
            key = (every_mu, True) if gen is None else _ideal_orbit(r, s, gen)
            if kind == "joint":
                key = (tuple(s.coeff(n - i) for i in range(m)),
                       tuple(r.coeff(n - i) for i in range(m)),
                       _head_digits(inv, s, mp)) + key
        tallies[n][key] += 1
    return tallies


def _gf2_tree_block(payload) -> Dict[int, Counter]:
    """_tree_block at q = 2 on the bitmasks of euclid_tree_gf2: the same
    tallies under the same keys, with no Poly per node.

    Digits are read off as small ints and spelled as _tree_block's tuples
    once per distinct key.  Over GF(2) the mu of _ideal_orbit is 1 and
    lead(Q_k) is 1, so with residues rg of r and sg of s modulo the
    generator the orbit is ((0,), True) if rg = 0, ((1,), False) if rg = sg
    and ((), False) otherwise.
    """
    _, _, gen_coeffs, n_lo, n_max, kind, m, mp, first_codes = payload

    def mask(coeffs: Tuple[int, ...]) -> int:
        return sum(c << i for i, c in enumerate(coeffs))

    gen = 1 if gen_coeffs is None else mask(gen_coeffs)
    glen = gen.bit_length()

    def residue(x: int) -> int:
        while x.bit_length() >= glen:
            x ^= gen << (x.bit_length() - glen)
        return x

    orbits = (((0,), True), ((1,), False), ((), False), ((0, 1), True))
    raw: Dict[tuple, int] = {}
    for r, s, inv in euclid_tree_gf2(n_max, [mask(c) for c in first_codes]):
        n = s.bit_length() - 1
        if n < n_lo:
            continue
        if kind == "cfe" and gen != 1 and residue(r):
            continue
        if kind != "count":
            # digits 1..mp-1 of inv/s: long division of inv * Y^(mp-1) by s
            head, x = 0, inv << (mp - 1)
            for k in range(mp - 2, -1, -1):
                head <<= 1
                if x >> (n + k) & 1:
                    x ^= s << k
                    head |= 1
        if kind == "cfe":
            key = (n, head)
        else:
            if gen == 1:
                orbit = 3
            else:
                rg = residue(r)
                orbit = 0 if not rg else 1 if rg == residue(s) else 2
            if kind == "joint":
                # the top m digits, at Y^n down to Y^(n-m+1); shifting
                # left first reads zeros below Y^0 when m > n
                key = (n, (s << (m - 1)) >> n, (r << (m - 1)) >> n, head, orbit)
            else:
                key = (n, orbit)
        raw[key] = raw.get(key, 0) + 1
    spell_m = list(itertools.product((0, 1), repeat=m))
    spell_h = list(itertools.product((0, 1), repeat=mp - 1))
    tallies: Dict[int, Counter] = {n: Counter() for n in range(n_lo, n_max + 1)}
    for key, count in raw.items():
        if kind == "cfe":
            n, head = key
            tallies[n][(spell_h[head], 1)] += count
        elif kind == "joint":
            n, s_top, r_top, head, orbit = key
            tallies[n][(spell_m[s_top], spell_m[r_top], spell_h[head])
                       + orbits[orbit]] += count
        else:
            n, orbit = key
            tallies[n][orbits[orbit]] += count
    return tallies


def _walk_levels(cfg: RunConfig, field: Fq, I: Ideal, kind: str) -> Dict[int, Counter]:
    """`kind` node tallies for levels max(1, n_min)..n_max from one walk of
    the Euclid tree, split over one process pool and merged by addition."""
    n_lo = max(1, cfg.n_min)
    if cfg.n_max < n_lo:
        return {}
    gen = None if I.gen.is_one() else I.gen.coeffs
    payloads = [(cfg.q, cfg.modulus, gen, n_lo, cfg.n_max, kind, cfg.depth_m,
                 cfg.depth_mp, block)
                for block in _first_quotient_blocks(field, cfg.n_max)]
    walk = _gf2_tree_block if field.q == 2 else _tree_block
    processes = _pool_size(cfg.workers, len(payloads))
    if processes <= 1:
        parts = [walk(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=processes) as ex:
            parts = list(ex.map(walk, payloads))
    merged: Dict[int, Counter] = {n: Counter() for n in range(n_lo, cfg.n_max + 1)}
    for part in parts:
        for n, tally in part.items():
            merged[n].update(tally)
    return merged


def _orbit_size(field: Fq, tally: Counter) -> int:
    """Primitive vectors over the tallied nodes: q - 1 values of lambda for
    each admissible mu (sharp) and for the blunt form."""
    return (field.q - 1) * sum(count * (len(key[-2]) + key[-1])
                               for key, count in tally.items())


def _bin_orbits(field: Fq, tally: Counter, theta_ids: Dict, dp_ids: Dict) -> Counter:
    """Cell histogram of the orbits over the tallied nodes.

    Over a node (r, s) lie the sharp vectors (lambda*s, mu*s + r) and the
    blunt vectors (r, lambda*s), lambda in F_q^*; their solution statistics
    are -lambda^-1 r^-1/s and +lambda^-1 r^-1/s.
    """
    mul, add, neg, inv = field.mul_t, field.add_t, field.neg_t, field.inv_t
    hist: Counter = Counter()
    for (s_top, r_top, digits, mus, r_in), count in tally.items():
        for lam in range(1, field.q):
            lam_s = tuple(mul[lam][c] for c in s_top)
            if mus:
                dp = dp_ids[tuple(mul[neg[inv[lam]]][c] for c in digits)]
                for mu in mus:
                    b_top = tuple(add[mul[mu][c]][e] for c, e in zip(s_top, r_top))
                    hist[(theta_ids[(lam_s, b_top)], dp)] += count
            if r_in:
                dp = dp_ids[tuple(mul[inv[lam]][c] for c in digits)]
                hist[(theta_ids[(r_top, lam_s)], dp)] += count
    return hist


def _level_zero(field: Fq, I: Ideal, m: int, mp: int, theta_ids: Dict,
                dp_ids: Dict) -> Tuple[Counter, int]:
    """Cell histogram and exception count of the q^2 - 1 constant vectors,
    vector by vector: level 0 is the only level where the flag fires."""
    hist: Counter = Counter()
    exceptional = 0
    for v in enumerate_primitive(field, EnumFilter(n=0, ideal=I)):
        stat, exc = solution_statistic(v)
        exceptional += exc
        hist[(theta_ids[lattice_direction_digits(v, 0, m)],
              dp_ids[stat.expand(mp).digits(1, mp)])] += 1
    return hist, exceptional


def _bin_ratios(field: Fq, tally: Counter, dp_ids: Dict) -> Counter:
    """Cell histogram of the penultimate ratios over the tallied cfe nodes.

    The q - 1 pairs (lambda*r, lambda*s) over a node share the fraction r/s,
    whose ratio (-1)^k Q_{k-1}/Q_k is -lead(Q_k)^-2 r^-1/s."""
    mul, neg, inv = field.mul_t, field.neg_t, field.inv_t
    hist: Counter = Counter()
    for (digits, lead), count in tally.items():
        scale = neg[inv[mul[lead][lead]]]
        hist[(dp_ids[tuple(mul[scale][d] for d in digits)],)] += (field.q - 1) * count
    return hist


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def _fit_exponent(levels: Sequence[int], errors: Sequence[Fraction],
                  q: int) -> Optional[float]:
    """Least-squares slope of ln(error) against n, reported as the tau in
    error ~ q^(-2 n tau).  Zero errors carry no information and are skipped."""
    pts = [(n, math.log(float(e))) for n, e in zip(levels, errors)
           if n >= 1 and e > 0]
    if len(pts) < 2:
        return None
    xs, ys = zip(*pts)
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    denom = sum((x - xbar) ** 2 for x in xs)
    if denom == 0:
        return None
    slope = sum((x - xbar) * (y - ybar) for x, y in pts) / denom
    return -slope / (2 * math.log(q))


def _trend_status(sups: Sequence[Fraction]) -> str:
    """Sliding two-level window averages must not increase; a final level
    worse than the first is an outright failure."""
    if len(sups) < 2:
        return "pass"
    if sups[-1] > sups[0]:
        return "fail"
    windows = [(sups[i] + sups[i + 1]) / 2 for i in range(len(sups) - 1)]
    ok = all(windows[i + 1] <= windows[i] for i in range(len(windows) - 1))
    return "pass" if ok else "warn"


def _cell_ids(field: Fq, m: int, mp: int) -> Tuple[Dict, Dict]:
    """Cell id texts keyed by direction digits and by solution digits."""
    theta_ids = {(c.x_digits, c.y_digits): c.id_text() for c in sphere_cells(field, m)}
    dp_ids = {c.digits: c.id_text() for c in domain_cells(field, mp)}
    return theta_ids, dp_ids


def _depth_warning(cfg: RunConfig, floor_exp: Fraction, warnings: List[str]) -> None:
    if floor_exp < cfg.cell_floor:
        warnings.append(
            f"depth warning: expected count per cell at n={cfg.n_min} is "
            f"{floor_exp}, below floor {cfg.cell_floor}; per-cell statistics "
            "may be vacuous")


def _cell_table(n: int, names: Tuple[str, ...], cells: Sequence[Tuple[str, ...]],
                hist: Counter, expected: Fraction, rows: List[dict]
                ) -> Tuple[int, Fraction, Fraction]:
    """Append a row of level n for each cell, a tuple of id texts that is
    both its histogram key and its `names` columns, and return the level's
    total count and its sup and mean discrepancy |count/expected - 1|.
    Ratios are computed once per distinct count."""
    counts = [hist.get(cell, 0) for cell in cells]
    cells_with = Counter(counts)
    ratio = {c: Fraction(c) / expected for c in cells_with}
    rows.extend({"n": n, **dict(zip(names, cell)), "empirical_count": c,
                 "expected": expected, "ratio": ratio[c]}
                for cell, c in zip(cells, counts))
    gap = {c: abs(r - 1) for c, r in ratio.items()}
    mean = sum((gap[c] * k for c, k in cells_with.items()), Fraction(0)) / len(cells)
    return sum(c * k for c, k in cells_with.items()), max(gap.values()), mean


def _dump_points(field: Fq, I: Ideal, levels: Sequence[int], m: int,
                 mp: int, warnings: List[str]) -> List[dict]:
    theta_ids, dp_ids = _cell_ids(field, m, mp)
    dumpable = [n for n in levels if n <= 4]
    skipped = [n for n in levels if n > 4]
    if skipped:
        warnings.append(f"dump limited to n <= 4; skipped levels {skipped}")
    rows = []
    ideal = None if I.gen.is_one() else I
    for n in dumpable:
        for v in enumerate_primitive(field, EnumFilter(n=n, ideal=ideal)):
            w = companion_of(v)
            stat, _ = solution_statistic(v)
            rows.append({
                "a": str(v.a), "b": str(v.b),
                "w_x": str(w.a), "w_y": str(w.b),
                "norm_exp": n,
                "direction_cell": theta_ids[lattice_direction_digits(v, n, m)],
                "solution_cell": dp_ids[stat.expand(mp).digits(1, mp)],
            })
    return rows


def run_count(cfg: RunConfig) -> Report:
    t0 = time.perf_counter()
    field, I = validate_config(cfg)
    warnings: List[str] = []
    rows = []
    levels = list(range(cfg.n_min, cfg.n_max + 1))
    rels: List[Fraction] = []
    nodes = _walk_levels(cfg, field, I, "count")
    for n in levels:
        if n == 0:
            total = sum(1 for _ in enumerate_primitive(field, EnumFilter(n=0, ideal=I)))
        else:
            total = _orbit_size(field, nodes[n])
        main = counting_main_term(I, n)
        rel = abs(Fraction(total) / main - 1)
        rels.append(rel)
        rows.append({"n": n, "exact_count": total, "main_term": main,
                     "relative_error": rel})
    asymptotic = [(n, r) for n, r in zip(levels, rels) if n >= 1]
    summary: Dict[str, object] = {}
    for n, r in zip(levels, rels):
        summary[f"relative_error[n={n}]"] = r
    summary["exactness_observed"] = bool(asymptotic) and all(r == 0 for _, r in asymptotic)
    summary["fitted_error_exponent"] = _fit_exponent(
        [n for n, _ in asymptotic], [r for _, r in asymptotic], cfg.q)
    summary["tau_window"] = "(0, 1/8]"
    points = None
    if cfg.dump:
        points = _dump_points(field, I, levels, cfg.depth_m, cfg.depth_mp, warnings)
    return Report("count", cfg, COLUMNS["count"], rows, summary, warnings,
                  points, time.perf_counter() - t0)


def run_joint(cfg: RunConfig,
              test_function: Optional[Dict[Tuple[str, str], Fraction]] = None
              ) -> Report:
    t0 = time.perf_counter()
    field, I = validate_config(cfg)
    m, mp = cfg.depth_m, cfg.depth_mp
    warnings: List[str] = []
    cell_spec = BoxSpec(cfg.n_min, Fraction(1, cfg.q ** (2 * m)),
                        Fraction(1, cfg.q ** mp))
    _depth_warning(cfg, expected_box_count(I, cell_spec), warnings)
    rows: List[dict] = []
    levels = list(range(cfg.n_min, cfg.n_max + 1))
    sups: List[Fraction] = []
    summary: Dict[str, object] = {}
    theta_ids, dp_ids = _cell_ids(field, m, mp)
    cells = [(th, dp) for th in theta_ids.values() for dp in dp_ids.values()]
    nodes = _walk_levels(cfg, field, I, "joint")
    for n in levels:
        if n == 0:
            hist, exceptional = _level_zero(field, I, m, mp, theta_ids, dp_ids)
        else:
            hist, exceptional = _bin_orbits(field, nodes[n], theta_ids, dp_ids), 0
        expected = expected_box_count(
            I, BoxSpec(n, Fraction(1, cfg.q ** (2 * m)), Fraction(1, cfg.q ** mp)))
        total, sup, mean = _cell_table(n, ("direction_cell", "solution_cell"),
                                       cells, hist, expected, rows)
        if n >= 1:
            sups.append(sup)
        summary[f"total[n={n}]"] = total
        summary[f"exceptional[n={n}]"] = exceptional
        summary[f"sup_discrepancy[n={n}]"] = sup
        summary[f"mean_discrepancy[n={n}]"] = mean
        if test_function is not None:
            emp = sum((Fraction(val) * hist.get(key, 0)
                       for key, val in test_function.items()), Fraction(0))
            exp = sum((Fraction(val) * expected
                       for val in test_function.values()), Fraction(0))
            summary[f"pairing_empirical[n={n}]"] = emp
            summary[f"pairing_expected[n={n}]"] = exp
            summary[f"pairing_ratio[n={n}]"] = emp / exp if exp else None
    summary["trend"] = _trend_status(sups)
    summary["first_sup"] = sups[0] if sups else None
    summary["final_sup"] = sups[-1] if sups else None
    summary["fitted_error_exponent"] = _fit_exponent(
        [n for n in levels if n >= 1], sups, cfg.q)
    summary["tau_window"] = "(0, 1/8]"
    points = None
    if cfg.dump:
        points = _dump_points(field, I, levels, m, mp, warnings)
    return Report("joint", cfg, COLUMNS["joint"], rows, summary, warnings,
                  points, time.perf_counter() - t0)


def run_cfe(cfg: RunConfig) -> Report:
    t0 = time.perf_counter()
    field, I = validate_config(cfg)
    q, mp = cfg.q, cfg.depth_mp
    pref = cfe_prefactor(I)
    warnings: List[str] = []
    _depth_warning(cfg, Fraction(q ** (2 * cfg.n_min), q ** (mp - 1)) / pref,
                   warnings)
    rows: List[dict] = []
    summary: Dict[str, object] = {"prefactor": pref}
    dp_ids = {c.digits: c.id_text() for c in domain_cells(field, mp)}
    cells = [(dp,) for dp in dp_ids.values()]
    nodes = _walk_levels(cfg, field, I, "cfe")
    for n in range(cfg.n_min, cfg.n_max + 1):
        hist = _bin_ratios(field, nodes.get(n, Counter()), dp_ids)
        # expected count: q^{2n} times the cell's probability mass over the
        # normalizing prefactor
        expected = Fraction(q ** (2 * n), q ** (mp - 1)) / pref
        total, sup, mean = _cell_table(n, ("solution_cell",), cells, hist,
                                       expected, rows)
        summary[f"total[n={n}]"] = total
        summary[f"sup_discrepancy[n={n}]"] = sup
        summary[f"mean_discrepancy[n={n}]"] = mean
    return Report("cfe", cfg, COLUMNS["cfe"], rows, summary, warnings,
                  None, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# verification table
# ---------------------------------------------------------------------------


def _elementary_sample(field: Fq, count: int) -> List[Mat2]:
    """Deterministic sample of determinant-one matrices built from elementary
    row operations; no randomness so verify reports stay reproducible."""
    import random
    rng = random.Random(20_24 * field.q)
    pool = list(polys_up_to_degree(field, 2))
    out = []
    for _ in range(count):
        g = Mat2.identity(field)
        for _ in range(rng.randrange(2, 6)):
            t = rat(pool[rng.randrange(len(pool))])
            one, zero = rat(field.one), rat(field.zero)
            if rng.randrange(2):
                g = g * Mat2(one, t, zero, one)
            else:
                g = g * Mat2(one, zero, t, one)
        out.append(g)
    return out


def run_verify(cfg: RunConfig,
               overrides: Optional[Dict[str, Callable]] = None) -> Report:
    t0 = time.perf_counter()
    field, I = validate_config(cfg)
    ov = overrides or {}
    hecke = ov.get("hecke_index", hecke_index)
    sl2 = ov.get("sl2_order_mod", sl2_order_mod)
    shortest = ov.get("shortest_solution", shortest_solution)
    rows = []

    def add(name: str, formula: str, exact, oracle):
        rows.append({"name": name, "formula": formula, "exact": str(exact),
                     "oracle": str(oracle), "match": str(exact) == str(oracle)})

    gens = [I.gen] if not I.gen.is_one() else []
    for d in (1, 2):
        gens.extend(polys_of_degree(field, d, monic=True))
    seen = set()
    for gen in gens:
        if gen.coeffs in seen:
            continue
        seen.add(gen.coeffs)
        J = Ideal(gen)
        add(f"hecke_index[I=({gen})]", "N(I)*prod(1+1/N(p))",
            hecke(J), hecke_index_bruteforce(J))

    for N in (1, 2):
        if field.q ** (4 * N) > 2_000_000:
            continue
        add(f"sl2_order[N={N}]", "q^(3N-2)*(q^2-1)",
            sl2(field.q, N), sl2_order_bruteforce(field, N))

    sample = _elementary_sample(field, 60)
    bad = 0
    for g in sample:
        if g.a.is_zero():
            continue
        f = refined_lu(g)
        if f.u_minus * f.m * f.a * f.u_plus != g:
            bad += 1
    add("lu_reconstruction", "g == u-. m . a . u+", 0, bad)

    cf_bad = 0
    for den in polys_up_to_degree(field, 3):
        if den.is_zero() or den.is_constant():
            continue
        for num in polys_up_to_degree(field, den.degree - 1):
            if num.is_zero() or not is_coprime(num, den):
                continue
            f = rat(num, den)
            e = cf_expand(f)
            t = convergents(e)
            if not check_approx(t):
                cf_bad += 1
            if cf_value(e.a0, e.coeffs) != f:
                cf_bad += 1
            for i in range(-1, e.n):
                sign = field.one if (i + 1) % 2 == 0 else -field.one
                if t.Q(i + 1) * t.P(i) - t.P(i + 1) * t.Q(i) != sign:
                    cf_bad += 1
    add("cf_identities[deg<=3]", "det/approx/reconstruction identities", 0, cf_bad)

    sh_bad = 0
    for a in polys_up_to_degree(field, 2):
        for b in polys_up_to_degree(field, 2):
            if (a.is_zero() and b.is_zero()) or not is_coprime(a, b):
                continue
            if a.is_constant() and b.is_constant():
                continue
            if shortest(a, b) != brute_force_shortest(a, b):
                sh_bad += 1
    add("shortest_solution[deg<=2]", "CF formula vs brute-force minimizer", 0, sh_bad)

    bij_bad = 0
    for n in range(0, 3):
        for th in sphere_cells(field, 1, sharp=True):
            for dp in domain_cells(field, 2):
                if not verify_bijection(field, n, th, dp, I).equal:
                    bij_bad += 1
    add("bijection[n<=2]", "lattice image == matrix-side box scan", 0, bij_bad)

    th0 = sphere_cells(field, 1, sharp=True)[0]
    dp0 = domain_cells(field, 2)[0]
    mats = matrix_side_enumerate(field, 1, th0, dp0)
    kern = kernel_elements(field, 3)
    flips = count_membership_flips(mats, 1, th0, dp0, kern, expect=True)
    add("box_stability[n=1]", "membership invariant under kernel perturbation",
        0, flips)

    lhs = c_constant(I) * counting_main_term(I, 3)
    rhs = sphere_mass(field.q) * quotient_mass(field.q) * field.q ** 6
    add("constants_chain[n=3]", "c_I*main(n) == sphere*quotient*q^(2n)", lhs, rhs)

    failed = sum(1 for r in rows if not r["match"])
    summary = {"passed": len(rows) - failed, "failed": failed}
    return Report("verify", cfg, COLUMNS["verify"], rows, summary, [],
                  None, time.perf_counter() - t0)


def run_bijection(cfg: RunConfig) -> Report:
    t0 = time.perf_counter()
    field, I = validate_config(cfg)
    rows = []
    mismatches = 0
    for n in range(cfg.n_min, cfg.n_max + 1):
        for th in sphere_cells(field, cfg.depth_m, sharp=True):
            for dp in domain_cells(field, cfg.depth_mp):
                res = verify_bijection(field, n, th, dp, I,
                                       elementwise=(n <= 3))
                if not res.equal:
                    mismatches += 1
                rows.append({"n": n, "direction_cell": th.id_text(),
                             "solution_cell": dp.id_text(), "ideal": str(I),
                             "lattice_count": res.lattice_count,
                             "matrix_count": res.matrix_count,
                             "equal": res.equal})
    summary = {"cases": len(rows), "mismatches": mismatches}
    return Report("bijection", cfg, COLUMNS["bijection"], rows, summary, [],
                  None, time.perf_counter() - t0)


RUNNERS: Dict[str, Callable[[RunConfig], Report]] = {
    "count": run_count,
    "joint": run_joint,
    "cfe": run_cfe,
    "verify": run_verify,
    "bijection": run_bijection,
}
