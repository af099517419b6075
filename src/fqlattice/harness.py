"""Experiment drivers: exact counting, joint direction/solution histograms,
continued-fraction statistics, verification tables, and report rendering.

Everything is computed in exact arithmetic (integers and Fractions), so a
report is a pure function of its configuration.

`count`, `joint` and `cfe` tally the nodes of the Euclid tree per level and
key, for all their levels at once.  Each node is a coprime pair (r, s), s
monic of degree n >= 1 and deg r < n, with r^-1 mod s and lead(Q_k) read off
the convergents of r/s.  Over it lies an orbit of (q - 1)(q + 1) primitive
vectors of level n, the sharp (lambda*s, c*lambda*s + r) and the blunt
(r, lambda*s), whose direction cells come from the top digits of r and s and
whose solution statistic is -+lambda^-1 r^-1/s; so one key per node bins
the whole orbit.  `cfe` bins the q - 1 pairs (lambda*r, lambda*s) of each
node with r in the ideal by the penultimate convergent ratio
-lead(Q_k)^-2 r^-1/s.

The tallies come from a transfer DP over the convergent recurrence
Q_{k+1} = a Q_k + Q_{k-1} (and the same for P), not from visiting nodes.
Products in F_q[Y] carry nothing, so the top w coefficients of a Q_k depend
only on the top w of a and of Q_k, and Q_{k-1} reaches them only when
deg a + deg Q_k - deg Q_{k-1} < w.  A state at D = deg Q_k holds those
windows of Q_k and Q_{k-1} (and m digits of P_k and P_{k-1} for joint), each
read from its own Q degree down with zeros below Y^0, the gap
deg Q_k - deg Q_{k-1}, the sign (-1)^(k+1) and, for a proper ideal, the four
residues mod its generator; each node key is a function of the state.  w is
max(m, mp - 1) for joint, max(1, mp - 1) for cfe (lead(Q_k) is in its key)
and 0 for count.  The gap is capped at w + 1, not w: a gap of exactly
mp - 1 = w still puts a nonzero digit at depth mp - 1, so only gaps beyond
w behave alike.  The transfer does not depend on the level, so it is
compiled once: a state becomes an int, with its key, when first reached, and
its successors are built once per quotient degree d <= d0 = max(w + 1,
deg gen + max(w, 1) - 1).  From d0 on the gap is capped, the windows miss
Q_{k-1} and the residue is uniform over each class, so a degree d >= d0
leads to the successors of d0, q^(d - d0) times as often; those arrivals go
into a carry, carry[L] = q carry[L - 1] + (arrivals from degree d0 at L).  A
run costs one compile of states x classes x d0, then levels x successor
edges.  `_tree_block`, the walk of `lattice.euclid_tree` node by node, is
the DP's oracle in the tests.  Level 0 keeps the vector-by-vector path.
Everything runs in one process.  Serialized reports echo only the
configuration that shapes the result (output path and wall time stay out).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import time
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cfrac import (brute_force_shortest, cf_expand, cf_value, check_approx,
                    convergents, shortest_solution)
from .field import (NEG_INF, Fq, Ideal, Poly, get_field, is_coprime,
                    echo_text, poly_from_text, polys_of_degree,
                    polys_up_to_degree, text_degree)
from .haar import (Mat2, cfe_prefactor, counting_main_term, c_constant,
                   expected_box_count, hecke_index, hecke_index_bruteforce,
                   kernel_elements, quotient_mass, refined_lu, sl2_order_mod,
                   sl2_order_bruteforce, sphere_mass, BoxSpec)
from .lattice import (companion_of, count_membership_flips, domain_cells,
                      euclid_tree, matrix_side_enumerate, primitive_vectors,
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


class RunConfig(NamedTuple):
    q: int = 2
    modulus: Optional[Tuple[int, ...]] = None
    n_min: int = 1
    n_max: int = 3
    depth_m: int = 1
    depth_mp: int = 2
    ideal: str = "1"
    experiment: str = "count"
    fmt: str = "csv"
    out: Optional[str] = None
    dump: bool = False
    guard: int = 10 ** 8
    cell_floor: int = 8


def _work_exponent(cfg: RunConfig, field: Fq) -> int:
    """e in the work estimate q^e = q^(2 n_max + 2 + deg gen): the Euclid
    tree's nodes up to level n_max, times the q^deg(gen) residues that the
    transfer DP lists.  The degree is read off the text, not built."""
    deg = text_degree(field, cfg.ideal)
    return 2 * cfg.n_max + 2 + (0 if deg is NEG_INF else deg)


def work_estimate(cfg: RunConfig) -> int:
    return cfg.q ** _work_exponent(cfg, get_field(cfg.q, cfg.modulus))


def _guard_exponent(q: int, guard: int) -> int:
    """The largest e with q^e <= guard, or -1.  The guards compare
    exponents against it, so no power beyond the guard is ever built."""
    e, power = -1, 1
    while power <= guard:
        e, power = e + 1, power * q
    return e


def _cell_tables(cfg: RunConfig) -> List[Tuple[str, int, int]]:
    """(name, c, e) for each table of c q^e rows the run builds: the report
    of `joint`, `cfe` or `bijection`, a row per level and cell of the
    (q^2 - 1) q^(2m - 2) direction (or (q - 1) q^(2m - 1) sharp) and q^(mp - 1)
    solution cells, and the cell lists `--dump` of `count` or `joint` names."""
    q, m, mp = cfg.q, cfg.depth_m, cfg.depth_mp
    c, e = {"cfe": (1, 0), "joint": (q * q - 1, 2 * m - 2),
            "bijection": (q - 1, 2 * m - 1)}.get(cfg.experiment, (0, 0))
    tables = [("report", (cfg.n_max - cfg.n_min + 1) * c, e + mp - 1)] if c else []
    if cfg.dump and cfg.experiment in ("count", "joint"):
        tables += [("--dump direction cell list", q * q - 1, 2 * m - 2),
                   ("--dump solution cell list", 1, mp - 1)]
    return tables


def _check_work(cfg: RunConfig, e: int, top: int, relation: str = "=") -> None:
    if e > top:
        digits = f" = {cfg.q ** e}" if e * math.log10(cfg.q) < 40 else ""
        raise ConfigError(
            f"work estimate q^(2*n_max+2+deg gen) {relation} {cfg.q}^{e}{digits} "
            f"exceeds guard {cfg.guard}; raise --guard to proceed")


def validate_config(cfg: RunConfig) -> Tuple[Fq, Ideal]:
    if cfg.n_min < 0 or cfg.n_min > cfg.n_max:
        raise ConfigError(f"empty or negative level range [{cfg.n_min}, {cfg.n_max}]")
    if cfg.depth_m < 1 or cfg.depth_mp < 1:
        raise ConfigError("cylinder depths must be >= 1")
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg.fmt!r}")
    if cfg.out is not None:
        out = Path(cfg.out)
        if not out.name:
            raise ConfigError(f"output path {echo_text(cfg.out)} names no file")
        if os.path.isdir(out):
            raise ConfigError(f"output path {echo_text(cfg.out)} is a directory")
        if not os.path.isdir(out.parent):
            raise ConfigError(f"output directory {echo_text(str(out.parent))} does not exist")
    if cfg.q < 2:
        raise ConfigError("q must be a prime power >= 2")
    top = _guard_exponent(cfg.q, cfg.guard)
    # deg gen >= 0: a bound that needs no field, whose tables take q^2 entries
    _check_work(cfg, 2 * cfg.n_max + 2, top, ">=")
    try:
        field = get_field(cfg.q, cfg.modulus)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    try:
        work = _work_exponent(cfg, field)
    except ValueError as e:
        raise ConfigError(f"bad ideal generator {echo_text(cfg.ideal)}: {e}") from e
    _check_work(cfg, work, top)
    for name, c, e in _cell_tables(cfg):
        if e > top or c * cfg.q ** e > cfg.guard:
            rows = f"{c} x {cfg.q}^{e}" if e > top else c * cfg.q ** e
            raise ConfigError(
                f"the {cfg.experiment} {name} would hold {rows} rows at depths "
                f"{cfg.depth_m} x {cfg.depth_mp}, above guard {cfg.guard}; "
                "raise --guard to proceed")
    gen = poly_from_text(field, cfg.ideal)
    if gen.is_zero():
        raise ConfigError("ideal generator must be nonzero")
    return field, Ideal(gen)


class Report:
    def __init__(self, kind: str, config: RunConfig, columns: Tuple[str, ...],
                 rows: List[dict], summary: Dict[str, object],
                 warnings: Optional[List[str]] = None,
                 points: Optional[List[dict]] = None, wall_time_s: float = 0.0):
        self.kind, self.config, self.columns = kind, config, columns
        self.rows, self.summary = rows, summary
        self.warnings = [] if warnings is None else warnings
        self.points, self.wall_time_s = points, wall_time_s


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
    # the RunConfig fields in order; the output format and location do not
    # influence any reported value
    echo = cfg._asdict()
    del echo["fmt"], echo["out"]
    echo["modulus"] = list(cfg.modulus) if cfg.modulus else None
    return echo


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
    if v is None:
        return "-"
    return str(v)


def _csv_field(v) -> str:
    """_csv_cell quoted as csv.writer quotes it on Python 3.11 (not for '\\r')."""
    t = v if type(v) is str else _csv_cell(v)
    return '"' + t.replace('"', '""') + '"' if "," in t or '"' in t or "\n" in t else t


def _csv_table(columns: Sequence[str], rows: Sequence[dict]) -> str:
    """csv.writer's table of two or more columns.  Each cell object is
    formatted once, keyed by id(): report rows share and keep them alive."""
    texts: Dict[int, str] = {}
    lines = [",".join(map(_csv_field, columns))]
    for values in map(itemgetter(*columns), rows):
        try:
            lines.append(",".join(map(texts.__getitem__, map(id, values))))
        except KeyError:
            texts.update((id(v), _csv_field(v)) for v in values)
            lines.append(",".join(map(texts.__getitem__, map(id, values))))
    return "\n".join(lines) + "\n"


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
    # point rows share no cell objects, so _csv_table's cache would only miss
    rows = map(itemgetter(*POINT_COLUMNS), report.points)
    return "\n".join([",".join(map(_csv_field, r)) for r in (POINT_COLUMNS, *rows)]) + "\n"


def render_report(report: Report) -> str:
    return to_json(report) if report.config.fmt == "json" else to_csv(report)


# ---------------------------------------------------------------------------
# level tallies: the transfer DP, and the Euclid-tree walk as its oracle
# ---------------------------------------------------------------------------


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


def _tree_block(field: Fq, gen: Optional[Poly], n_lo: int, n_max: int,
                kind: str, m: int, mp: int) -> Dict[int, Counter]:
    """Per-level tallies of the Euclid-tree nodes, node by node: the oracle
    of _transfer_tallies.  A node's key holds what binning it needs: for
    count the admissible mu and the blunt flag of _ideal_orbit (gen None is
    the unit ideal), for joint the top m digits of s and r and the
    solution-cell digits of r^-1/s before those, and for cfe, whose nodes
    need r in the ideal, the digits of r^-1/s and lead(Q_k)."""
    every_mu = tuple(range(field.q))
    tallies: Dict[int, Counter] = {n: Counter() for n in range(n_lo, n_max + 1)}
    for r, s, inv, lead in euclid_tree(field, n_max):
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


def _transfer_tallies(field: Fq, gen: Optional[Poly], n_lo: int, n_max: int,
                      kind: str, m: int, mp: int) -> Dict[int, Counter]:
    """The tallies of _tree_block, counted per (level, state) by the
    compiled transfer of the module docstring instead of node by node.  The
    quotients a of degree d act in classes (top w digits, a mod gen) with a
    multiplicity each; the residue is uniform over a class once a has
    deg gen free digits below its window (below its lead when w = 0)."""
    q = field.q
    add, mul, neg, inv_t = field.add_t, field.mul_t, field.neg_t, field.inv_t
    w = {"joint": max(m, mp - 1), "cfe": max(1, mp - 1)}.get(kind, 0)
    wp = m if kind == "joint" else 0
    cap = w + 1
    g = 0 if gen is None else gen.degree
    d0 = max(w + 1, g + max(w, 1) - 1)
    # residues as small ints: the index of the residue in this list
    residues = list(polys_up_to_degree(field, g - 1)) if g else [field.zero]
    code = {p.coeffs: i for i, p in enumerate(residues)}

    def classes(d: int) -> List[Tuple[Tuple[int, ...], int, int]]:
        top = max(w, 1)
        free = d + 1 - top
        out: Counter = Counter()
        if free >= g:
            each = q ** (free - g)
            for A in itertools.product(range(q), repeat=top):
                if A[0]:
                    for rho in range(len(residues)):
                        out[(A[:w], rho)] += each
        else:
            for a in polys_of_degree(field, d):
                rho = 0 if gen is None else code[(a % gen).coeffs]
                out[(tuple(a.coeff(d - j) for j in range(w)), rho)] += 1
        return [(A, rho, mult) for (A, rho), mult in out.items()]

    def window(A, W, W_prev, shift, width):
        """Top `width` coefficients of a*X + X_prev, where W holds X and
        W_prev holds X_prev from `shift` places below the top of a*X."""
        out = []
        for i in range(width):
            c = W_prev[i - shift] if i >= shift else 0
            for j in range(i + 1):
                c = add[c][mul[A[j]][W[i - j]]]
            out.append(c)
        return tuple(out)

    @lru_cache(maxsize=None)
    def affine(rho, x, y):
        return code[((residues[rho] * residues[x] + residues[y]) % gen).coeffs]

    def head(Q, Q_prev, gap, sign):
        """Digits 1..mp-1 of r^-1/s = sign lead^2 Q_{k-1}/Q_k: the series
        Q_prev/Q, scaled, from digit `gap` on."""
        lead = Q[0]
        unlead, scale = inv_t[lead], mul[sign][mul[lead][lead]]
        c: List[int] = []
        for i in range(mp - gap):
            x = Q_prev[i]
            for j in range(1, i + 1):
                x = add[x][neg[mul[Q[j]][c[i - j]]]]
            c.append(mul[x][unlead])
        return (0,) * min(gap - 1, mp - 1) + tuple(mul[scale][x] for x in c)

    @lru_cache(maxsize=None)
    def orbit(rp, rq):
        return _ideal_orbit(residues[rp], residues[rq], gen)

    def key_of(P, Q, _, Q_prev, gap, sign, res):
        """The node key of a state, or None for a cfe node outside the ideal."""
        if kind == "cfe":
            if gen is not None and res[0]:
                return None
            return (head(Q, Q_prev, gap, sign), Q[0])
        key = (tuple(range(q)), True) if gen is None else orbit(*res[:2])
        if kind == "joint":
            unlead = mul[inv_t[Q[0]]]
            key = (tuple(unlead[x] for x in Q[:m]), tuple(unlead[x] for x in P),
                   head(Q, Q_prev, gap, sign)) + key
        return key

    # k = 0, state 0 and no node: P_0 = 0 and Q_0 = 1, with P_{-1} = 1 and
    # Q_{-1} = 0 at gap 0, so that a first quotient a gives P_1 = 1, Q_1 = a
    one = (1,) + (0,) * w
    start = ((0,) * wp, one[:w], one[:wp], (0,) * w, 0, neg[1],
             (0, code[(1,)], code[(1,)], 0) if gen is not None else ())
    # the compiled transfer: state ids, their states and keys, and the
    # successors [(target id, multiplicity)] by (state id, degree d <= d0)
    ids, states, keys = {start: 0}, [start], [None]
    successors: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    def intern(state):
        sid = ids.setdefault(state, len(states))
        if sid == len(states):
            states.append(state)
            keys.append(key_of(*state))
        return sid

    def compile_step(sid, d):
        P, Q, P_prev, Q_prev, gap, sign, res = states[sid]
        shift, new_gap, flip = gap + d, min(d, cap), neg[sign]
        out: Dict[int, int] = defaultdict(int)
        for A, rho, mult in by_degree[d]:
            # (rho*P_k + P_{k-1}, rho*Q_k + Q_{k-1}, P_k, Q_k) mod gen
            new_res = res and (affine(rho, res[0], res[2]),
                               affine(rho, res[1], res[3]), res[0], res[1])
            out[intern((window(A, P, P_prev, shift, wp), window(A, Q, Q_prev, shift, w),
                        P, Q, new_gap, flip, new_res))] += mult
        successors[(sid, d)] = edges = list(out.items())
        return edges

    by_degree = [()] + [classes(d) for d in range(1, min(d0, n_max) + 1)]
    levels: List[Dict[int, int]] = [defaultdict(int) for _ in range(n_max + 1)]
    levels[0][0] = 1
    # carry[L]: arrivals at L from degrees >= d0, q carry[L-1] + those from d0
    carry: List[Dict[int, int]] = [defaultdict(int) for _ in range(n_max + 1)]
    tallies: Dict[int, Counter] = {n: Counter() for n in range(n_lo, n_max + 1)}
    for D in range(n_max + 1):
        if D:
            for sid, count in carry[D - 1].items():
                carry[D][sid] += q * count
            for sid, count in carry[D].items():
                levels[D][sid] += count
        for sid, count in levels[D].items():
            if D >= n_lo and keys[sid] is not None:
                tallies[D][keys[sid]] += count
            for d in range(1, min(d0, n_max - D) + 1):
                nxt = levels[D + d] if d < d0 else carry[D + d]
                for tid, mult in successors.get((sid, d)) or compile_step(sid, d):
                    nxt[tid] += count * mult
    return tallies


def _level_tallies(cfg: RunConfig, field: Fq, I: Ideal, kind: str) -> Dict[int, Counter]:
    """`kind` node tallies for levels max(1, n_min)..n_max."""
    n_lo = max(1, cfg.n_min)
    if cfg.n_max < n_lo:
        return {}
    gen = None if I.gen.is_one() else I.gen
    return _transfer_tallies(field, gen, n_lo, cfg.n_max, kind, cfg.depth_m,
                             cfg.depth_mp)


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
    for v in primitive_vectors(field, 0, I):
        stat, exc = solution_statistic(v)
        exceptional += exc
        hist[(theta_ids[lattice_direction_digits(v, 0, m)],
              dp_ids[stat.expand(1, mp)])] += 1
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
        for v in primitive_vectors(field, n, ideal):
            w = companion_of(v)
            stat, _ = solution_statistic(v)
            rows.append({
                "a": str(v.a), "b": str(v.b),
                "w_x": str(w.a), "w_y": str(w.b),
                "norm_exp": n,
                "direction_cell": theta_ids[lattice_direction_digits(v, n, m)],
                "solution_cell": dp_ids[stat.expand(1, mp)],
            })
    return rows


def run_count(cfg: RunConfig) -> Report:
    t0 = time.perf_counter()
    field, I = validate_config(cfg)
    warnings: List[str] = []
    rows = []
    levels = list(range(cfg.n_min, cfg.n_max + 1))
    rels: List[Fraction] = []
    nodes = _level_tallies(cfg, field, I, "count")
    for n in levels:
        if n == 0:
            total = sum(1 for _ in primitive_vectors(field, 0, I))
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


def run_joint(cfg: RunConfig) -> Report:
    t0 = time.perf_counter()
    field, I = validate_config(cfg)
    m, mp = cfg.depth_m, cfg.depth_mp
    warnings: List[str] = []
    masses = (Fraction(1, cfg.q ** (2 * m)), Fraction(1, cfg.q ** mp))
    _depth_warning(cfg, expected_box_count(I, BoxSpec(cfg.n_min, *masses)), warnings)
    rows: List[dict] = []
    levels = list(range(cfg.n_min, cfg.n_max + 1))
    sups: List[Fraction] = []
    summary: Dict[str, object] = {}
    theta_ids, dp_ids = _cell_ids(field, m, mp)
    cells = [(th, dp) for th in theta_ids.values() for dp in dp_ids.values()]
    nodes = _level_tallies(cfg, field, I, "joint")
    for n in levels:
        if n == 0:
            hist, exceptional = _level_zero(field, I, m, mp, theta_ids, dp_ids)
        else:
            hist, exceptional = _bin_orbits(field, nodes[n], theta_ids, dp_ids), 0
        expected = expected_box_count(I, BoxSpec(n, *masses))
        total, sup, mean = _cell_table(n, ("direction_cell", "solution_cell"),
                                       cells, hist, expected, rows)
        if n >= 1:
            sups.append(sup)
        summary[f"total[n={n}]"] = total
        summary[f"exceptional[n={n}]"] = exceptional
        summary[f"sup_discrepancy[n={n}]"] = sup
        summary[f"mean_discrepancy[n={n}]"] = mean
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
    nodes = _level_tallies(cfg, field, I, "cfe")
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


def run_verify(cfg: RunConfig) -> Report:
    t0 = time.perf_counter()
    field, I = validate_config(cfg)
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
            hecke_index(J), hecke_index_bruteforce(J))

    for N in (1, 2):
        if field.q ** (4 * N) > 2_000_000:
            continue
        add(f"sl2_order[N={N}]", "q^(3N-2)*(q^2-1)",
            sl2_order_mod(field.q, N), sl2_order_bruteforce(field, N))

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
            if shortest_solution(a, b) != brute_force_shortest(a, b):
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
