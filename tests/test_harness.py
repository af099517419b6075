"""Experiment drivers: frozen values, cross-report identities, determinism."""

import csv
import hashlib
import importlib.util
import io
import json
import math
import re
import subprocess
import sys
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fqlattice
from fqlattice import haar, harness
from fqlattice.cli import main
from fqlattice.field import Ideal, get_field, poly_from_text
from fqlattice.haar import (BoxSpec, cfe_prefactor, counting_main_term,
                           expected_box_count, hecke_index)
from fqlattice.harness import (POINT_COLUMNS, ConfigError, RunConfig, _cell_table,
                               _csv_table, _fit_exponent, _fraction_json, _trend_status,
                               build_id, render_report,
                               run_bijection, run_cfe, run_count, run_joint,
                               run_verify, to_csv, to_json, to_points_csv,
                               validate_config)
from fqlattice.lattice import (LatticeVec, lattice_is_sharp, primitive_vectors,
                               sphere_cells)


ROOT = Path(__file__).resolve().parents[1]


def _argv(cfg, *extra):
    """The command line of a dict of RunConfig fields."""
    kw = dict(cfg)
    argv = [kw.pop("experiment", "count")]
    for k, v in kw.items():
        argv += [f"--{k.replace('_', '-')}", str(v)]
    return argv + list(extra)


def _rendered(rep, fmt):
    """The text render_report streams for `fmt`."""
    stream = io.StringIO()
    render_report(rep, fmt, stream)
    return stream.getvalue()


def _named(rep):
    """A report's rows, tuples in column order, as {column: value} dicts."""
    return [dict(zip(rep.columns, r)) for r in rep.rows]


def _valid(cfg):
    """validate_config as the runner of cfg's own experiment calls it."""
    return validate_config(cfg, cfg.experiment)


def _work_estimate_is(cfg, e):
    """validate_config accepts cfg at guard q^e and refuses it just below,
    naming q^e as the estimate."""
    q = cfg["q"]
    _valid(RunConfig(guard=q ** e, **cfg))
    with pytest.raises(ConfigError, match=rf"{q}\^{e} = {q ** e} exceeds guard {q ** e - 1}"):
        _valid(RunConfig(guard=q ** e - 1, **cfg))


class TestConfig:
    def test_work_estimate(self):
        # the guard's estimate is q^e = q^(2 n_max + 2 + deg gen)
        _work_estimate_is(dict(q=2, n_max=3), 8)
        _work_estimate_is(dict(q=3, n_max=7), 16)

    def test_work_estimate_counts_the_ideal_degree(self):
        # the DP lists all q^deg(gen) residues, deg gen read off the nonzero
        # terms of the text
        _work_estimate_is(dict(q=2, n_max=1, ideal="Y^20"), 24)
        _work_estimate_is(dict(q=3, n_max=2, ideal="Y^2-Y^2+Y"), 7)
        _work_estimate_is(dict(q=2, n_max=1, ideal="0*Y^10000000+1"), 4)
        _work_estimate_is(dict(q=2, n_max=3, ideal="Y^18"), 26)

    @pytest.mark.parametrize("cfg,estimate", [
        (dict(q=9, n_max=10 ** 6), r">= 9\^2000002 exceeds"),
        (dict(q=9, n_max=10 ** 8), r">= 9\^200000002 exceeds"),
        (dict(q=10007, n_max=1), r">= 10007\^4 = 10028029413722401 exceeds"),
        (dict(n_max=1, depth_m=10 ** 8, experiment="joint"), r"hold 3 x 2\^199999999 rows"),
        (dict(n_max=1, ideal="Y^99999999"), r"= 2\^100000003 exceeds"),
        (dict(n_max=3, ideal="Y^30"), r"= 2\^38 = 274877906944 exceeds"),
    ], ids=["q9-n1e6", "q9-n1e8", "q10007", "depth-m-1e8", "ideal-Y^99999999", "ideal-Y^30"])
    def test_guard_refuses_in_exponent_form(self, cfg, estimate):
        # no power beyond the guard and no coefficient list of the ideal is
        # built: each refusal is immediate and its message short
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match=estimate) as refusal:
            _valid(RunConfig(**cfg))
        assert time.perf_counter() - t0 < 1
        assert len(str(refusal.value)) < 300

    def test_guard_refusal_names_estimate(self):
        cfg = RunConfig(q=3, n_max=9, guard=10 ** 6)
        with pytest.raises(ConfigError, match="3486784401"):
            _valid(cfg)

    @pytest.mark.parametrize("kwargs", [
        {"n_min": 2, "n_max": 1},
        {"n_min": -1},
        {"depth_m": 0},
        {"depth_mp": 0},
        {"ideal": "Y^99999999"},
        {"guard": 0},
        {"ideal": "0"},
        {"ideal": "Z^2"},
        {"q": 6},
        {"q": 1},
        {"q": 0, "n_max": 100},
    ])
    def test_rejections(self, kwargs):
        with pytest.raises(ConfigError):
            _valid(RunConfig(**kwargs))

    @pytest.mark.parametrize("experiment", ["joint", "bijection"])
    def test_guard_counts_report_rows(self, experiment):
        # q^(2*n_max+2) = 256, but the cells at depths 40 x 40 would make
        # about 2^118 rows; the refusal comes before any cell is built
        cfg = RunConfig(q=2, n_max=3, depth_m=40, depth_mp=40, experiment=experiment)
        with pytest.raises(ConfigError, match="rows"):
            _valid(cfg)
        _valid(RunConfig(q=2, n_max=3, depth_m=40, depth_mp=40))

    def test_guard_counts_dump_cells(self):
        # --dump lists every direction and solution cell to name the points
        # of count: about 2^80 and 2^59 of them here, refused at once
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match=r"direction cell list would hold 3 x 2\^78"):
            _valid(RunConfig(dump=True, depth_m=40, depth_mp=60))
        with pytest.raises(ConfigError, match=r"solution cell list would hold 1 x 2\^59"):
            _valid(RunConfig(dump=True, depth_mp=60))
        assert time.perf_counter() - t0 < 1
        _valid(RunConfig(depth_m=40, depth_mp=60))
        # cfe lists no points, so it refuses a dump before the cell guard
        with pytest.raises(ConfigError, match="^--dump applies only to count and joint, not cfe$"):
            _valid(RunConfig(dump=True, depth_m=40, experiment="cfe"))

    @pytest.mark.parametrize("depths,cells,text", [
        ((3, 2), 48, "direction cell list would hold 48 rows"),
        ((1, 7), 64, r"solution cell list would hold 1 x 2\^6 rows"),
    ])
    def test_dump_cell_guard_is_exact(self, depths, cells, text):
        # 3 * 2^4 direction cells at m = 3, 2^6 solution cells at mp = 7
        cfg = dict(q=2, n_max=1, depth_m=depths[0], depth_mp=depths[1], dump=True)
        _valid(RunConfig(guard=cells, **cfg))
        with pytest.raises(ConfigError, match=text):
            _valid(RunConfig(guard=cells - 1, **cfg))
        _valid(RunConfig(guard=cells - 1, **dict(cfg, dump=False)))

    def test_guard_counts_cfe_rows(self):
        cfg = dict(q=3, n_min=1, n_max=2, depth_mp=8, experiment="cfe")
        # 2 levels * 3^7 solution cells
        _valid(RunConfig(guard=2 * 3 ** 7, **cfg))
        with pytest.raises(ConfigError, match="4374 rows"):
            _valid(RunConfig(guard=2 * 3 ** 7 - 1, **cfg))

    @pytest.mark.parametrize("runner,cfg", [
        (run_joint, dict(q=3, n_min=0, n_max=1, depth_m=2, depth_mp=2, experiment="joint")),
        (run_cfe, dict(q=2, n_min=0, n_max=1, depth_mp=5, experiment="cfe")),
        (run_bijection, dict(q=2, n_min=0, n_max=1, depth_m=2, depth_mp=2,
                             experiment="bijection")),
    ])
    def test_row_guard_is_exact(self, runner, cfg):
        rows = len(runner(RunConfig(**cfg)).rows)
        _valid(RunConfig(guard=rows, **cfg))
        with pytest.raises(ConfigError, match=f"{rows} rows"):
            _valid(RunConfig(guard=rows - 1, **cfg))

    def test_valid_config_returns_field_and_ideal(self):
        field, I = _valid(RunConfig(q=3, ideal="Y^2+1"))
        assert field.q == 3 and str(I.gen) == "Y^2+1"


# a small config of each experiment
SMALL = {"count": dict(q=2, n_max=1), "joint": dict(q=2, n_max=1),
         "cfe": dict(q=2, n_max=1), "verify": dict(q=2),
         "bijection": dict(q=2, n_min=0, n_max=1)}


class TestOneExperiment:
    """RunConfig.experiment alone names a run's experiment: each runner runs
    its own and refuses a config for another before any work."""

    @pytest.mark.parametrize("kind", SMALL)
    def test_runner_runs_its_own_experiment(self, kind):
        rep = harness.RUNNERS[kind](RunConfig(experiment=kind, **SMALL[kind]))
        assert (rep.kind, rep.columns, rep.failures) == (kind, harness.COLUMNS[kind], 0)

    @pytest.mark.parametrize("kind,experiment",
                             [(k, e) for k in SMALL for e in SMALL if k != e])
    def test_runner_refuses_another_experiment(self, monkeypatch, kind, experiment):
        def no_work(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr(harness, "get_field", no_work)
        with pytest.raises(ConfigError) as refusal:
            harness.RUNNERS[kind](RunConfig(experiment=experiment, **SMALL[experiment]))
        assert str(refusal.value) == (f"run_{kind} was given a config for experiment "
                                      f"'{experiment}'; set experiment='{kind}'")

    def test_count_config_cannot_bypass_the_joint_row_guard(self):
        # RunConfig() names count; run_joint once ran such a config past the
        # joint row guard and returned its 24 rows under kind=joint
        cfg = RunConfig(q=2, n_max=1, depth_m=2, depth_mp=2, guard=20)
        with pytest.raises(ConfigError, match="^run_joint was given a config for "
                                              "experiment 'count'"):
            run_joint(cfg)
        with pytest.raises(ConfigError, match="the joint report would hold 24 rows"):
            run_joint(cfg._replace(experiment="joint"))

    @pytest.mark.parametrize("kind", ["cfe", "verify", "bijection"])
    def test_dump_refused_outside_count_and_joint(self, kind):
        with pytest.raises(ConfigError) as refusal:
            harness.RUNNERS[kind](RunConfig(experiment=kind, dump=True))
        assert str(refusal.value) == f"--dump applies only to count and joint, not {kind}"


class TestCount:
    def test_unit_ideal_levels(self):
        rep = run_count(RunConfig(q=2, n_min=0, n_max=3))
        got = [(r["n"], r["exact_count"], r["main_term"], r["relative_error"])
               for r in _named(rep)]
        assert got == [(0, 3, Fraction(3, 2), 1), (1, 6, 6, 0),
                       (2, 24, 24, 0), (3, 96, 96, 0)]
        assert rep.summary["exactness_observed"] is True
        assert rep.summary["fitted_error_exponent"] is None

    def test_ideal_y_levels(self):
        rep = run_count(RunConfig(q=2, n_min=1, n_max=3, ideal="Y"))
        got = [(r["exact_count"], r["relative_error"]) for r in _named(rep)]
        assert got == [(1, Fraction(1, 2)), (7, Fraction(1, 8)),
                       (31, Fraction(1, 32))]
        assert rep.summary["exactness_observed"] is False
        assert rep.summary["fitted_error_exponent"] == pytest.approx(1.0)

    def test_q3_anchor(self):
        rep = run_count(RunConfig(q=3, n_min=1, n_max=1))
        assert _named(rep)[0]["exact_count"] == 48
        assert _named(rep)[0]["main_term"] == 48


class TestJoint:
    def test_marginals_match_count_report(self):
        for ideal in ("1", "Y"):
            joint = run_joint(RunConfig(q=2, n_min=1, n_max=3, ideal=ideal,
                                        experiment="joint"))
            count = run_count(RunConfig(q=2, n_min=1, n_max=3, ideal=ideal))
            for row in _named(count):
                n = row["n"]
                assert joint.summary[f"total[n={n}]"] == row["exact_count"]

    def test_unit_ideal_exact_uniformity(self):
        rep = run_joint(RunConfig(q=2, n_min=2, n_max=4, experiment="joint"))
        assert all(r["ratio"] == 1 for r in _named(rep))
        assert rep.summary["trend"] == "pass"
        assert rep.summary["final_sup"] == 0

    def test_ideal_y_discrepancy_decays(self):
        rep = run_joint(RunConfig(q=2, n_min=1, n_max=4, ideal="Y",
                                  experiment="joint"))
        sups = [rep.summary[f"sup_discrepancy[n={n}]"] for n in range(1, 5)]
        assert sups == [2, 1, Fraction(1, 4), Fraction(1, 16)]
        assert rep.summary["trend"] == "pass"
        assert rep.summary["final_sup"] < rep.summary["first_sup"]

    def test_exceptional_only_at_level_zero(self):
        rep = run_joint(RunConfig(q=2, n_min=0, n_max=2, experiment="joint"))
        assert rep.summary["exceptional[n=0]"] == 2
        assert rep.summary["exceptional[n=1]"] == 0
        assert rep.summary["exceptional[n=2]"] == 0

    def test_runners_scan_vectors_only_to_dump(self, monkeypatch):
        # every level, 0 included, is counted from the transfer DP; the
        # vector scan and the solution statistic only name --dump points
        calls = Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        for name in ("primitive_vectors", "solution_statistic"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        for ideal in ("1", "Y"):
            cfg = dict(q=3, n_min=0, n_max=2, ideal=ideal)
            run_count(RunConfig(**cfg))
            run_joint(RunConfig(experiment="joint", **cfg))
            run_cfe(RunConfig(experiment="cfe", **cfg))
        assert not calls
        run_count(RunConfig(q=2, n_min=0, n_max=1, dump=True))
        # one scan per level, one statistic per point: 3 at level 0, 6 at 1
        assert calls["primitive_vectors"] == 2 and calls["solution_statistic"] == 9

    def test_depth_warning(self):
        rep = run_joint(RunConfig(q=2, n_min=1, n_max=1, depth_mp=4,
                                  experiment="joint"))
        assert any("depth warning" in w for w in rep.warnings)

    def test_indicator_test_function_recovers_marginal(self):
        # pairing a test function with the histogram is a weighted sum of
        # the report's rows; the indicator of every cell gives the level
        # total on both the empirical and the expected side
        rep = run_joint(RunConfig(q=2, n_min=2, n_max=2, experiment="joint"))
        assert sum(r["empirical_count"] for r in _named(rep)) == 24
        assert sum(r["expected"] for r in _named(rep)) == 24
        assert rep.summary["total[n=2]"] == 24

    def test_perp_cell_system_preserves_totals(self):
        # the quarter-turn map is a norm-preserving bijection on primitives,
        # so totals agree cell-system-wide
        cfg = RunConfig(q=2, n_min=2, n_max=2, experiment="joint")
        rep = run_joint(cfg)
        total = rep.summary["total[n=2]"]
        field = get_field(2)
        perped = [LatticeVec(v.b, -v.a) for v in primitive_vectors(field, 2)]
        assert len(perped) == total
        assert all(max(p.a.degree if not p.a.is_zero() else -1,
                       p.b.degree if not p.b.is_zero() else -1) == 2
                   for p in perped)


class TestCfe:
    def test_frozen_totals(self):
        rep = run_cfe(RunConfig(q=2, n_min=1, n_max=3, experiment="cfe"))
        assert rep.summary["prefactor"] == 2
        assert [rep.summary[f"total[n={n}]"] for n in (1, 2, 3)] == [2, 8, 32]
        rep3 = run_cfe(RunConfig(q=3, n_min=1, n_max=2, experiment="cfe"))
        assert rep3.summary["prefactor"] == Fraction(3, 4)
        assert rep3.summary["total[n=1]"] == 12

    def test_exact_uniformity_above_boundary(self):
        rep = run_cfe(RunConfig(q=2, n_min=2, n_max=4, experiment="cfe"))
        assert all(r["ratio"] == 1 for r in _named(rep))

    def _joint_blunt_histogram(self, q, ideal, n):
        field = get_field(q)
        joint = run_joint(RunConfig(q=q, n_min=n, n_max=n, ideal=ideal,
                                    experiment="joint"))
        blunt = {c.id_text() for c in sphere_cells(field, 1, sharp=False)}
        hist = Counter()
        for r in _named(joint):
            if r["direction_cell"] in blunt:
                hist[r["solution_cell"]] += r["empirical_count"]
        return dict(hist)

    @pytest.mark.parametrize("q,ideal,n", [
        (2, "1", 3), (2, "Y", 3), (3, "1", 2), (3, "Y", 2)])
    def test_matches_joint_blunt_restriction(self, q, ideal, n):
        # the binned statistic is the negated joint statistic on the blunt
        # hemisphere, so histograms agree after negating cell digits
        field = get_field(q)
        cfe = run_cfe(RunConfig(q=q, n_min=n, n_max=n, ideal=ideal,
                                experiment="cfe"))

        def negate(cid):
            if cid == "-":
                return cid
            return ".".join(str(field.neg_t[int(d)]) for d in cid.split("."))

        mapped = {negate(r["solution_cell"]): r["empirical_count"]
                  for r in _named(cfe)}
        assert mapped == self._joint_blunt_histogram(q, ideal, n)

    def test_congruence_filtered_totals(self):
        # totals with modulus Y equal the blunt-hemisphere filtered count
        field = get_field(2)
        I = Ideal(poly_from_text(field, "Y"))
        rep = run_cfe(RunConfig(q=2, n_min=2, n_max=4, ideal="Y",
                                experiment="cfe"))
        for n in (2, 3, 4):
            direct = sum(1 for v in primitive_vectors(field, n, I)
                         if not lattice_is_sharp(v))
            assert rep.summary[f"total[n={n}]"] == direct

    def test_empty_boundary_level(self):
        rep = run_cfe(RunConfig(q=2, n_min=1, n_max=1, ideal="Y^2",
                                experiment="cfe"))
        assert rep.summary["total[n=1]"] == 0


class TestVerify:
    def test_healthy_table_passes(self):
        rep = run_verify(RunConfig(q=2, experiment="verify"))
        assert rep.summary["failed"] == 0
        assert rep.summary["passed"] == len(rep.rows) >= 10
        assert all(r["match"] for r in _named(rep))

    def test_fault_injection_isolates_row(self, monkeypatch):
        monkeypatch.setattr(harness, "hecke_index", lambda I: hecke_index(I) + 1)
        rep = run_verify(RunConfig(q=2, experiment="verify"))
        bad = {r["name"] for r in _named(rep) if not r["match"]}
        assert bad and all(name.startswith("hecke_index") for name in bad)
        good = {r["name"] for r in _named(rep) if r["match"]}
        assert not any(name.startswith("hecke_index") for name in good)

    def test_sl2_fault_injection(self, monkeypatch):
        monkeypatch.setattr(harness, "sl2_order_mod", lambda q, N: 1)
        rep = run_verify(RunConfig(q=2, experiment="verify"))
        bad = {r["name"] for r in _named(rep) if not r["match"]}
        assert bad == {"sl2_order[N=1]", "sl2_order[N=2]"}

    def test_sl2_rows_follow_the_oracle_limit(self, monkeypatch):
        # verify lists sl2_order[N] for the N whose census the oracle takes,
        # q^(4N) <= haar.SL2_ORACLE_LIMIT, read from the one constant
        assert harness.SL2_ORACLE_LIMIT is haar.SL2_ORACLE_LIMIT
        monkeypatch.setattr(harness, "SL2_ORACLE_LIMIT", 2 ** 4)
        names = [r["name"] for r in _named(run_verify(RunConfig(q=2, experiment="verify")))]
        assert [n for n in names if n.startswith("sl2_order")] == ["sl2_order[N=1]"]

    @pytest.mark.parametrize("cfg", [dict(q=2, ideal="Y^8+Y^4+Y^3+Y+1"),
                                     dict(q=16, modulus=(1, 1, 0, 0, 1), n_max=1)])
    def test_oracle_limit_admits_256_residues(self, cfg):
        # validated only: the N(I) = 256 run did not finish in 300 s
        field, I = _valid(RunConfig(experiment="verify", **cfg))
        assert max(field.q ** 2, I.norm) == 256

    def test_q3_verify(self):
        rep = run_verify(RunConfig(q=3, experiment="verify"))
        assert rep.summary["failed"] == 0


class TestBijectionRun:
    def test_grid(self):
        rep = run_bijection(RunConfig(q=2, n_min=0, n_max=2, ideal="Y",
                                      experiment="bijection"))
        assert rep.summary == {"cases": 12, "mismatches": 0}
        assert all(r["equal"] for r in _named(rep))
        assert all(r["lattice_count"] == r["matrix_count"] for r in _named(rep))


class TestDeterminism:
    @pytest.mark.parametrize("runner,cfg", [
        (run_count, dict(q=2, n_min=1, n_max=4, ideal="Y")),
        (run_joint, dict(q=2, n_min=2, n_max=3, experiment="joint")),
        (run_cfe, dict(q=3, n_min=1, n_max=2, experiment="cfe")),
    ])
    def test_worker_count_invisible_in_bytes(self, runner, cfg, capsys):
        # the command line accepts --workers, and no report byte depends on it
        for fmt in ("csv", "json"):
            want = _rendered(runner(RunConfig(**cfg)), fmt)
            for workers in ("1", "3"):
                assert main(_argv(cfg, "--format", fmt, "--workers", workers)) == 0
                assert capsys.readouterr().out == want


@pytest.fixture
def no_processes(monkeypatch):
    """Refuse both ways a run could start a process: a multiprocessing
    worker and a subprocess child."""
    import multiprocessing.process

    def refuse(*args, **kwargs):
        raise AssertionError("a runner started a process")
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)


class TestWorkerCap:
    """The runners work in one process: --workers is accepted and validated
    but opens no pool, and the reports do not depend on it."""

    RUNS = ((run_count, dict(q=3, n_min=0, n_max=3)),
            (run_joint, dict(q=2, n_min=1, n_max=4, ideal="Y", experiment="joint")),
            (run_cfe, dict(q=2, n_min=1, n_max=4, experiment="cfe")))

    @pytest.mark.parametrize("workers", [4, 64])
    def test_no_runner_opens_a_pool(self, no_processes, workers, capsys):
        for runner, cfg in self.RUNS:
            assert main(_argv(cfg, "--workers", str(workers))) == 0
            assert capsys.readouterr().out == to_csv(runner(RunConfig(**cfg)))

    def test_single_worker_spawns_nothing(self, no_processes):
        for runner, cfg in self.RUNS:
            runner(RunConfig(**cfg))


class TestSerialization:
    def test_json_shape(self):
        rep = run_count(RunConfig(q=2, n_min=0, n_max=1))
        doc = json.loads(_rendered(rep, "json"))
        assert doc["schema_version"] == 1
        assert doc["kind"] == "count"
        assert doc["build"] == build_id()
        assert "workers" not in doc["config"] and "out" not in doc["config"]
        half = doc["rows"][0]["main_term"]
        assert half == {"num": 3, "den": 2, "approx": 1.5}

    def test_csv_shape(self):
        rep = run_count(RunConfig(q=2, n_min=1, n_max=1, ideal="Y"))
        text = to_csv(rep)
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[0] == "n,exact_count,main_term,relative_error"
        assert body[1] == "1,1,2,1/2"
        assert any(l.startswith("# summary relative_error[n=1]=1/2")
                   for l in text.splitlines())

    def test_points_dump(self):
        rep = run_count(RunConfig(q=2, n_min=1, n_max=2, dump=True))
        assert rep.points is not None
        assert len(rep.points) == 6 + 24
        head = to_points_csv(rep).splitlines()[0]
        assert head == "a,b,w_x,w_y,norm_exp,direction_cell,solution_cell"
        sample = dict(zip(POINT_COLUMNS, rep.points[0]))
        assert set(sample) == {"a", "b", "w_x", "w_y", "norm_exp",
                               "direction_cell", "solution_cell"}

    def test_dump_skips_large_levels(self):
        rep = run_count(RunConfig(q=2, n_min=4, n_max=5, dump=True))
        assert any("skipped levels [5]" in w for w in rep.warnings)
        assert all(dict(zip(POINT_COLUMNS, r))["norm_exp"] == 4 for r in rep.points)

    def test_points_require_dump(self):
        rep = run_count(RunConfig(q=2, n_min=1, n_max=1))
        with pytest.raises(ValueError):
            to_points_csv(rep)

    def test_json_streams_in_small_writes(self):
        # a wide report goes out chunk by chunk, never as one document string
        class Recorder(io.StringIO):
            def write(self, s):
                sizes.append(len(s))
                return super().write(s)

        sizes = []
        rep = run_joint(RunConfig(q=2, n_min=1, n_max=4, depth_m=4, depth_mp=5,
                                  experiment="joint"))
        assert len(rep.rows) >= 10_000
        stream = Recorder()
        to_json(rep, stream)
        assert len(sizes) > len(rep.rows) and max(sizes) <= 2 ** 20
        assert len(json.loads(stream.getvalue())["rows"]) == len(rep.rows)

    @pytest.mark.parametrize("value", [
        1, 1.5, "1/2", None, True, (Fraction(1, 2),), [Fraction(1, 2)],
        {"x": Fraction(1, 2)}, Decimal("0.5"), 1j, object()])
    def test_fraction_json_refuses_other_types(self, value):
        with pytest.raises(TypeError):
            _fraction_json(value)

    def test_render_refuses_unknown_format(self):
        rep = run_count(RunConfig(q=2, n_min=1, n_max=1))
        stream = io.StringIO()
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            render_report(rep, "xml", stream)
        assert stream.getvalue() == ""

    @pytest.mark.parametrize("runner,cfg", [
        (run_count, dict(q=3, n_min=0, n_max=2, ideal="Y+1", dump=True)),
        (run_joint, dict(q=2, n_min=0, n_max=3, depth_m=2, depth_mp=3, dump=True)),
        (run_cfe, dict(q=3, n_min=0, n_max=2, ideal="Y", depth_mp=3)),
        (run_verify, dict(q=2)),
        (run_bijection, dict(q=2, n_min=0, n_max=1, ideal="Y")),
    ], ids=["count", "joint", "cfe", "verify", "bijection"])
    def test_row_arity(self, runner, cfg):
        # the writers pair cells with columns by position, so a short row
        # would shift its columns without an error
        rep = runner(RunConfig(experiment=runner.__name__[4:], **cfg))
        assert rep.rows and all(type(r) is tuple and len(r) == len(rep.columns)
                                for r in rep.rows)
        assert all(type(p) is tuple and len(p) == len(POINT_COLUMNS)
                   for p in rep.points or ())
        assert (rep.points is not None) == cfg.get("dump", False)


CSV_TEXT = st.text(alphabet=st.sampled_from(',"\n\r ab-1/'), max_size=8)
CSV_VALUES = st.one_of(
    CSV_TEXT, st.integers(-10 ** 6, 10 ** 6), st.booleans(), st.none(),
    st.fractions(max_denominator=10 ** 6), st.floats(allow_nan=True))


@st.composite
def csv_tables(draw):
    """Columns and rows drawn from a small pool of values, so that rows
    share cell objects as the report rows do."""
    columns = draw(st.lists(CSV_TEXT, min_size=2, max_size=5, unique=True))
    pool = draw(st.lists(CSV_VALUES, min_size=1, max_size=12))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=len(columns),
                                  max_size=len(columns)), max_size=12))
    return columns, [tuple(row) for row in rows]


HALF = Fraction(1, 2)


class TestCsvTable:
    """_csv_table against csv.writer(lineterminator="\n") fed the cell texts
    of a local reference: true/false for a bool, "-" for None, else str."""

    @settings(max_examples=300, deadline=None)
    @given(csv_tables())
    @example((["a", "b"], [(1, True), (True, 1), (Fraction(1), None), (0.5, False)]))
    @example(([" ", "\r", 'x"'], [("", "a\rb", 'say "y"'), ("1,5\n", " ", "-")]))
    # the cache is keyed by identity: equal ints above 256 as distinct objects,
    # one Fraction object in several rows, and True next to 1 in a column
    @example((["n", "c"], [(int("1000"), int("1000")), (int("1000"), 257), (257, int("257"))]))
    @example((["r", "s"], [(HALF, HALF), (HALF, 1), (Fraction(1, 2), HALF)]))
    @example((["v"], [(True,), (1,), (1,), (True,), (False,), (0,)]))
    def test_matches_csv_writer(self, table):
        columns, rows = table
        assert _csv_table(columns, rows) == self.oracle(columns, rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[CSV_VALUES] * len(POINT_COLUMNS)), max_size=12))
    def test_points_match_csv_writer(self, points):
        expected = self.oracle(POINT_COLUMNS, points)
        assert to_points_csv(SimpleNamespace(points=points)) == expected

    @staticmethod
    def oracle(columns, rows):
        def text(v):
            if isinstance(v, bool):
                return "true" if v else "false"
            return "-" if v is None else str(v)

        texts = [list(columns)] + [[text(v) for v in r] for r in rows]
        # csv quotes a lone '\r' from Python 3.13 on; the reports hold none
        assume(sys.version_info < (3, 13) or "\r" not in "".join(sum(texts, [])))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(texts)
        return buf.getvalue()


class TestGoldenReports:
    """SHA-256 of reports with the build line masked (`"build"` in JSON):
    count, joint and cfe CSV as rendered before cfe moved onto the Euclid
    tree, the other tables, JSON and --dump points as rendered while rows
    were dicts; any change to their bytes shows here."""

    @pytest.mark.parametrize("write,runner,cfg,digest", [
        pytest.param(*case, id=("" if case[0] is to_csv else case[0].__name__[3:] + "-")
                     + f"{case[1].__name__[4:]}-q{case[2]['q']}")
        for case in [
        (to_csv, run_count, dict(q=2, n_min=0, n_max=4, ideal="Y"),
         "5a11d07c7d23a0ac72d5550222f6d18c680f2a30c8614e2366c274186bd72e0c"),
        (to_csv, run_count, dict(q=3, n_min=1, n_max=3, ideal="Y+1"),
         "6a0e2bc2b3e59fa584ad75cdde7fd2af90dfdcaf5e6581326434fcf83acfef70"),
        (to_csv, run_joint, dict(q=2, n_min=0, n_max=3, depth_m=2, depth_mp=3),
         "6a76d4680ebae3ba5079c213d81b4d535448bb5a53fe0a25c37c723b55543d98"),
        (to_csv, run_joint, dict(q=3, n_min=1, n_max=2, ideal="Y^2+1"),
         "b2e09198157e036379ac767ce9589b56ff17662243d6fbbcadcda552394bca1d"),
        (to_csv, run_cfe, dict(q=2, n_min=0, n_max=4, ideal="Y", depth_mp=3),
         "d7adbd9dbbee48aa729ff322cb627cc0daefc63858019c82c6daa4030ecdf5ba"),
        (to_csv, run_cfe, dict(q=4, n_min=1, n_max=2, ideal="Y+1"),
         "8252e4cd8a1e756e7c139319db9be2d7599cf1f8e7b17402af2fc5224df9c154"),
        (to_csv, run_cfe, dict(q=9, n_min=1, n_max=2, depth_mp=3),
         "fc15bc330ffb4daf1244bb220e64c2eaceb917217a4aa0db76b515e3a11acb3b"),
        (to_csv, run_verify, dict(q=2),
         "2d25a8020c99698bff4610bb43e59b43cd1bef3dd07ace6e839a08e8589b9739"),
        (to_csv, run_bijection, dict(q=2, n_min=0, n_max=2),
         "3790c75a7a7b64471c8faa288833c8feee0e23f8a9a06d76e704d0e88b75680e"),
        (to_json, run_count, dict(q=3, n_min=0, n_max=3, ideal="Y+1"),
         "18d3c0f2bbad3d5db230e02de1757d3c026c1cd5ee996738256ed420bce335dc"),
        (to_json, run_joint, dict(q=2, n_min=0, n_max=3, ideal="Y", depth_m=2,
                                  depth_mp=2, dump=True),
         "6e011ab177890926c2a36c51f45bf425a2b06c6c97d5ad0d3a0856857bb8ae81"),
        (to_json, run_cfe, dict(q=3, n_min=1, n_max=3, ideal="Y", depth_mp=2),
         "90c6d4a6ab034da010e25629fc28918d3f204f7f6817689cc59081730e422340"),
        (to_points_csv, run_count, dict(q=2, n_min=0, n_max=3, ideal="Y", dump=True),
         "b1184abcbbed55d7701be89d29fc6af24ed02abafe3d5f0ffb3be2c4fc32d741"),
        (to_points_csv, run_joint, dict(q=3, n_min=1, n_max=2, depth_mp=3, dump=True),
         "8d7fd4e72e6331587b86579034d8e8972c3cf3394dec56f8ef895f2e13dcaa35"),
    ]])
    def test_masked_digest(self, write, runner, cfg, digest):
        kind = runner.__name__[len("run_"):]
        rep = runner(RunConfig(experiment=kind, **cfg))
        text = _rendered(rep, "json") if write is to_json else write(rep)
        masked = re.sub(r'^(# build=|  "build": ).*$', r"\1*", text, flags=re.MULTILINE)
        assert hashlib.sha256(masked.encode()).hexdigest() == digest

    @pytest.fixture(scope="class")
    def perfbench(self):
        """perfbench/gate.py and perfbench/run.py, loaded from the checkout
        (run.py imports the gate as `gate`)."""
        modules = {}
        saved = sys.modules.get("gate")
        try:
            for name in ("gate", "run"):
                spec = importlib.util.spec_from_file_location(
                    name, ROOT / "perfbench" / f"{name}.py")
                modules[name] = sys.modules[name] = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(modules[name])
        finally:
            for name in ("gate", "run"):
                sys.modules.pop(name, None)
            if saved is not None:
                sys.modules["gate"] = saved
        return SimpleNamespace(**modules)

    @pytest.mark.parametrize("workload,seed", [
        ("joint-q2", 0), ("joint-q2-w2", 0), ("cfe-q2", 0),
        ("count-q3", 0), ("count-q3", 1), ("count-q3", 2)])
    def test_perfbench_report_passes_the_gate(self, perfbench, workload, seed,
                                              tmp_path, capsys):
        # each benchmark configuration, rendered in-process through the CLI,
        # must keep the recorded masked digest and the closed-form totals
        w = perfbench.run.WORKLOADS[workload]
        argv, key = w.config(seed)
        out = tmp_path / "report.csv"
        code = main(argv + ["--out", str(out)])
        assert perfbench.gate.check(w.kind, key, w.levels, code, out.read_bytes()) == []


def _halved_trend(sups):
    """_trend_status as first written: window averages, halved."""
    if len(sups) < 2:
        return "pass"
    if sups[-1] > sups[0]:
        return "fail"
    windows = [(a + b) / 2 for a, b in zip(sups, sups[1:])]
    return "pass" if all(y <= x for x, y in zip(windows, windows[1:])) else "warn"


def _ln_fit(levels, errors, q, ln):
    """Least-squares tau of error ~ q^(-2 n tau), logging errors with ln."""
    pts = [(n, ln(e)) for n, e in zip(levels, errors) if n >= 1 and e > 0]
    xs, ys = zip(*pts)
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - xbar) * (y - ybar) for x, y in pts)
             / sum((x - xbar) ** 2 for x in xs))
    return -slope / (2 * math.log(q))


class TestLevelStatistics:
    """The per-level statistics against their Fraction definitions."""

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(min_value=Fraction(1, 10 ** 4), max_value=10 ** 4,
                        max_denominator=10 ** 4),
           st.lists(st.integers(0, 40), min_size=1, max_size=12))
    @example(Fraction(5, 2), [0, 2, 5, 3])
    def test_cell_table_matches_fraction_definitions(self, expected, counts):
        cells = [(f"c{i}",) for i in range(len(counts))]
        hist = Counter({cell: c for cell, c in zip(cells, counts) if c})
        rows = []
        total, sup, mean = _cell_table(4, cells, hist, expected, rows)
        named = [dict(zip(harness.COLUMNS["cfe"], r)) for r in rows]
        ratios = [Fraction(c) / expected for c in counts]
        gaps = [abs(r - 1) for r in ratios]
        assert named == [{"n": 4, "solution_cell": cell, "empirical_count": c,
                          "expected": expected, "ratio": r}
                         for (cell,), c, r in zip(cells, counts, ratios)]
        assert (total, sup, mean) == (sum(counts), max(gaps), sum(gaps) / len(cells))
        assert all(type(v) is Fraction for v in (sup, mean, *(r["ratio"] for r in named)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=4),
                    max_size=7))
    @example([Fraction(3), Fraction(1), Fraction(2), Fraction(1)])
    @example([Fraction(3), Fraction(2), Fraction(2), Fraction(1)])
    def test_trend_status_matches_halved_windows(self, sups):
        assert _trend_status(sups) == _halved_trend(sups)

    def test_fit_exponent_logs_underflowing_errors_on_integers(self):
        # errors 1/(3 4^n): normal floats up to n = 510, subnormal from 511,
        # and 0.0 as floats from n = 537 on
        levels = range(500, 546)
        errors = [Fraction(1, 3 * 4 ** n) for n in levels]
        assert float(errors[36]) > 0.0 and float(errors[37]) == 0.0
        assert _fit_exponent(levels[37:], errors[37:], 2) == pytest.approx(1.0, rel=1e-12)
        # errors a float holds, subnormal ones too, keep math.log(float(e))
        for top in (510, 536):
            ns = range(500, top + 1)
            assert _fit_exponent(ns, errors[:len(ns)], 2) == \
                _ln_fit(ns, errors, 2, lambda e: math.log(float(e)))
        assert _fit_exponent(levels, errors, 2) == _ln_fit(
            levels, errors, 2, lambda e: math.log(float(e)) if float(e)
            else math.log(e.numerator) - math.log(e.denominator))

    @pytest.mark.parametrize("q,ideal,m,mp", [(2, "Y", 1, 2), (3, "Y+1", 2, 3),
                                              (2, "Y^2+Y+1", 1, 3)])
    def test_main_terms_match_haar_at_every_level(self, q, ideal, m, mp):
        # the runners scale a level-0 constant by q^(2n); each level must
        # still equal the Haar formula evaluated at that level
        cfg = dict(q=q, ideal=ideal, n_min=0, n_max=3, depth_m=m, depth_mp=mp)
        I = Ideal(poly_from_text(get_field(q), ideal))
        masses = (Fraction(1, q ** (2 * m)), Fraction(1, q ** mp))
        for row in _named(run_count(RunConfig(**cfg))):
            assert row["main_term"] == counting_main_term(I, row["n"])
        for row in _named(run_joint(RunConfig(experiment="joint", **cfg))):
            assert row["expected"] == expected_box_count(I, BoxSpec(row["n"], *masses))
        for row in _named(run_cfe(RunConfig(experiment="cfe", **cfg))):
            assert row["expected"] == \
                Fraction(q ** (2 * row["n"]), q ** (mp - 1)) / cfe_prefactor(I)


class TestBuildId:
    def test_reports_stamp_the_package_version(self, no_processes, capsys):
        # the build line is the package version, so a report is the same
        # bytes in a git checkout and in any other copy, and no call runs git
        assert build_id() == fqlattice.__version__
        assert main(["joint", "--q", "2", "--n-max", "2"]) == 0
        assert f"# build={fqlattice.__version__}\n" in capsys.readouterr().out
        assert main(["count", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["build"] == fqlattice.__version__
