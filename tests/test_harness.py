"""Experiment drivers: frozen values, cross-report identities, determinism."""

import csv
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fqlattice import harness
from fqlattice.cli import main
from fqlattice.field import Ideal, get_field, poly_from_text
from fqlattice.haar import hecke_index
from fqlattice.harness import (POINT_COLUMNS, ConfigError, RunConfig, _csv_cell,
                               _csv_table, build_id, render_report,
                               run_bijection, run_cfe, run_count, run_joint,
                               run_verify, to_csv, to_json, to_points_csv,
                               validate_config, work_estimate)
from fqlattice.lattice import (LatticeVec, lattice_is_sharp, primitive_vectors,
                               sphere_cells)


F2 = get_field(2)
F3 = get_field(3)


def _argv(cfg, *extra):
    """The command line of a dict of RunConfig fields."""
    kw = dict(cfg)
    argv = [kw.pop("experiment", "count")]
    for k, v in kw.items():
        argv += [f"--{k.replace('_', '-')}", str(v)]
    return argv + list(extra)


class TestConfig:
    def test_work_estimate(self):
        assert work_estimate(RunConfig(q=2, n_max=3)) == 2 ** 8
        assert work_estimate(RunConfig(q=3, n_max=7)) == 3 ** 16

    def test_work_estimate_counts_the_ideal_degree(self):
        # the DP lists all q^deg(gen) residues
        assert work_estimate(RunConfig(q=2, n_max=1, ideal="Y^20")) == 2 ** 24
        assert work_estimate(RunConfig(q=3, n_max=2, ideal="Y^2-Y^2+Y")) == 3 ** 7
        cfg = dict(q=2, n_max=3, ideal="Y^18")
        validate_config(RunConfig(guard=2 ** 26, **cfg))
        with pytest.raises(ConfigError, match=r"2\^26 = 67108864 exceeds guard 67108863"):
            validate_config(RunConfig(guard=2 ** 26 - 1, **cfg))

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
            validate_config(RunConfig(**cfg))
        assert time.perf_counter() - t0 < 1
        assert len(str(refusal.value)) < 300

    def test_guard_refusal_names_estimate(self):
        cfg = RunConfig(q=3, n_max=9, guard=10 ** 6)
        with pytest.raises(ConfigError, match="3486784401"):
            validate_config(cfg)

    @pytest.mark.parametrize("kwargs", [
        {"n_min": 2, "n_max": 1},
        {"n_min": -1},
        {"depth_m": 0},
        {"depth_mp": 0},
        {"ideal": "Y^99999999"},
        {"fmt": "xml"},
        {"ideal": "0"},
        {"ideal": "Z^2"},
        {"q": 6},
        {"q": 1},
        {"q": 0, "n_max": 100},
    ])
    def test_rejections(self, kwargs):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(**kwargs))

    @pytest.mark.parametrize("experiment", ["joint", "bijection"])
    def test_guard_counts_report_rows(self, experiment):
        # q^(2*n_max+2) = 256, but the cells at depths 40 x 40 would make
        # about 2^118 rows; the refusal comes before any cell is built
        cfg = RunConfig(q=2, n_max=3, depth_m=40, depth_mp=40, experiment=experiment)
        assert work_estimate(cfg) == 256
        with pytest.raises(ConfigError, match="rows"):
            validate_config(cfg)
        validate_config(RunConfig(q=2, n_max=3, depth_m=40, depth_mp=40))

    def test_guard_counts_dump_cells(self):
        # --dump lists every direction and solution cell to name the points
        # of count: about 2^80 and 2^59 of them here, refused at once
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match=r"direction cell list would hold 3 x 2\^78"):
            validate_config(RunConfig(dump=True, depth_m=40, depth_mp=60))
        with pytest.raises(ConfigError, match=r"solution cell list would hold 1 x 2\^59"):
            validate_config(RunConfig(dump=True, depth_mp=60))
        assert time.perf_counter() - t0 < 1
        validate_config(RunConfig(depth_m=40, depth_mp=60))
        validate_config(RunConfig(dump=True, depth_m=40, experiment="cfe"))

    @pytest.mark.parametrize("depths,cells,text", [
        ((3, 2), 48, "direction cell list would hold 48 rows"),
        ((1, 7), 64, r"solution cell list would hold 1 x 2\^6 rows"),
    ])
    def test_dump_cell_guard_is_exact(self, depths, cells, text):
        # 3 * 2^4 direction cells at m = 3, 2^6 solution cells at mp = 7
        cfg = dict(q=2, n_max=1, depth_m=depths[0], depth_mp=depths[1], dump=True)
        validate_config(RunConfig(guard=cells, **cfg))
        with pytest.raises(ConfigError, match=text):
            validate_config(RunConfig(guard=cells - 1, **cfg))
        validate_config(RunConfig(guard=cells - 1, **dict(cfg, dump=False)))

    def test_guard_counts_cfe_rows(self):
        cfg = dict(q=3, n_min=1, n_max=2, depth_mp=8, experiment="cfe")
        # 2 levels * 3^7 solution cells
        validate_config(RunConfig(guard=2 * 3 ** 7, **cfg))
        with pytest.raises(ConfigError, match="4374 rows"):
            validate_config(RunConfig(guard=2 * 3 ** 7 - 1, **cfg))

    @pytest.mark.parametrize("runner,cfg", [
        (run_joint, dict(q=3, n_min=0, n_max=1, depth_m=2, depth_mp=2, experiment="joint")),
        (run_cfe, dict(q=2, n_min=0, n_max=1, depth_mp=5, experiment="cfe")),
        (run_bijection, dict(q=2, n_min=0, n_max=1, depth_m=2, depth_mp=2,
                             experiment="bijection")),
    ])
    def test_row_guard_is_exact(self, runner, cfg):
        rows = len(runner(RunConfig(**cfg)).rows)
        validate_config(RunConfig(guard=rows, **cfg))
        with pytest.raises(ConfigError, match=f"{rows} rows"):
            validate_config(RunConfig(guard=rows - 1, **cfg))

    def test_valid_config_returns_field_and_ideal(self):
        field, I = validate_config(RunConfig(q=3, ideal="Y^2+1"))
        assert field.q == 3 and str(I.gen) == "Y^2+1"


class TestCount:
    def test_unit_ideal_levels(self):
        rep = run_count(RunConfig(q=2, n_min=0, n_max=3))
        got = [(r["n"], r["exact_count"], r["main_term"], r["relative_error"])
               for r in rep.rows]
        assert got == [(0, 3, Fraction(3, 2), 1), (1, 6, 6, 0),
                       (2, 24, 24, 0), (3, 96, 96, 0)]
        assert rep.summary["exactness_observed"] is True
        assert rep.summary["fitted_error_exponent"] is None

    def test_ideal_y_levels(self):
        rep = run_count(RunConfig(q=2, n_min=1, n_max=3, ideal="Y"))
        got = [(r["exact_count"], r["relative_error"]) for r in rep.rows]
        assert got == [(1, Fraction(1, 2)), (7, Fraction(1, 8)),
                       (31, Fraction(1, 32))]
        assert rep.summary["exactness_observed"] is False
        assert rep.summary["fitted_error_exponent"] == pytest.approx(1.0)

    def test_q3_anchor(self):
        rep = run_count(RunConfig(q=3, n_min=1, n_max=1))
        assert rep.rows[0]["exact_count"] == 48
        assert rep.rows[0]["main_term"] == 48


class TestJoint:
    def test_marginals_match_count_report(self):
        for ideal in ("1", "Y"):
            joint = run_joint(RunConfig(q=2, n_min=1, n_max=3, ideal=ideal,
                                        experiment="joint"))
            count = run_count(RunConfig(q=2, n_min=1, n_max=3, ideal=ideal))
            for row in count.rows:
                n = row["n"]
                assert joint.summary[f"total[n={n}]"] == row["exact_count"]

    def test_unit_ideal_exact_uniformity(self):
        rep = run_joint(RunConfig(q=2, n_min=2, n_max=4, experiment="joint"))
        assert all(r["ratio"] == 1 for r in rep.rows)
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

    def test_depth_warning(self):
        rep = run_joint(RunConfig(q=2, n_min=1, n_max=1, depth_mp=4,
                                  experiment="joint"))
        assert any("depth warning" in w for w in rep.warnings)

    def test_indicator_test_function_recovers_marginal(self):
        # pairing a test function with the histogram is a weighted sum of
        # the report's rows; the indicator of every cell gives the level
        # total on both the empirical and the expected side
        rep = run_joint(RunConfig(q=2, n_min=2, n_max=2, experiment="joint"))
        assert sum(r["empirical_count"] for r in rep.rows) == 24
        assert sum(r["expected"] for r in rep.rows) == 24
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
        assert all(r["ratio"] == 1 for r in rep.rows)

    def _joint_blunt_histogram(self, q, ideal, n):
        field = get_field(q)
        joint = run_joint(RunConfig(q=q, n_min=n, n_max=n, ideal=ideal,
                                    experiment="joint"))
        blunt = {c.id_text() for c in sphere_cells(field, 1, sharp=False)}
        hist = Counter()
        for r in joint.rows:
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
            return ".".join(str(field.neg(int(d))) for d in cid.split("."))

        mapped = {negate(r["solution_cell"]): r["empirical_count"]
                  for r in cfe.rows}
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
        assert all(r["match"] for r in rep.rows)

    def test_fault_injection_isolates_row(self, monkeypatch):
        monkeypatch.setattr(harness, "hecke_index", lambda I: hecke_index(I) + 1)
        rep = run_verify(RunConfig(q=2, experiment="verify"))
        bad = {r["name"] for r in rep.rows if not r["match"]}
        assert bad and all(name.startswith("hecke_index") for name in bad)
        good = {r["name"] for r in rep.rows if r["match"]}
        assert not any(name.startswith("hecke_index") for name in good)

    def test_sl2_fault_injection(self, monkeypatch):
        monkeypatch.setattr(harness, "sl2_order_mod", lambda q, N: 1)
        rep = run_verify(RunConfig(q=2, experiment="verify"))
        bad = {r["name"] for r in rep.rows if not r["match"]}
        assert bad == {"sl2_order[N=1]", "sl2_order[N=2]"}

    def test_q3_verify(self):
        rep = run_verify(RunConfig(q=3, experiment="verify"))
        assert rep.summary["failed"] == 0


class TestBijectionRun:
    def test_grid(self):
        rep = run_bijection(RunConfig(q=2, n_min=0, n_max=2, ideal="Y",
                                      experiment="bijection"))
        assert rep.summary == {"cases": 12, "mismatches": 0}
        assert all(r["equal"] for r in rep.rows)
        assert all(r["lattice_count"] == r["matrix_count"] for r in rep.rows)


class TestDeterminism:
    @pytest.mark.parametrize("runner,cfg", [
        (run_count, dict(q=2, n_min=1, n_max=4, ideal="Y")),
        (run_joint, dict(q=2, n_min=2, n_max=3, experiment="joint")),
        (run_cfe, dict(q=3, n_min=1, n_max=2, experiment="cfe")),
    ])
    def test_worker_count_invisible_in_bytes(self, runner, cfg, capsys):
        # the command line accepts --workers, and no report byte depends on it
        for fmt in ("csv", "json"):
            want = render_report(runner(RunConfig(fmt=fmt, **cfg)))
            for workers in ("1", "3"):
                assert main(_argv(cfg, "--format", fmt, "--workers", workers)) == 0
                assert capsys.readouterr().out == want


class TestWorkerCap:
    """The runners work in one process: --workers is accepted and validated
    but opens no pool, and the reports do not depend on it."""

    RUNS = ((run_count, dict(q=3, n_min=0, n_max=3)),
            (run_joint, dict(q=2, n_min=1, n_max=4, ideal="Y", experiment="joint")),
            (run_cfe, dict(q=2, n_min=1, n_max=4, experiment="cfe")))

    @pytest.fixture
    def no_processes(self, monkeypatch):
        import multiprocessing.process

        def refuse(process):
            raise AssertionError("a runner started a process")
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)

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
        rep = run_count(RunConfig(q=2, n_min=0, n_max=1, fmt="json"))
        doc = json.loads(to_json(rep))
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
        sample = rep.points[0]
        assert set(sample) == {"a", "b", "w_x", "w_y", "norm_exp",
                               "direction_cell", "solution_cell"}

    def test_dump_skips_large_levels(self):
        rep = run_count(RunConfig(q=2, n_min=4, n_max=5, dump=True))
        assert any("skipped levels [5]" in w for w in rep.warnings)
        assert all(r["norm_exp"] == 4 for r in rep.points)

    def test_points_require_dump(self):
        rep = run_count(RunConfig(q=2, n_min=1, n_max=1))
        with pytest.raises(ValueError):
            to_points_csv(rep)


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
    return columns, [dict(zip(columns, row)) for row in rows]


class TestCsvTable:
    """_csv_table against csv.writer(lineterminator="\n") fed _csv_cell."""

    @settings(max_examples=300, deadline=None)
    @given(csv_tables())
    @example((["a", "b"], [{"a": 1, "b": True}, {"a": True, "b": 1},
                           {"a": Fraction(1), "b": None}, {"a": 0.5, "b": False}]))
    @example(([" ", "\r", 'x"'], [{" ": "", "\r": "a\rb", 'x"': 'say "y"'},
                                  {" ": "1,5\n", "\r": " ", 'x"': "-"}]))
    def test_matches_csv_writer(self, table):
        columns, rows = table
        assert _csv_table(columns, rows) == self.oracle(columns, rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fixed_dictionaries(dict.fromkeys(POINT_COLUMNS, CSV_VALUES)),
                    max_size=12))
    def test_points_match_csv_writer(self, points):
        # to_points_csv formats every cell afresh instead of through the cache
        expected = self.oracle(POINT_COLUMNS, points)
        assert to_points_csv(SimpleNamespace(points=points)) == expected

    @staticmethod
    def oracle(columns, rows):
        texts = [list(columns)] + [[_csv_cell(r[c]) for c in columns] for r in rows]
        # csv quotes a lone '\r' from Python 3.13 on; the reports hold none
        assume(sys.version_info < (3, 13) or "\r" not in "".join(sum(texts, [])))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(texts)
        return buf.getvalue()


class TestGoldenReports:
    """SHA-256 of CSV reports with the build line masked, as rendered before
    cfe moved onto the Euclid tree; any change to their bytes shows here."""

    @pytest.mark.parametrize("runner,cfg,digest", [
        pytest.param(*case, id=f"{case[0].__name__[4:]}-q{case[1]['q']}")
        for case in [
        (run_count, dict(q=2, n_min=0, n_max=4, ideal="Y"),
         "5a11d07c7d23a0ac72d5550222f6d18c680f2a30c8614e2366c274186bd72e0c"),
        (run_count, dict(q=3, n_min=1, n_max=3, ideal="Y+1"),
         "6a0e2bc2b3e59fa584ad75cdde7fd2af90dfdcaf5e6581326434fcf83acfef70"),
        (run_joint, dict(q=2, n_min=0, n_max=3, depth_m=2, depth_mp=3),
         "6a76d4680ebae3ba5079c213d81b4d535448bb5a53fe0a25c37c723b55543d98"),
        (run_joint, dict(q=3, n_min=1, n_max=2, ideal="Y^2+1"),
         "b2e09198157e036379ac767ce9589b56ff17662243d6fbbcadcda552394bca1d"),
        (run_cfe, dict(q=2, n_min=0, n_max=4, ideal="Y", depth_mp=3),
         "d7adbd9dbbee48aa729ff322cb627cc0daefc63858019c82c6daa4030ecdf5ba"),
        (run_cfe, dict(q=4, n_min=1, n_max=2, ideal="Y+1"),
         "8252e4cd8a1e756e7c139319db9be2d7599cf1f8e7b17402af2fc5224df9c154"),
        (run_cfe, dict(q=9, n_min=1, n_max=2, depth_mp=3),
         "fc15bc330ffb4daf1244bb220e64c2eaceb917217a4aa0db76b515e3a11acb3b"),
    ]])
    def test_masked_digest(self, runner, cfg, digest):
        kind = runner.__name__[len("run_"):]
        text = to_csv(runner(RunConfig(experiment=kind, **cfg)))
        masked = re.sub(r"^# build=.*$", "# build=*", text, flags=re.MULTILINE)
        assert hashlib.sha256(masked.encode()).hexdigest() == digest


class TestBuildId:
    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_only_its_own_checkout_is_described(self, tmp_path, monkeypatch):
        git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run(git + ["init", "-q"], check=True)
        subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], check=True)
        head = subprocess.check_output(git + ["rev-parse", "--short", "HEAD"],
                                       text=True).strip()
        try:
            monkeypatch.setattr(harness, "_CHECKOUT", tmp_path)
            build_id.cache_clear()
            assert build_id() == head
            # a copy below that repository, but not its root, runs no git at all
            (tmp_path / "lib").mkdir()
            monkeypatch.setattr(harness, "_CHECKOUT", tmp_path / "lib")
            monkeypatch.setattr(subprocess, "check_output", None)
            build_id.cache_clear()
            assert build_id() == "unknown"
        finally:
            build_id.cache_clear()
