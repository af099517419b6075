"""Command-line surface: exit codes, output routing, dump files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fqlattice
from fqlattice.cli import main


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

    @pytest.mark.parametrize("text", ["Y2", "Y^2+", "Y^", "Z", "2Y"])
    def test_unreadable_ideal(self, capsys, text):
        code, out, err = run(["count", "--ideal", text], capsys)
        assert code == 2 and out == ""
        assert f"bad ideal generator {text!r}" in err
        assert "invalid literal" not in err

    def test_bad_modulus(self, capsys):
        code, _, err = run(["count", "--q", "4", "--modulus", "1,1"], capsys)
        assert code == 2 and "configuration error" in err

    def test_out_directory_missing(self, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr("fqlattice.harness._walk_levels", no_work)
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(["count", "--out", str(target)], capsys)
        assert code == 2 and out == ""
        assert "configuration error" in err and "does not exist" in err
        assert not target.parent.exists()

    def test_out_unwritable(self, tmp_path, capsys):
        # --out naming a directory fails in the write itself
        code, out, err = run(["count", "--n-max", "1", "--out", str(tmp_path)],
                             capsys)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("cannot write report: ") and str(tmp_path) in err

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_verification_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("fqlattice.harness.hecke_index",
                            lambda I: 0)
        code, _, err = run(["verify"], capsys)
        assert code == 1
        assert "failure(s)" in err


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
