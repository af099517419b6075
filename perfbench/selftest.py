"""Tests of the benchmark itself: the correctness gate, the tracer's call
counts, and the refusal to run without the checkout's sources.

usage: python3 perfbench/selftest.py     (about 15 s; from any directory)

The file is not named test_*.py on purpose, so the repository's own pytest
run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import gate
import run

SCRATCH = run.OUT / "selftest"


def _child(mode: str, argv) -> Path:
    """Run one repetition of `fqlattice.cli.main(argv)` the way run.py does;
    returns the report path.  The child's result JSON sits beside it."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    report = SCRATCH / f"{mode}.csv"
    q = argv[argv.index("--q") + 1]
    subprocess.run([sys.executable, "-E", "-s", str(run.CHILD), str(run.ROOT),
                    mode, q, str(report.with_suffix(".json")), "--", *argv,
                    "--out", str(report)],
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return report


def _traced_calls(argv) -> dict:
    result = _child("trace", argv).with_suffix(".json")
    layers = json.loads(result.read_text())["layers"]
    return {name: span["calls"] for name, span in layers.items()}


class GateTest(unittest.TestCase):
    workload = run.WORKLOADS["cfe-q2"]

    @classmethod
    def setUpClass(cls):
        cls.argv, cls.key = cls.workload.config(seed=0)
        cls.report = _child("run", cls.argv).read_bytes()

    def check(self, report: bytes, exit_code: int = 0):
        return gate.check(self.workload.kind, self.key, self.workload.levels,
                          exit_code, report)

    def test_report_at_head_passes(self):
        self.assertEqual(self.check(self.report), [])

    def test_build_line_is_masked(self):
        other = gate.BUILD_LINE.sub(b"# build=0123abc-dirty", self.report)
        self.assertNotEqual(other, self.report)
        self.assertEqual(self.check(other), [])

    def test_one_altered_cell_count_fails(self):
        lines = self.report.split(b"\n")
        i = next(k for k, line in enumerate(lines) if line.startswith(b"8,"))
        cells = lines[i].split(b",")
        cells[2] = str(int(cells[2]) + 1).encode()
        lines[i] = b",".join(cells)
        problems = self.check(b"\n".join(lines))
        self.assertEqual(len(problems), 1)
        self.assertIn("masked digest", problems[0])

    def test_one_altered_level_total_fails_digest_and_closed_form(self):
        bad = self.report.replace(b"total[n=8]=32768", b"total[n=8]=32767")
        self.assertNotEqual(bad, self.report)
        problems = self.check(bad)
        self.assertEqual(len(problems), 2)
        self.assertIn("per-level totals", problems[1])

    def test_nonzero_exit_fails(self):
        self.assertEqual(self.check(self.report, exit_code=1), ["exit code 1"])

    def test_count_closed_form_is_the_same_for_every_seed(self):
        body = "".join(f"{n},{c},0,0\n" for n, c in gate.COUNT_Q3.items())
        good = ("# kind=count\nn,exact_count,main_term,relative_error\n" + body).encode()
        self.assertEqual(gate.level_totals(good), gate.COUNT_Q3)
        levels = run.WORKLOADS["count-q3"].levels
        for seed in range(3):
            _, key = run.WORKLOADS["count-q3"].config(seed)
            problems = gate.check("count-q3", key, levels, 0,
                                  good.replace(b"\n5,78728,", b"\n5,78727,"))
            self.assertTrue(any("per-level totals" in p for p in problems), problems)


class TraceCallsRepeatTest(unittest.TestCase):
    """Every *.calls count repeats exactly between two traced runs."""

    CASES = {
        "joint": ["joint", "--q", "2", "--n-min", "2", "--n-max", "5"],
        "joint-w2": ["joint", "--q", "2", "--n-min", "2", "--n-max", "5",
                     "--workers", "2"],
        "count": ["count", "--q", "3", "--n-min", "1", "--n-max", "3",
                  "--ideal", "Y+1"],
        "cfe": ["cfe", "--q", "2", "--n-min", "1", "--n-max", "6"],
    }
    EXPECTED_SPANS = {
        "joint": ("lattice.solution_statistic", "field.poly_xgcd", "field.is_coprime"),
        "joint-w2": ("harness.runner", "harness.render", "cli.main", "haar"),
        "count": ("field.ideal_contains", "field.is_coprime", "field.poly_gcd"),
        "cfe": ("cfrac.cf_expand", "cfrac.penultimate_ratio", "cfrac.convergents"),
    }

    def test_calls_repeat(self):
        for case, argv in self.CASES.items():
            with self.subTest(case=case):
                first, second = _traced_calls(argv), _traced_calls(argv)
                self.assertEqual(first, second)
                for span in self.EXPECTED_SPANS[case]:
                    self.assertGreater(first.get(span, 0), 0, span)

    def test_pool_workers_run_untraced(self):
        serial = _traced_calls(self.CASES["joint"])
        pooled = _traced_calls(self.CASES["joint-w2"])
        self.assertNotIn("lattice.solution_statistic", pooled)
        self.assertEqual(pooled["harness.runner"], serial["harness.runner"])


class RefusalTest(unittest.TestCase):
    def test_refuses_without_checkout_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "joint-q2",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertFalse((bare / ".perfbench-out").exists())

    def test_refuses_a_package_outside_the_checkout(self):
        bare = SCRATCH / "linked"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "src").mkdir(parents=True)
        (bare / "src" / "fqlattice").symlink_to(run.ROOT / "src" / "fqlattice")
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "joint-q2",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("outside", (bare / ".perfbench-out" /
                                  "joint-q2-seed1-trace0.stderr.txt").read_text())


if __name__ == "__main__":
    unittest.main()
