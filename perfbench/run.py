"""Benchmark of the fqlattice count, joint and cfe runners through the CLI.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from any directory of a checkout; it measures the fqlattice under that
checkout's own src/ and refuses any other copy.  Every repetition is a fresh
interpreter (perfbench/child.py) that calls `fqlattice.cli.main(argv)` with
the report written to a file, one repetition after another (closed loop).
Each report passes the correctness gate in perfbench/gate.py or counts as
failed.  With --trace 0 the last stdout line holds the end-to-end metrics;
with --trace 1 untraced and traced repetitions alternate and it holds the
per-layer metrics.  Full results, with machine facts and the load average
around every repetition, go to .perfbench-out/ under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench-out"
SETUP_SPAWNS = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Tuple[str, ...]
    q: int
    workers: int
    levels: range
    kind: str  # closed form in the gate

    def config(self, seed: int) -> Tuple[List[str], str]:
        """CLI argv for this seed and the name of its recorded digest."""
        argv = list(self.argv) + ["--workers", str(self.workers)]
        if self.kind != "count-q3":
            return argv, self.kind
        c = seed % 3
        ideal = f"Y+{c}" if c else "Y"
        return argv + ["--ideal", ideal], f"count-q3[{ideal}]"


WORKLOADS = {w.name: w for w in (
    Workload("joint-q2", ("joint", "--q", "2", "--n-min", "2", "--n-max", "7"),
             2, 1, range(2, 8), "joint-q2"),
    Workload("count-q3", ("count", "--q", "3", "--n-min", "1", "--n-max", "5"),
             3, 1, range(1, 6), "count-q3"),
    Workload("cfe-q2", ("cfe", "--q", "2", "--n-min", "1", "--n-max", "8"),
             2, 1, range(1, 9), "cfe-q2"),
    Workload("joint-q2-w2", ("joint", "--q", "2", "--n-min", "2", "--n-max", "7"),
             2, 2, range(2, 8), "joint-q2"),
)}

# spans reported as <name>.calls and <name>.self_s
TIMED_SPANS = ("field.divmod", "field.mul", "field.poly_gcd", "field.poly_xgcd",
               "laurent.rationalfn_init", "laurent.expand",
               "lattice.solution_statistic", "lattice.companion_of",
               "cfrac.cf_expand", "cfrac.convergents", "cfrac.penultimate_ratio",
               "haar")
# spans whose tally counts true results: <name>.calls and <name>.true_ratio
PREDICATE_SPANS = ("field.is_coprime", "field.ideal_contains")
# spans reported by self time alone
SELF_SPANS = ("harness.runner", "harness.render", "cli.main")


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def machine_facts() -> Dict[str, object]:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "implementation": platform.python_implementation(),
            "cpu_model": model, "platform": platform.platform()}


def loadavg() -> Optional[List[float]]:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


class Bench:
    """Spawns repetitions of one workload and gates their reports."""

    def __init__(self, workload: Workload, seed: int, trace: int) -> None:
        self.workload = workload
        self.argv, self.report_key = workload.config(seed)
        stem = f"{workload.name}-seed{seed}-trace{trace}"
        self.report = OUT / f"{stem}.report.csv"
        self.result = OUT / f"{stem}.child.json"
        self.stderr = OUT / f"{stem}.stderr.txt"
        self.results_file = OUT / f"{stem}.json"
        self.stderr.write_bytes(b"")
        self.deadline = time.monotonic() + DEADLINE_S
        self.package: Dict[str, str] = {}

    def spawn(self, mode: str) -> Tuple[float, int]:
        """Run child.py once; returns (set-up seconds, exit code)."""
        argv = [] if mode == "setup" else self.argv + ["--out", str(self.report)]
        cmd = [sys.executable, "-E", "-s", str(CHILD), str(ROOT), mode,
               str(self.workload.q), str(self.result), "--", *argv]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next repetition")
        with open(self.stderr, "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline()
                setup_s = time.perf_counter() - t0
                proc.communicate()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        if line != b"ready\n":
            raise BenchError(f"child exited with code {proc.returncode} before "
                             f"set-up finished; see {self.stderr}")
        return setup_s, proc.returncode

    def repetition(self, mode: str) -> Dict[str, object]:
        for stale in (self.report, self.result):
            stale.unlink(missing_ok=True)
        load_before = loadavg()
        setup_s, code = self.spawn(mode)
        rep: Dict[str, object] = {"mode": mode, "setup_s": setup_s, "exit_code": code,
                                  "load_before": load_before, "load_after": loadavg()}
        if self.result.exists():
            rep.update(json.loads(self.result.read_text()))
            self.package = {"file": rep.pop("package_file"), "build_id": rep.pop("build_id")}
        report = self.report.read_bytes() if self.report.exists() else b""
        rep["problems"] = gate.check(self.workload.kind, self.report_key,
                                     self.workload.levels, code, report)
        if not report:
            rep["problems"].append("no report written")
        rep["points"] = sum(gate.level_totals(report).values()) if report else 0
        return rep


def end_to_end(reps: List[dict], setups: List[float]) -> Dict[str, tuple]:
    timed = [r for r in reps if "wall_s" in r]
    points = max(r["points"] for r in timed)
    walls = [r["wall_s"] for r in timed]
    return {
        "wall_s": (quartiles(walls), "s"),
        "us_per_point": (quartiles([w * 1e6 / points for w in walls]), "us"),
        "setup_s": (quartiles(setups), "s"),
        "cpu_s": (quartiles([r["cpu_self_s"] + r["cpu_children_s"] for r in timed]), "s"),
        "peak_rss_mb": (quartiles([r["peak_rss_kb"] / 1024 for r in timed]), "MB"),
    }


def per_layer(workers: int, reps: List[dict]) -> Dict[str, tuple]:
    plain = [r for r in reps if r["mode"] == "run" and "wall_s" in r]
    traced = [r for r in reps if r["mode"] == "trace" and r.get("layers") is not None]
    if not plain or not traced:
        raise BenchError("no completed untraced and traced repetition pair")
    empty = {"calls": 0, "self_s": 0.0, "tally": 0}
    first = traced[0]["layers"]

    def calls(name: str) -> int:
        return first.get(name, empty)["calls"]

    def mean_tally(name: str) -> float:
        span = first.get(name, empty)
        return span["tally"] / span["calls"] if span["calls"] else 0.0

    def self_s(name: str) -> float:
        return statistics.median(r["layers"].get(name, empty)["self_s"] for r in traced)

    out: Dict[str, tuple] = {}
    for name in TIMED_SPANS:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in PREDICATE_SPANS:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.true_ratio"] = (mean_tally(name), "ratio")
    out["cfrac.cf_expand.mean_len"] = (mean_tally("cfrac.cf_expand"), "terms")
    for name in SELF_SPANS:
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["harness.pool.worker_cpu_s"] = (
        statistics.median(r["cpu_children_s"] for r in plain), "s")
    out["harness.pool.efficiency"] = (statistics.median(
        (r["cpu_self_s"] + r["cpu_children_s"]) / (workers * r["wall_s"])
        for r in plain), "ratio")
    out["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain), "s")
    return out


def calls_repeat(reps: List[dict]) -> bool:
    seen = {json.dumps({k: v["calls"] for k, v in r["layers"].items()}, sort_keys=True)
            for r in reps if r.get("layers") is not None}
    return len(seen) <= 1


def run(workload: Workload, seed: int, seconds: int, trace: int) -> dict:
    bench = Bench(workload, seed, trace)
    facts = machine_facts()
    bench.spawn("setup")  # untimed: fills the bytecode and page caches
    setups = [bench.spawn("setup")[0] for _ in range(SETUP_SPAWNS)]
    unit = ("run", "trace") if trace else ("run",)
    reps: List[dict] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.extend(bench.repetition(mode) for mode in unit)
        now = time.monotonic()
        if now - start >= seconds or now + (now - t0) > bench.deadline:
            break
    setups += [r["setup_s"] for r in reps if r["mode"] == "run"]
    failed = sum(1 for r in reps if r["problems"])
    if not any("wall_s" in r for r in reps):
        raise BenchError("no repetition completed; see " + str(bench.stderr))
    if trace:
        metrics = per_layer(workload.workers, reps)
        summaries = {}
    else:
        e2e = end_to_end(reps, setups)
        metrics = {k: (v["median"], unit) for k, (v, unit) in e2e.items()}
        summaries = {k: v for k, (v, _) in e2e.items()}
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": bench.argv, "package": bench.package, "machine": facts,
        "attempted": len(reps), "failed": failed,
        "failed_ratio": failed / len(reps),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "quartiles": summaries, "setup_samples": setups, "repetitions": reps,
    }
    if trace:
        record["calls_repeat"] = calls_repeat(reps)
    bench.results_file.write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fqlattice" / "__init__.py").is_file():
        print(f"no fqlattice sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    for rep in record["repetitions"]:
        for problem in rep["problems"]:
            print(f"gate failure ({rep['mode']}): {problem}", file=sys.stderr)
    print(f"# {record['workload']} seed={record['seed']} argv={' '.join(record['argv'])}")
    print(f"# fqlattice={record['package'].get('file')} build={record['package'].get('build_id')}")
    print(f"# failed_ratio={record['failed_ratio']} of {record['attempted']}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
