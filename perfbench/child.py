"""One benchmark repetition, run in a fresh interpreter by run.py.

usage: python3 -E -s perfbench/child.py ROOT MODE Q RESULT [-- CLI_ARGV...]

Imports fqlattice from ROOT/src, refusing any copy outside ROOT, calls
get_field(Q), then writes "ready" on stdout; run.py times set-up up to that
line.  MODE "setup" stops there.  MODE "run" times `cli.main(CLI_ARGV)` and
writes wall time, CPU time of this process and its reaped pool workers, and
peak RSS as JSON to RESULT.  MODE "trace" does the same with the span tracer
installed and adds its per-layer aggregates.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    root, mode, q, result_path = Path(argv[1]).resolve(), argv[2], int(argv[3]), argv[4]
    cli_argv = argv[6:]
    src = root / "src"
    sys.path.insert(0, str(src))
    import fqlattice
    package_file = Path(fqlattice.__file__).resolve()
    if src not in package_file.parents:
        print(f"fqlattice resolves to {package_file}, outside {src}",
              file=sys.stderr)
        return 3
    from fqlattice import cli
    from fqlattice.field import get_field
    from fqlattice.harness import build_id
    get_field(q)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if mode == "setup":
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    code = cli.main(cli_argv)
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.uninstall()
    result = {
        "wall_s": wall,
        "cpu_self_s": _cpu(self1) - _cpu(self0),
        "cpu_children_s": _cpu(kids1) - _cpu(kids0),
        "peak_rss_kb": max(self1.ru_maxrss, kids1.ru_maxrss),
        "package_file": str(package_file),
        "build_id": build_id(),
        "layers": tracer.summary() if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
