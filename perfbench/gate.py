"""Correctness gate applied to every report the benchmark produces.

A report passes when

* the run exited with code 0,
* its bytes, with the ``# build=`` line masked, hash to the digest recorded
  for that configuration (``build_id()`` embeds ``git describe --dirty``, so
  the raw line changes on every commit), and
* its per-level totals match the closed forms: ``joint`` at q=2 has
  (3/2)*4^n points at level n, ``cfe`` at q=2 has 2*4^(n-1) pairs, and
  ``count`` at q=3 with ideal (Y+c) has the same per-level counts for every c.

The digests were recorded from the reports of the seed commit of the
benchmark; ``python3 perfbench/gate.py REPORT...`` prints the masked digest
and the per-level totals of existing reports, which is how they were made.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
import sys
from typing import Dict, List

BUILD_LINE = re.compile(rb"^# build=.*$", re.MULTILINE)
TOTAL_LINE = re.compile(r"^# summary total\[n=(\d+)\]=(\d+)$", re.MULTILINE)

# sha256 of each report with its build line masked, keyed by report name
DIGESTS: Dict[str, str] = {
    "joint-q2": "af7bebbbe606be570b41e66edf00b058e80b704d4fe04a6d12de09188fd2ab8b",
    "cfe-q2": "c3936a6590a3d5127a60a085ea8527ea5297aee8c4471175fc0ae358890e2e98",
    "count-q3[Y]": "0f43a7046d7553b5f460134043f261395bfc6c83d1b07335dfc67be863a23cc9",
    "count-q3[Y+1]": "e401ff20bf024e8cdadd4b64328a906b4353bc41eec92d7dd45fae339c3192ac",
    "count-q3[Y+2]": "5d67ed553802971a7fcdc7939033b0f015f1afe5499d87cf98e837cd5e5ff07f",
}

# exact_count per level of `count --q 3 --n-min 1 --n-max 5 --ideal Y+c`,
# the same for c = 0, 1, 2 because Y -> Y+c preserves degree
COUNT_Q3: Dict[int, int] = {1: 8, 2: 104, 3: 968, 4: 8744, 5: 78728}


def masked_digest(report: bytes) -> str:
    return hashlib.sha256(BUILD_LINE.sub(b"# build=*", report)).hexdigest()


def level_totals(report: bytes) -> Dict[int, int]:
    """Points per level: the `total[n=...]` summaries of joint and cfe
    reports, or the exact_count column of a count report."""
    text = report.decode(errors="replace")
    totals = {int(n): int(v) for n, v in TOTAL_LINE.findall(text)}
    if totals:
        return totals
    body = "".join(line + "\n" for line in text.splitlines()
                   if not line.startswith("#"))
    try:
        return {int(row["n"]): int(row["exact_count"])
                for row in csv.DictReader(io.StringIO(body))}
    except (KeyError, TypeError, ValueError):
        return {}


def closed_form(kind: str, levels: range) -> Dict[int, int]:
    if kind == "joint-q2":
        return {n: 3 * 4 ** n // 2 for n in levels}
    if kind == "cfe-q2":
        return {n: 2 * 4 ** (n - 1) for n in levels}
    if kind == "count-q3":
        return {n: COUNT_Q3[n] for n in levels}
    raise KeyError(kind)


def check(kind: str, report_key: str, levels: range, exit_code: int,
          report: bytes) -> List[str]:
    """Reasons the report fails the gate; empty when it passes.

    `kind` names the closed form, `report_key` the recorded digest."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    digest = masked_digest(report)
    if digest != DIGESTS.get(report_key):
        problems.append(f"masked digest {digest} differs from the recorded "
                        f"{DIGESTS.get(report_key)} for {report_key}")
    totals = level_totals(report)
    want = closed_form(kind, levels)
    if totals != want:
        problems.append(f"per-level totals {totals} differ from {want}")
    return problems


if __name__ == "__main__":
    for path in sys.argv[1:]:
        with open(path, "rb") as fh:
            data = fh.read()
        print(path, masked_digest(data), level_totals(data))
