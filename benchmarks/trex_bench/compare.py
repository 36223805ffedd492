#!/usr/bin/env python3
"""Compare two trex_bench results under the bounds of BENCHMARK.json.

    python3 benchmarks/trex_bench/compare.py A.json B.json

``A`` is the parent (or first) side, ``B`` the change (or second).  Each
file is either a run set written by ``calibrate.py`` (several runs per
workload) or the record of a single ``run.py`` run.  One row per
workload x end-to-end metric:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's own spread (inter-quartile distance as
  a share of the median) exceeds the bound, so the runs cannot tell;
* ``ok`` — neither.

``failed_share`` and ``match_digest_ok`` have the absolute bound 0: any
failed operation or digest mismatch on side B is a regression.  Exit
code 1 when any row is not ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import spread  # noqa: E402
from report import load_contract  # noqa: E402


def values_by_workload(record: dict) -> dict:
    """``{workload: {metric: [values...]}}`` from either file shape."""
    if record.get("kind") == "run-set":
        return record["values"]
    out = {}
    for name, outcome in record["workloads"].items():
        out[name] = {metric: [entry["value"]]
                     for metric, entry in outcome["metrics"].items()}
    return out


def verdict(a, b, better: str, bound: float):
    """``(status, change as a share of A's median)``."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / med_a if med_a else 0.0
    worse = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", change
    return ("regression" if worse > bound else "ok"), change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = []
    for path in argv:
        with open(path) as handle:
            sides.append(values_by_workload(json.load(handle)))
    side_a, side_b = sides
    contract = load_contract()
    bad = 0
    print(f"{'workload':16s}{'metric':16s}{'A median':>12s}{'B median':>12s}"
          f"{'change':>9s}{'spread A':>10s}{'spread B':>10s}{'bound':>7s}"
          f"  status")
    for workload in contract["workloads"]:
        name = workload["name"]
        if name not in side_a or name not in side_b:
            print(f"{name:16s}missing on one side")
            bad += 1
            continue
        for entry in contract["end_to_end"]:
            metric = entry["name"]
            a, b = side_a[name][metric], side_b[name][metric]
            status, change = verdict(a, b, entry["better"], entry["bound"])
            bad += status != "ok"
            print(f"{name:16s}{metric:16s}{statistics.median(a):12.4g}"
                  f"{statistics.median(b):12.4g}{change:+9.1%}"
                  f"{spread(a):10.1%}{spread(b):10.1%}"
                  f"{entry['bound']:7.0%}  {status}")
        # Absolute-zero bounds: present in run.py records; a run set only
        # holds runs that were correct and failed nothing.
        for metric, good in (("failed_share", 0), ("match_digest_ok", 1)):
            got = side_b[name].get(metric)
            if got is not None and any(value != good for value in got):
                print(f"{name:16s}{metric:16s}{'':>12s}"
                      f"{statistics.median(got):12.4g}{'':>36s}  regression")
                bad += 1
    print(f"\n{bad} row(s) not ok" if bad else "\nall rows ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
