#!/usr/bin/env python3
"""Run the benchmark's own command several times per workload and
record every end-to-end value: the input of ``compare.py`` and the
source of the bounds in ``BENCHMARK.json``.

    python3 benchmarks/trex_bench/calibrate.py --runs 10 --out A.json

Each run is a fresh process with its own ``--seed`` (first seed, first
seed + 1, ...), exactly as the benchmark driver invokes it.  The spread
of a metric is the distance between the first and third quartile of its
values (``statistics.quantiles(values, n=4)``) as a share of their
median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(values) -> dict:
    return {"median": statistics.median(values), "spread": spread(values),
            "min": min(values), "max": max(values), "runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads (repeatable)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    contract = report.load_contract()
    names = args.workload or [w["name"] for w in contract["workloads"]]
    record = {"benchmark": "trex_bench", "kind": "run-set",
              "run": report.run_record(args.first_seed),
              "run_seconds": contract["run_seconds"], "values": {},
              "process_seconds": {}}
    for name in names:
        values: dict = {}
        elapsed = []
        for index in range(args.runs):
            seed = args.first_seed + index
            t0 = time.perf_counter()
            done = subprocess.run(
                [*contract["command"], "--workload", name, "--seed",
                 str(seed), "--seconds", str(contract["run_seconds"]),
                 "--trace", "0"],
                cwd=report.REPO_ROOT, capture_output=True, text=True)
            elapsed.append(time.perf_counter() - t0)
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: incorrect run\n{done.stdout}",
                      file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: {elapsed[-1]:.1f}s  " + "  ".join(
                f"{m}={v[-1]:.4g}" for m, v in values.items()), flush=True)
        record["values"][name] = values
        record["process_seconds"][name] = elapsed
    record["summary"] = {
        name: {metric: summarize(vals) for metric, vals in values.items()}
        for name, values in record["values"].items()}
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"\n{'workload':16s}{'metric':16s}{'median':>12s}{'spread':>9s}")
    for name, metrics in record["summary"].items():
        for metric, entry in metrics.items():
            print(f"{name:16s}{metric:16s}{entry['median']:12.4g}"
                  f"{entry['spread']:9.1%}")
    total = sum(sum(v) for v in record["process_seconds"].values())
    print(f"\n{total:.0f}s in benchmark processes; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
