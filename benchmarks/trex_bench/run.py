#!/usr/bin/env python3
"""trex_bench: the repository's one end-to-end benchmark.

    python3 benchmarks/trex_bench/run.py                   # all six workloads
    python3 benchmarks/trex_bench/run.py --workload scan_leaf --seed 3
    python3 benchmarks/trex_bench/run.py --traced          # per-layer numbers
    python3 benchmarks/trex_bench/run.py --quick           # one pass each

The benchmark driver calls it as
``run.py --workload W --seed N --seconds S --trace 0|1`` and reads the
last line of standard output.  See README.md for the metrics, the
workloads and how a later change states a claim.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC = REPO_ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"trex_bench: {SRC}/repro not found; the benchmark measures "
             f"the program in this checkout and needs its source tree")
sys.path[:0] = [str(HERE), str(SRC)]

import report  # noqa: E402
import spec  # noqa: E402
from engine_loop import EngineRunner  # noqa: E402
from layers import LayerTrace, Tracer  # noqa: E402
from serve_loop import ServeRunner  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def pin_cpus():
    """Fix where the work runs: this process on the highest allowed CPU;
    returns the CPU set for a server child (the next one down), or
    ``None`` to let it inherit.

    Left to the scheduler, a pure-Python loop's per-second median wanders
    by +-20 % on the reference box as the process migrates; pinned it
    stays within a few percent (README.md, "Noise").
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return {allowed[-2]} if len(allowed) > 1 else None


def set_up_repeatedly(make_runner, repeats: int):
    """``repeats`` full set-ups from scratch; the last one is kept for
    the timed passes.  Returns ``(runner, [seconds...], failures)``."""
    seconds, failures = [], []
    runner = None
    for index in range(repeats):
        runner = make_runner()
        try:
            seconds.append(runner.set_up())
        except BaseException:
            runner.close()
            raise
        if index < repeats - 1:
            runner.close()
            failures.extend(runner.failures)
    return runner, seconds, failures


def untraced_run(make_runner, seconds, quick) -> dict:
    runner, setup_seconds, failures = set_up_repeatedly(
        make_runner, 1 if quick else SETUPS)
    try:
        samples, wall = runner.timed(seconds,
                                     max_passes=1 if quick else None)
    finally:
        runner.close()
    failures.extend(runner.failures)
    metrics = report.end_to_end(samples, wall, setup_seconds,
                                runner.include_children,
                                clean_shutdown=not runner.shutdown_problems)
    return {"metrics": metrics, "samples": samples, "failures": failures,
            "observed": runner.observed, "timed_wall_s": wall}


def traced_run(make_runner, seconds, quick, tracer) -> dict:
    """One set-up, then whole passes of traced operations."""
    runner = make_runner()
    trace = LayerTrace(runner, tracer)
    plain_s = traced_s = None
    try:
        runner.set_up()
        if isinstance(runner, ServeRunner):
            samples, plain_s, traced_s = traced_serve_passes(
                runner, trace, seconds / 2, quick)
        else:
            samples, _ = runner.timed(seconds, run_one=trace.operation,
                                      max_passes=1 if quick else None)
    finally:
        runner.close()
    return {"metrics": trace.metrics(plain_s, traced_s), "samples": samples,
            "failures": runner.failures, "observed": runner.observed,
            "symbols_missing": trace.symbols.missing}


def traced_serve_passes(runner, trace, seconds, quick):
    """Outside view of the server: passes alternate between plain and
    captured (meta of every 200 body kept), then one in-process replay
    of the same operations attributes the engine work inside a request."""
    from repro import TRexEngine

    captured = functools.partial(runner.operation,
                                 capture=trace.capture_response)
    _, before = runner.get("/stats")
    samples, pass_seconds = [], {False: [], True: []}
    start = time.perf_counter()
    pass_index = 1
    while True:
        for capture in (False, True):
            t0 = time.perf_counter()
            samples.extend(runner.run_pass(
                pass_index, captured if capture else runner.operation))
            pass_seconds[capture].append(time.perf_counter() - t0)
            pass_index += 1
        if quick or time.perf_counter() - start >= seconds:
            break
    _, after = runner.get("/stats")
    trace.service_stats = {"before": before, "after": after}
    runner.engine = TRexEngine()
    in_process = functools.partial(EngineRunner.operation, runner)
    EngineRunner.run_pass(
        runner, 0, functools.partial(trace.operation, untraced=in_process))
    return (samples, statistics.median(pass_seconds[False]),
            statistics.median(pass_seconds[True]))


def run_workload(name, args, contract, tracer, server_cpus) -> dict:
    workload = spec.load_workload(name)
    expected = None if args.write_expected else spec.load_expected(name)
    seconds = args.seconds if args.seconds is not None \
        else contract["run_seconds"]
    if workload["mode"] == "serve":
        make_runner = functools.partial(ServeRunner, workload, args.seed,
                                        expected, server_cpus)
    else:
        make_runner = functools.partial(EngineRunner, workload, args.seed,
                                        expected)
    if args.trace:
        outcome = traced_run(make_runner, seconds, args.quick, tracer)
    else:
        outcome = untraced_run(make_runner, seconds, args.quick)
    samples = outcome.pop("samples")
    by_op = {}
    for sample in samples:
        by_op.setdefault(sample["op"], []).append(sample["seconds"] * 1e3)
    outcome["per_operation_ms"] = {
        op: statistics.median(times) for op, times in sorted(by_op.items())}
    outcome["attempted"] = len(samples)
    outcome["failed"] = sum(1 for s in samples if not s["ok"])
    outcome["correct"] = not outcome["failures"]
    outcome["why"] = workload["why"]
    outcome["sizes"] = report.sizes(workload)
    if args.write_expected:
        spec.write_expected(name, outcome["observed"])
    del outcome["observed"]
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1,
                        help="operation order and plan_cold nudges")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload, rounded up to "
                             "whole passes (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "bench-artifacts" / "trex_bench",
                        help="where the JSON record and trace.jsonl go")
    parser.add_argument("--quick", action="store_true",
                        help="one set-up and one timed pass per workload")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected/<workload>.json")
    parser.add_argument("--selfcheck", action="store_true",
                        help="anchor digests to the brute-force matcher")
    parser.add_argument("--define", action="store_true",
                        help="re-freeze workloads/*.json from the templates")
    args = parser.parse_args(argv)

    if args.define:
        import define
        define.freeze()
        return 0
    if args.selfcheck:
        import selfcheck
        return selfcheck.main(args.seed)

    contract = report.load_contract()
    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    server_cpus = pin_cpus()
    tracer = Tracer()
    record = {"benchmark": "trex_bench", "traced": bool(args.trace),
              "quick": args.quick, "run": report.run_record(args.seed),
              "workloads": {}}
    try:
        for name in names:
            outcome = run_workload(name, args, contract, tracer,
                                   server_cpus)
            record["workloads"][name] = outcome
            report.print_metrics(
                f"{name} ({'per-layer, traced' if args.trace else 'end to end'}"
                f"; {outcome['attempted']} operations, "
                f"{outcome['failed']} failed)", outcome["metrics"])
            for failure in outcome["failures"][:10]:
                print(f"  FAILED {failure}")
    except spec.FingerprintChanged as exc:
        print(f"trex_bench: {exc}", file=sys.stderr)
        return 3

    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.workload or "all"
    suffix = "-traced" if args.trace else ""
    out_path = args.out / f"{stem}{suffix}.json"
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    if args.trace:
        tracer.write(args.out / f"{stem}.trace.jsonl")
    print(f"\nwrote {out_path}")

    if args.workload:
        outcome = record["workloads"][args.workload]
        listed = contract["per_layer" if args.trace else "end_to_end"]
        print(report.contract_line(
            outcome["correct"], outcome["attempted"], outcome["failed"],
            outcome["metrics"], [entry["name"] for entry in listed]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
