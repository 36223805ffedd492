#!/usr/bin/env python
"""CLI chaos sweep: drive ``python -m repro query`` under ``TREX_FAULTS``.

Runs one reference query in a subprocess for every (fault point, action,
error policy) combination and checks the observed behaviour against the
policy matrix of docs/ROBUSTNESS.md: expected exit code, one-line
``error:`` stderr on failure, ``warning:`` degradation notes on
recovery.  Writes a machine-readable JSON summary (uploaded as a CI
artifact by the ``chaos`` job).

Usage::

    python tools/chaos_sweep.py --out chaos-artifacts
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

QUERY = ("PARTITION BY ticker ORDER BY tstamp PATTERN (DN UP) & WIN "
         "DEFINE SEGMENT DN AS last(DN.price) < first(DN.price), "
         "SEGMENT UP AS last(UP.price) > first(UP.price), "
         "SEGMENT WIN AS window(2, 6)")

CSV = "tstamp,ticker,price\n" + "".join(
    f"{t},{ticker},{price}\n"
    for ticker in ("ACME", "OTHR")
    for t, price in enumerate([10, 12, 11, 9, 8, 10, 12, 13, 11, 10]))

#: (fault entry for TREX_FAULTS, policy, expected exit code, expectation)
#: Exit codes: 0 recovered/degraded, 7 ExecutionError, 8 timeout/budget
#: (see docs/ROBUSTNESS.md).
SWEEP = [
    # planner faults always recover via the rule-based fallback.
    ("planner.dp:raise", "raise", 0, "fallback"),
    ("planner.dp:plan", "raise", 0, "fallback"),
    ("planner.dp:crash", "raise", 0, "fallback"),
    ("planner.dp:timeout", "raise", 8, "error"),
    ("planner.dp:timeout", "partial", 0, "degraded"),
    # per-series faults: propagate under raise, isolate otherwise.
    ("data.series:raise", "raise", 7, "error"),
    ("data.series:raise@2", "skip", 0, "warning"),
    ("data.series:raise@2", "partial", 0, "warning"),
    ("data.series:data@2", "skip", 0, "warning"),
    ("data.series:crash@2", "skip", 0, "warning"),
    ("data.series:timeout@2", "partial", 0, "degraded"),
    # operator faults (leaf + the concat join of this query's plan).
    ("exec.SegGenFilter.eval:raise", "raise", 7, "error"),
    ("exec.SegGenFilter.eval:raise@2", "skip", 0, "warning"),
    ("exec.SortMergeConcat.eval:crash", "skip", 0, "warning"),
    ("exec.SegGenFilter.eval:delay(0.001)", "raise", 0, "clean"),
    # aggregate lookups (fires only for indexed plans; harmless here).
    ("aggregate.lookup:raise", "raise", 0, "clean"),
]

#: Service-level chaos: each case self-hosts a query service via
#: ``repro loadgen --faults`` and gates the run with ``--check`` — the
#: fault must surface as a *structured* error family (admission) or be
#: absorbed by the retry path (worker), never as a transport error.
SERVICE_SWEEP = [
    # Two injected admission rejections: structured 429s, rest succeed.
    ("service.admission:raise@1*2", [], "admission-reject"),
    # One worker crash on the 2nd execution: retried transparently.
    ("service.worker:worker@2*1", ["--expect-retries"],
     "worker-crash-retry"),
]


def run_service_case(out_dir: str, fault: str, extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env.pop("TREX_FAULTS", None)  # loadgen sets it itself via --faults
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "loadgen", "--clients", "4",
         "--requests", "4", "--faults", fault, "--check",
         "--out", out_dir] + list(extra_args),
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300)
    report = None
    report_path = os.path.join(out_dir, "CHAOS_service_load.json")
    if os.path.exists(report_path):
        with open(report_path) as fh:
            report = json.load(fh)
    return proc, report, time.perf_counter() - t0


def check_service_case(name: str, proc, report) -> list:
    reasons = []
    if proc.returncode != 0:
        reasons.append(f"exit code {proc.returncode}, expected 0")
    if report is None:
        reasons.append("no CHAOS_service_load.json written")
        return reasons
    if report.get("unstructured_errors"):
        reasons.append(f"{report['unstructured_errors']} non-structured "
                       f"errors under fault injection")
    families = report.get("errors_by_family", {})
    if name == "admission-reject" and "admission" not in families:
        reasons.append("expected structured 'admission' rejections")
    if name == "worker-crash-retry" and not report.get("retried_requests"):
        reasons.append("expected at least one retried request")
    return reasons


def run_case(csv_path: str, fault: str, policy: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env["TREX_FAULTS"] = fault
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "query", "--csv", csv_path,
         "--query", QUERY, "--on-error", policy, "--limit", "5"],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120)
    return proc, time.perf_counter() - t0


def check(expectation: str, proc) -> str:
    """Return '' if the observed behaviour matches, else a reason."""
    stderr = proc.stderr
    error_lines = [ln for ln in stderr.splitlines()
                   if ln.startswith("error: ")]
    if expectation == "error":
        if not error_lines:
            return "expected a one-line 'error:' on stderr"
        if len(error_lines) != 1:
            return f"expected exactly one error line, got {len(error_lines)}"
    elif expectation == "fallback":
        if "fallback" not in stderr:
            return "expected a planner-fallback warning on stderr"
    elif expectation == "degraded":
        if "partial result" not in stderr:
            return "expected a partial-result warning on stderr"
    elif expectation == "warning":
        if "warning:" not in stderr:
            return "expected a degradation warning on stderr"
    elif expectation == "clean":
        if error_lines:
            return "expected a clean run, got an error line"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="chaos-artifacts",
                        help="directory for the JSON summary")
    args = parser.parse_args(argv)

    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
        fh.write(CSV)
        csv_path = fh.name
    cases = []
    failures = 0
    try:
        for fault, policy, want_code, expectation in SWEEP:
            proc, seconds = run_case(csv_path, fault, policy)
            reasons = []
            if proc.returncode != want_code:
                reasons.append(f"exit code {proc.returncode}, "
                               f"expected {want_code}")
            mismatch = check(expectation, proc)
            if mismatch:
                reasons.append(mismatch)
            ok = not reasons
            failures += not ok
            cases.append({
                "fault": fault, "on_error": policy,
                "expected_exit": want_code, "exit": proc.returncode,
                "expectation": expectation, "ok": ok,
                "reasons": reasons, "seconds": round(seconds, 3),
                "stderr": proc.stderr.strip().splitlines()[:5],
            })
            status = "ok " if ok else "FAIL"
            print(f"{status} [{policy:7s}] {fault:40s} "
                  f"exit={proc.returncode}")
    finally:
        os.unlink(csv_path)

    os.makedirs(args.out, exist_ok=True)
    with tempfile.TemporaryDirectory() as service_out:
        for fault, extra_args, name in SERVICE_SWEEP:
            proc, report, seconds = run_service_case(service_out, fault,
                                                     extra_args)
            reasons = check_service_case(name, proc, report)
            ok = not reasons
            failures += not ok
            cases.append({
                "fault": fault, "on_error": "service", "expectation": name,
                "expected_exit": 0, "exit": proc.returncode, "ok": ok,
                "reasons": reasons, "seconds": round(seconds, 3),
                "stderr": proc.stderr.strip().splitlines()[:5],
            })
            status = "ok " if ok else "FAIL"
            print(f"{status} [service] {fault:40s} "
                  f"exit={proc.returncode}")

    summary = {"query": QUERY, "total": len(cases), "failed": failures,
               "cases": cases}
    out_path = os.path.join(args.out, "CHAOS_summary.json")
    with open(out_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"\n{len(cases) - failures}/{len(cases)} chaos cases passed; "
          f"wrote {out_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
