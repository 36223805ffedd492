"""Metric assembly, the run record and the printed tables."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent


def load_contract() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: always an observed value."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mib(include_children: bool) -> float:
    """Max RSS of this process (plus the largest waited-for child)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end(samples: List[dict], wall_seconds: float,
               setup_seconds: List[float], include_children: bool,
               clean_shutdown: bool = True) -> dict:
    """The seven end-to-end metrics from one run's timed samples.

    A sample is ``{"op", "seconds", "ok", "digest_ok"}``; a failed
    operation still counts as attempted and keeps its latency in the
    percentiles (it took that long to fail).  ``clean_shutdown`` is the
    serve runner's verdict on the books and the child's exit code.
    """
    times = [s["seconds"] for s in samples]
    failed = sum(1 for s in samples if not s["ok"])
    n = len(samples)
    return {
        "setup_s": metric(statistics.median(setup_seconds), "s",
                          setups=len(setup_seconds)),
        "query_p50_ms": metric(statistics.median(times) * 1e3, "ms",
                               samples=n),
        "query_p90_ms": metric(percentile(times, 90) * 1e3, "ms",
                               samples=n, beyond=n - math.ceil(0.9 * n)),
        "queries_per_s": metric((n - failed) / wall_seconds, "1/s",
                                operations=n),
        "failed_share": metric(failed / n, "ratio", failed=failed,
                               attempted=n),
        "peak_rss_mb": metric(peak_rss_mib(include_children), "MiB"),
        "match_digest_ok": metric(
            int(clean_shutdown and all(s["digest_ok"] for s in samples)),
            "0/1"),
    }


def run_record(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    import numpy

    def git_sha() -> Optional[str]:
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpu_model": cpu or platform.processor() or None,
            "platform": platform.platform(), "seed": seed,
            "argv": sys.argv[1:]}


def sizes(workload: dict) -> dict:
    return {"operations_per_pass": len(workload["operations"]),
            "tables": {name: table_spec["args"]
                       for name, table_spec in workload["tables"].items()}}


def print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    print(f"\n== {title}")
    for name, entry in metrics.items():
        value = entry["value"]
        if value is None:
            shown = f"null ({entry.get('reason', 'not measured')})"
        elif isinstance(value, float):
            shown = f"{value:.6g}"
        else:
            shown = str(value)
        notes = ", ".join(f"{k}={v}" for k, v in entry.items()
                          if k not in ("value", "unit", "reason"))
        print(f"  {name:40s} {shown:>14s} {entry['unit']:6s}"
              f"{'  (' + notes + ')' if notes else ''}")


def contract_line(correct: bool, attempted: int, failed: int,
                  metrics: Dict[str, dict], names: List[str]) -> str:
    """The driver's result line: exactly the named metrics, numbers only
    (a metric that could not be measured on this workload reads 0)."""
    out = {}
    for name in names:
        entry = metrics[name]
        value = entry["value"]
        out[name] = {"value": 0.0 if value is None else value,
                     "unit": entry["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out})
