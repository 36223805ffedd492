"""Experiment harness: the building blocks behind every table and figure.

Each ``run_*`` function reproduces one experiment family and returns plain
data structures; ``benchmarks/`` wraps them in pytest-benchmark targets and
``tools/run_experiments.py`` sweeps them at larger scales and renders the
tables recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import make_executor
from repro.core.engine import TRexEngine
from repro.errors import QueryTimeout, TRexError
from repro.lang.query import Query
from repro.optimizer.rulebased import (BASELINE_STRATEGIES,
                                       BASELINE_STRATEGIES_WITH_NOT)
from repro.plan.logical import build_logical_plan
from repro.queries.templates import QueryTemplate
from repro.timeseries.series import Series
from repro.timeseries.table import Table


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    """(seconds, result) of one call."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def cold(series_list: Sequence[Series]) -> Sequence[Series]:
    """The paper charges every competitor its own ``index()`` builds
    (§4.2) and statistics sampling (Table 7): forget what earlier runs
    left resident on the series."""
    for series in series_list:
        series.drop_derived()
    return series_list


def series_for(template: QueryTemplate, table: Table) -> List[Series]:
    query = template.compile(template.param_sets()[0])
    return table.partition(query.partition_by, query.order_by)


def run_query_all_series(query: Query, series_list: Sequence[Series],
                         executor_label: str,
                         sharing: bool = True) -> Tuple[float, int]:
    """(total seconds, total matches) for one executor over all series."""
    executor = make_executor(executor_label, query, sharing=sharing)
    t0 = time.perf_counter()
    total = 0
    for series in cold(series_list):
        total += len(executor.match_series(series))
    return time.perf_counter() - t0, total


# ---------------------------------------------------------------------------
# Table 4 — optimizer vs rule-based plan baselines
# ---------------------------------------------------------------------------

@dataclass
class OptimizerComparison:
    """Times per plan family for one query instance."""

    params: Dict[str, object]
    times: Dict[str, float]
    matches: Dict[str, int]

    def slowdowns(self) -> Dict[str, float]:
        finite = [t for t in self.times.values()
                  if t != float("inf")]
        fastest = max(min(finite), 1e-9) if finite else 1e-9
        return {label: t / fastest for label, t in self.times.items()}


def run_optimizer_comparison(template: QueryTemplate, table: Table,
                             param_sets: Optional[Sequence[dict]] = None,
                             include_not_variants: Optional[bool] = None,
                             timeout_seconds: Optional[float] = None) \
        -> List[OptimizerComparison]:
    """Run the optimizer and every rule baseline per parameter set.

    A strategy whose instance exceeds ``timeout_seconds`` is marked timed
    out (``math.inf``, mirroring the paper's 't.o.' cells) and skipped for
    the remaining instances.
    """
    import math

    if param_sets is None:
        param_sets = template.param_sets()
    if include_not_variants is None:
        include_not_variants = template.has_not
    strategies = BASELINE_STRATEGIES_WITH_NOT if include_not_variants \
        else BASELINE_STRATEGIES
    results: List[OptimizerComparison] = []
    timed_out: set = set()
    for params in param_sets:
        query = template.compile(params)
        series_list = table.partition(query.partition_by, query.order_by)
        times: Dict[str, float] = {}
        matches: Dict[str, int] = {}
        for strategy in strategies:
            if strategy.label in timed_out:
                times[strategy.label] = math.inf
                continue
            engine = TRexEngine(optimizer=strategy, sharing="on",
                                timeout_seconds=timeout_seconds)
            try:
                seconds, result = timed(
                    lambda e=engine: e.execute_query(query, cold(series_list)))
            except QueryTimeout:
                times[strategy.label] = math.inf
                timed_out.add(strategy.label)
                continue
            times[strategy.label] = seconds
            matches[strategy.label] = result.total_matches
            if timeout_seconds is not None and seconds > timeout_seconds:
                timed_out.add(strategy.label)
        engine = TRexEngine(optimizer="cost", sharing="auto")
        seconds, result = timed(
            lambda e=engine: e.execute_query(query, cold(series_list)))
        times["optimizer"] = seconds
        matches["optimizer"] = result.total_matches
        results.append(OptimizerComparison(dict(params), times, matches))
    return results


def median_slowdowns(comparisons: Sequence[OptimizerComparison]) \
        -> Dict[str, float]:
    """Table 4 cells: median slow-down over the fastest per instance."""
    labels = comparisons[0].times.keys()
    return {label: statistics.median(
        comparison.slowdowns()[label] for comparison in comparisons)
        for label in labels}


# ---------------------------------------------------------------------------
# Table 7 / Figures 11 & 23 — cost-model ranking quality
# ---------------------------------------------------------------------------

def run_ndcg(template: QueryTemplate, table: Table,
             param_sets: Optional[Sequence[dict]] = None,
             num_series: int = 5,
             timeout_seconds: Optional[float] = None) \
        -> Tuple[float, float, list]:
    """(NDCG score, median stats-collection seconds, per-plan points).

    The candidate plan list is the rule-based families of Section 6.2.3
    (the same physical plans Table 4 executes); each is costed by the
    optimizer's cost model via :class:`PlanCostEstimator` and then actually
    executed for its true time.
    """
    import numpy as np

    from repro.bench.ndcg import ndcg_from_times
    from repro.optimizer.plan_coster import PlanCostEstimator
    from repro.optimizer.rulebased import RuleBasedPlanner
    from repro.optimizer.stats import collect_stats

    if param_sets is None:
        param_sets = template.param_sets()
    strategies = BASELINE_STRATEGIES_WITH_NOT if template.has_not \
        else BASELINE_STRATEGIES
    costs: List[float] = []
    times: List[float] = []
    collection: List[float] = []
    points = []
    for params in param_sets:
        query = template.compile(params)
        series_list = table.partition(query.partition_by, query.order_by)
        logical = build_logical_plan(query)
        stats_seconds, stats = timed(
            lambda: collect_stats(query, cold(series_list),
                                  num_series=num_series))
        collection.append(stats_seconds)
        rng = np.random.default_rng(7)
        sample = series_list[int(rng.integers(0, len(series_list)))]
        estimator = PlanCostEstimator(stats, sample)
        for strategy in strategies:
            try:
                plan = RuleBasedPlanner(strategy, sharing="on").plan(
                    query, logical)
                estimated = estimator.estimate(plan)
            except TRexError:
                continue
            engine = TRexEngine(optimizer=strategy, sharing="on",
                                timeout_seconds=timeout_seconds)
            try:
                seconds, _ = timed(
                    lambda e=engine: e.execute_query(query, cold(series_list)))
            except QueryTimeout:
                # Rank a timed-out plan at the budget boundary.
                seconds = timeout_seconds
            costs.append(estimated)
            times.append(seconds)
            points.append((strategy.label, estimated, seconds))
    score = ndcg_from_times(costs, times)
    median_collection = statistics.median(collection) if collection else 0.0
    return score, median_collection, points


# ---------------------------------------------------------------------------
# Figure 12 / 22a — executor comparison
# ---------------------------------------------------------------------------

def run_executor_comparison(template: QueryTemplate, table: Table,
                            labels: Sequence[str],
                            param_sets: Optional[Sequence[dict]] = None,
                            sharing: bool = True,
                            time_budget: Optional[float] = None) \
        -> Dict[str, List[Tuple[dict, float, int]]]:
    """Per executor: list of (params, seconds, matches).

    ``time_budget`` bounds each executor *per instance* (hard deadline);
    an executor that times out is dropped from the remaining instances,
    mirroring the paper's time-outs.
    """
    if param_sets is None:
        param_sets = template.param_sets()
    results: Dict[str, List[Tuple[dict, float, int]]] = {
        label: [] for label in labels}
    dropped: set = set()
    for params in param_sets:
        query = template.compile(params)
        series_list = table.partition(query.partition_by, query.order_by)
        for label in labels:
            if label in dropped:
                continue
            executor = make_executor(label, query, sharing=sharing,
                                     timeout_seconds=time_budget)
            t0 = time.perf_counter()
            total = 0
            try:
                for series in cold(series_list):
                    total += len(executor.match_series(series))
            except QueryTimeout:
                dropped.add(label)
                continue
            seconds = time.perf_counter() - t0
            results[label].append((dict(params), seconds, total))
            if time_budget is not None and seconds > time_budget:
                dropped.add(label)
    return results


def median_speedups(results: Dict[str, List[Tuple[dict, float, int]]],
                    reference: str = "trex") -> Dict[str, float]:
    """Figure 22a: median speedup of the reference over each executor."""
    reference_times = {tuple(sorted(p.items())): t
                       for p, t, _ in results[reference]}
    speedups: Dict[str, float] = {}
    for label, rows in results.items():
        if label == reference:
            continue
        ratios = []
        for params, seconds, _ in rows:
            key = tuple(sorted(params.items()))
            if key in reference_times and reference_times[key] > 0:
                ratios.append(seconds / reference_times[key])
        if ratios:
            speedups[label] = statistics.median(ratios)
    return speedups


# ---------------------------------------------------------------------------
# Figure 22b — computation-sharing ablation
# ---------------------------------------------------------------------------

def run_sharing_ablation(template: QueryTemplate, table: Table,
                         labels: Sequence[str],
                         param_sets: Optional[Sequence[dict]] = None) \
        -> Dict[str, float]:
    """Median speedup of sharing-on over sharing-off per executor."""
    if param_sets is None:
        param_sets = template.param_sets()
    speedups: Dict[str, float] = {}
    for label in labels:
        ratios = []
        for params in param_sets:
            query = template.compile(params)
            series_list = table.partition(query.partition_by,
                                          query.order_by)
            on_seconds, on_matches = run_query_all_series(
                query, series_list, label, sharing=True)
            off_seconds, off_matches = run_query_all_series(
                query, series_list, label, sharing=False)
            assert on_matches == off_matches, (
                f"{label}: sharing changed results "
                f"({on_matches} vs {off_matches})")
            ratios.append(off_seconds / max(on_seconds, 1e-9))
        speedups[label] = statistics.median(ratios)
    return speedups


# ---------------------------------------------------------------------------
# Machine-readable metrics artifacts (BENCH_*.json)
# ---------------------------------------------------------------------------

def _json_safe(value):
    """Deep-copy ``value`` with non-finite floats replaced by ``None``.

    Timeout cells are ``math.inf`` internally; JSON has no representation
    for them, so artifacts store ``null``.
    """
    import math

    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def write_bench_artifact(out_dir: str, name: str, payload: dict) -> str:
    """Write one ``BENCH_<name>.json`` metrics artifact; returns its path.

    The payload is sanitized for JSON (``inf``/``nan`` become ``null``)
    and written with sorted keys so artifacts diff cleanly across runs.
    """
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(_json_safe(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_bench_smoke(out_dir: str, template_name: str = "v_shape",
                    num_series: int = 3, length: int = 60,
                    instances: int = 1,
                    timeout_seconds: Optional[float] = 30.0) -> str:
    """Downscaled benchmark smoke run; returns the artifact path.

    Runs the Table-4 optimizer comparison on a tiny instance of one
    template plus one EXPLAIN ANALYZE pass, and writes everything as a
    ``BENCH_smoke_<template>.json`` artifact — the CI smoke job uploads
    this so per-operator metrics are inspectable per commit.
    """
    from repro.datasets import load
    from repro.queries import get_template

    template = get_template(template_name)
    table = load(template.dataset, num_series=num_series, length=length)
    param_sets = template.param_sets()[:instances]
    comparisons = run_optimizer_comparison(
        template, table, param_sets=param_sets,
        timeout_seconds=timeout_seconds)

    query = template.compile(param_sets[0])
    series_list = table.partition(query.partition_by, query.order_by)
    engine = TRexEngine(optimizer="cost", sharing="auto", analyze=True)
    analyzed = engine.execute_query(query, series_list)

    payload = {
        "benchmark": "smoke",
        "template": template.name,
        "dataset": template.dataset,
        "num_series": num_series,
        "length": length,
        "comparisons": [
            {
                "params": comparison.params,
                "times": comparison.times,
                "matches": comparison.matches,
                "slowdowns": comparison.slowdowns(),
            }
            for comparison in comparisons
        ],
        "analyze": analyzed.metrics_dict(),
        "plan_analyze": analyzed.plan_analyze,
    }
    return write_bench_artifact(out_dir, f"smoke_{template.name}", payload)


def run_bench_parallel(out_dir: str, template_name: str = "v_shape",
                       num_series: int = 8, length: int = 200,
                       workers: int = 4, repeats: int = 3) -> str:
    """Serial-vs-parallel speedup benchmark; returns the artifact path.

    Runs one template instance over ``num_series`` partitions with the
    serial engine and with the process backend, asserts the
    results are identical, and records per-run wall times plus the
    speedup in ``BENCH_parallel_<template>.json``.  The recorded
    ``cpu_count`` qualifies the speedup: a single-core runner cannot
    show one regardless of backend (docs/PARALLELISM.md).

    ``template_name="many_series"`` swaps in the seeded selective-
    workload generator shared with :func:`run_bench_prefilter`
    (``repro.bench.dataset``), so parallel speedups can also be
    measured on a realistic fleet of mostly-calm series.
    """
    import os

    if template_name == "many_series":
        from repro.bench.dataset import many_series_table, selective_query
        table = many_series_table(num_series=num_series, length=length)
        query = selective_query()
        bench_name, dataset_name = "many_series", "many_series"
    else:
        from repro.datasets import load
        from repro.queries import get_template

        template = get_template(template_name)
        table = load(template.dataset, num_series=num_series, length=length)
        query = template.compile(template.param_sets()[0])
        bench_name, dataset_name = template.name, template.dataset
    series_list = table.partition(query.partition_by, query.order_by)

    def run(engine: TRexEngine) -> Tuple[List[float], object]:
        walls = []
        result = None
        for _ in range(repeats):
            result = engine.execute_query(query, series_list)
            walls.append(result.execution_wall_seconds)
        return walls, result

    serial_walls, serial_result = run(TRexEngine(executor="serial"))
    parallel_walls, parallel_result = run(
        TRexEngine(executor="process", workers=workers))
    assert serial_result.matches_by_key() == \
        parallel_result.matches_by_key(), \
        "process executor changed the match set"

    serial_best = min(serial_walls)
    parallel_best = min(parallel_walls)
    payload = {
        "benchmark": "parallel",
        "template": bench_name,
        "dataset": dataset_name,
        "num_series": num_series,
        "length": length,
        "executor": "process",
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "total_matches": serial_result.total_matches,
        "serial_wall_seconds": serial_walls,
        "parallel_wall_seconds": parallel_walls,
        "parallel_worker_seconds_sum": parallel_result.execution_seconds,
        "speedup": serial_best / max(parallel_best, 1e-9),
    }
    return write_bench_artifact(out_dir, f"parallel_{bench_name}",
                                payload)


def run_bench_prefilter(out_dir: str, num_series: int = 160,
                        length: int = 512, seed: int = 7,
                        anomaly_fraction: float = 0.05,
                        repeats: int = 3) -> str:
    """Prefilter on-vs-off speedup benchmark; returns the artifact path.

    Runs the selective spike query (``repro.bench.dataset``) over a
    seeded fleet of ``num_series`` mostly-calm series with the symbolic
    prefilter disabled and enabled, asserts both runs produce the
    identical match set (the no-false-dismissal contract,
    docs/PREFILTER.md), and records best-of-``repeats`` wall times, the
    speedup, and the enabled run's pruning counters in
    ``BENCH_prefilter.json``.  CI gates the speedup (≥5x) via ``repro
    bench --prefilter --min-speedup 5``.
    """
    from repro.bench.dataset import many_series_table, selective_query

    table = many_series_table(num_series=num_series, length=length,
                              seed=seed,
                              anomaly_fraction=anomaly_fraction)
    query = selective_query()
    series_list = table.partition(query.partition_by, query.order_by)

    def run(prefilter: bool) -> Tuple[List[float], object]:
        engine = TRexEngine(optimizer="cost", sharing="auto",
                            executor="serial", prefilter=prefilter)
        walls = []
        result = None
        for _ in range(repeats):
            result = engine.execute_query(query, series_list)
            walls.append(result.execution_wall_seconds)
        return walls, result

    off_walls, off_result = run(False)
    on_walls, on_result = run(True)
    assert off_result.matches_by_key() == on_result.matches_by_key(), \
        "prefilter changed the match set (false dismissal or phantom)"

    report = dict(on_result.prefilter or {})
    payload = {
        "benchmark": "prefilter",
        "dataset": "many_series",
        "num_series": num_series,
        "length": length,
        "seed": seed,
        "anomaly_fraction": anomaly_fraction,
        "repeats": repeats,
        "total_matches": on_result.total_matches,
        "off_wall_seconds": off_walls,
        "on_wall_seconds": on_walls,
        "speedup": min(off_walls) / max(min(on_walls), 1e-9),
        "prefilter": report,
    }
    return write_bench_artifact(out_dir, "prefilter", payload)


def run_bench_vector(out_dir: str, length: int = 20000,
                     window_hi: int = 60, repeats: int = 3) -> str:
    """Scalar-vs-vector leaf kernel benchmark; returns the artifact path.

    Four legs, each run with the ``vectorize`` hook off (scalar
    evaluator only) and on (the product default):

    * ``fig08_direct`` — a SegGenFilter leaf whose condition batches on
      the direct path (``max``/``min`` folds);
    * ``fig08_indexed`` — the paper's Fig. 8 condition: a SegGenIndexing
      leaf answering ``linear_reg_r2_signed(DN.tstamp, DN.val) <= -0.7``
      from the five prefix-sum lookups of Example 2;
    * ``fig08_small_space`` — the same leaf probed start by start on
      window-narrowed spaces of 1-8 candidates: the regime of Fig. 8b's
      crossover, where the default side must pick the scalar evaluator
      and so be no slower than the scalar side;
    * ``fig09_concat`` — an engine-level two-leaf concat (probe-heavy,
      small per-probe search spaces), recorded so probe workloads are
      shown not to regress — no speedup is expected here.

    Every leg asserts the two sides produce identical matches and stats
    before timing anything; the artifact records per-run wall times and
    the best-of-``repeats`` speedup per leg.  CI gates on the fig08
    legs (docs/VECTORIZATION.md).
    """
    import numpy as np

    from repro.exec.base import ExecContext
    from repro.exec.seggen import SegGenFilter, SegGenIndexing
    from repro.lang.parser import parse_condition
    from repro.lang.query import VarDef
    from repro.lang.windows import WindowSpec
    from repro.plan.search_space import SearchSpace

    t = np.arange(length, dtype=np.float64)
    values = np.sin(t * 0.05) * 2.0 + np.cos(t * 0.011)
    series = Series({"tstamp": t, "val": values},
                    order_column="tstamp", key=("bench",))

    def leaf(cls, cond_text):
        condition = parse_condition(cond_text)
        var = VarDef("DN", True, (WindowSpec.point(2, window_hi),),
                     condition, frozenset())
        return cls(var, var.window_conjunction)

    def run_leaf(op, vectorize, spaces=(SearchSpace.full(length),)):
        ctx = ExecContext(series, vectorize=vectorize)
        segments = [(s.start, s.end) for space in spaces
                    for s in op.eval(ctx, space, {})]
        return segments, ctx.stats

    def timed_leg(scalar_fn, vector_fn):
        s_out, s_stats = scalar_fn()
        v_out, v_stats = vector_fn()
        assert s_out == v_out, "vector path changed the result"
        assert s_stats == v_stats, "vector path changed the stats"
        scalar_walls = [timed(scalar_fn)[0] for _ in range(repeats)]
        vector_walls = [timed(vector_fn)[0] for _ in range(repeats)]
        return {
            "outputs": len(s_out),
            "scalar_wall_seconds": scalar_walls,
            "vector_wall_seconds": vector_walls,
            "speedup": min(scalar_walls) / max(min(vector_walls), 1e-9),
        }

    legs: Dict[str, dict] = {}
    direct_op = leaf(SegGenFilter, "max(DN.val) - min(DN.val) >= 1.0")
    legs["fig08_direct"] = timed_leg(
        lambda: run_leaf(direct_op, False),
        lambda: run_leaf(direct_op, True))

    indexed_op = leaf(SegGenIndexing,
                      "linear_reg_r2_signed(DN.tstamp, DN.val) <= -0.7")
    legs["fig08_indexed"] = timed_leg(
        lambda: run_leaf(indexed_op, False),
        lambda: run_leaf(indexed_op, True))

    # One probe per start, its end range cut to 1..8 admissible ends.
    probes = [SearchSpace(start, start, start + 2, start + 2 + start % 8)
              for start in range(0, length - 10)]
    legs["fig08_small_space"] = timed_leg(
        lambda: run_leaf(indexed_op, False, probes),
        lambda: run_leaf(indexed_op, True, probes))

    concat_table = Table({"tstamp": t, "val": values})
    concat_text = ("ORDER BY tstamp\nPATTERN (A B)\n"
                   "DEFINE SEGMENT A AS avg(A.val) > 0.25 "
                   "AND window(2, 20),\n"
                   "  SEGMENT B AS min(B.val) < 0.0 AND window(1, 10)")

    def run_concat(vectorize):
        result = TRexEngine(optimizer="cost", sharing="auto",
                            max_matches=20000,
                            vectorize=vectorize).execute(
                                concat_table, concat_text)
        return (tuple(result.per_series[0].matches),
                result.per_series[0].stats)

    legs["fig09_concat"] = timed_leg(lambda: run_concat(False),
                                     lambda: run_concat(True))

    payload = {
        "benchmark": "vector",
        "length": length,
        "window_hi": window_hi,
        "repeats": repeats,
        "legs": legs,
    }
    return write_bench_artifact(out_dir, "vector_kernels", payload)


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------

def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) \
        -> str:
    widths = [len(str(h)) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    def fmt(row):
        return "  ".join(str(cell).ljust(widths[i])
                         for i, cell in enumerate(row))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
