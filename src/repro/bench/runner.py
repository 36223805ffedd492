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
