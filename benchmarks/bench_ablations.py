"""Ablation benchmarks for T-ReX's design choices (DESIGN.md §5).

Beyond the paper's own ablations (probe operators via T-ReX Batch,
computation sharing via Figure 22b), these isolate further design
choices the paper folds into the system:

* **window push-down** (logical rewrite rule 2) — disabling it leaves
  leaves unbounded and work explodes on padded patterns like cld_wave;
"""


from repro.core.engine import TRexEngine
from repro.exec.base import ExecContext
from repro.optimizer.rulebased import RuleBasedPlanner, RuleStrategy
from repro.plan.logical import build_logical_plan
from repro.plan.search_space import SearchSpace
from repro.queries import get_template

from conftest import once


def run_plan(plan, series_list, query):
    matches = 0
    stats_total = {}
    for series in series_list:
        ctx = ExecContext(series, query.registry)
        matches += len({seg.bounds for seg in plan.eval(
            ctx, SearchSpace.full(len(series)), {})})
        for key, value in ctx.stats.items():
            stats_total[key] = stats_total.get(key, 0) + value
    return matches, stats_total


def test_ablation_window_pushdown(benchmark):
    """cld_wave without push-down: pads lose their 30-day bound and the
    executor generates far more candidate segments.

    Runs on a deliberately tiny slice — without push-down the padding
    variables enumerate O(n^2) segments, which is exactly the explosion
    being demonstrated."""
    from repro.datasets import load
    template = get_template("cld_wave")
    table = load("weather", num_series=1, length=120)
    query = template.compile({"fall_diff": 18, "down_r2_min": 0.9})
    series_list = table.partition(query.partition_by, query.order_by)
    planner = RuleBasedPlanner(RuleStrategy("left", "probe"))

    pushed_plan = planner.plan(query, build_logical_plan(
        query, push_windows=True))
    unpushed_plan = planner.plan(query, build_logical_plan(
        query, push_windows=False))

    pushed_matches, pushed_stats = once(
        benchmark, lambda: run_plan(pushed_plan, series_list, query))
    unpushed_matches, unpushed_stats = run_plan(unpushed_plan, series_list,
                                                query)
    assert pushed_matches == unpushed_matches
    print(f"\nAblation push-down: "
          f"emitted with={pushed_stats.get('segments_emitted', 0)} "
          f"without={unpushed_stats.get('segments_emitted', 0)}")
    # Without push-down the executor must do at least as much work.
    assert unpushed_stats.get("segments_emitted", 0) >= \
        pushed_stats.get("segments_emitted", 0)


def test_ablation_probe_window_anchoring(benchmark, tables):
    """Probe search spaces are tightened by the window anchored at the
    known boundary; verify the probe count stays bounded by the windowed
    candidates rather than the whole series."""
    template = get_template("cld_wave")
    table = tables("weather")
    query = template.compile({"fall_diff": 18, "down_r2_min": 0.9})
    series_list = table.partition(query.partition_by, query.order_by)
    engine = TRexEngine(optimizer="cost", sharing="auto")
    result = once(benchmark,
                  lambda: engine.execute_query(query, series_list))
    n_total = sum(len(series) for series in series_list)
    print(f"\nprobe calls={result.stats.get('probe_calls', 0)} over "
          f"{n_total} points total")
    # Windowed anchoring keeps probes within a small multiple of the
    # series length (unbounded pads would square it).
    assert result.stats.get("probe_calls", 0) < n_total * 40
