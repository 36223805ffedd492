"""The cost-based planner's selectivity sampling (optimizer/stats.py).

Each (variable, series) sample set is evaluated in one call on the leaf's
batch kernels, and each draw is kept on its ``Series``; neither may move
a statistic, so the catalog must equal the scalar loop's bit for bit,
cold or warm, under any deadline, fault or store bound
(docs/VECTORIZATION.md, "The planner's sampling").
"""

import time
from collections import Counter

import numpy as np
import pytest

import repro.optimizer.planner as planner_module
import repro.optimizer.stats as stats_module
import repro.timeseries.series as series_module
from repro.bench.runner import cold, run_ndcg, run_optimizer_comparison
from repro.core.engine import TRexEngine
from repro.datasets import load
from repro.errors import PlanningBudgetExceeded, QueryTimeout
from repro.exec import vector
from repro.exec.base import ExecContext
from repro.lang.query import compile_query
from repro.optimizer.planner import CostBasedPlanner
from repro.optimizer.stats import collect_stats
from repro.queries import get_template
from repro.queries.templates import ALL_TEMPLATES
from repro.testing import faults

from tests.conftest import make_series


def bound(name):
    template = get_template(name)
    return template.compile(template.param_sets()[0])


def series_of(name, num_series=3, length=80):
    template = get_template(name)
    query = bound(name)
    table = load(template.dataset, num_series=num_series, length=length)
    return query, table.partition(query.partition_by, query.order_by)


def catalog_bits(catalog):
    return (catalog.series_length, {
        name: (entry.selectivity.hex(), entry.avg_length.hex(),
               entry.samples)
        for name, entry in catalog.variables.items()})


def sample_keys(series):
    return [key for key in series._derived
            if isinstance(key, tuple) and key[0] == "stats.sample"]


def rising(k, lo=2):
    return compile_query(
        "ORDER BY tstamp\nPATTERN A\nDEFINE SEGMENT A AS "
        f"last(A.val) > first(A.val) AND window({lo}, {k})")


def walk(n=200, seed=3):
    return np.cumsum(np.random.default_rng(seed).normal(0, 1.0, n)) + 50


class Clock:
    """``perf_counter`` for the sampler alone, jumping an hour ahead
    from its ``expire_at``-th reading on."""

    def __init__(self, expire_at):
        self.expire_at = expire_at
        self.readings = 0

    def perf_counter(self):
        self.readings += 1
        now = time.perf_counter()
        return now + 3600.0 if self.readings >= self.expire_at else now


# ---------------------------------------------------------------------------
# Parity: batch kernels vs the scalar loop, cold vs warm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda t: t.name)
@pytest.mark.parametrize("use_index", [True, False])
def test_batch_sampling_equals_the_scalar_loop(template, use_index):
    query, series_list = series_of(template.name)
    scalar = collect_stats(query, series_list, use_index=use_index,
                           vectorize=False)
    for series in series_list:
        series.drop_derived()
    batch = collect_stats(query, series_list, use_index=use_index)
    warm = collect_stats(query, series_list, use_index=use_index)
    assert catalog_bits(batch) == catalog_bits(scalar)
    assert catalog_bits(warm) == catalog_bits(scalar)


def test_the_batch_path_is_taken(monkeypatch):
    taken = Counter()
    real = vector.count_matches

    def counting(*args):
        passed = real(*args)
        taken["batch" if passed is not None else "scalar"] += 1
        return passed

    monkeypatch.setattr(vector, "count_matches", counting)
    query, series_list = series_of("v_shape")
    collect_stats(query, series_list)
    assert taken == Counter(batch=2 * len(series_list))
    taken.clear()
    collect_stats(query, series_list, vectorize=False)
    assert taken == Counter(scalar=2 * len(series_list))


def test_engine_threads_vectorize_to_the_sampler(monkeypatch):
    seen = []
    real = planner_module.collect_stats

    def recording(*args, **kwargs):
        seen.append(kwargs["vectorize"])
        return real(*args, **kwargs)

    monkeypatch.setattr(planner_module, "collect_stats", recording)
    query, series_list = series_of("limit_sell")
    for vectorize in (True, False):
        TRexEngine(vectorize=vectorize, executor="serial").execute_query(
            query, series_list)
    assert seen == [True, False]


def test_a_hit_restores_the_generator_stream():
    series = make_series(walk())
    var = rising(9).variables["A"]
    rngs = [np.random.default_rng(11) for _ in range(2)]
    first = stats_module._draw(series, var, rngs[0], 64, None, None)
    again = stats_module._draw(series, var, rngs[1], 64, None, None)
    assert len(sample_keys(series)) == 1
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert rngs[0].integers(0, 1 << 30) == rngs[1].integers(0, 1 << 30)


# ---------------------------------------------------------------------------
# Budget and fault contract
# ---------------------------------------------------------------------------

def test_planning_budget_mid_sampling_falls_back(monkeypatch):
    query, series_list = series_of("v_shape")
    clean = TRexEngine(executor="serial").execute_query(query, series_list)
    clock = Clock(expire_at=3)
    monkeypatch.setattr(stats_module, "time", clock)
    result = TRexEngine(planning_timeout_seconds=60.0, executor="serial") \
        .execute_query(query, series_list)
    assert clock.readings >= 3
    assert "PlanningBudgetExceeded" in result.planner_fallback
    assert "selectivity sampling" in result.planner_fallback
    assert "pr_left" in result.planner_fallback
    assert result.matches_by_key() == clean.matches_by_key()


@pytest.mark.parametrize("on_error", ["raise", "partial"])
def test_query_deadline_mid_sampling_is_a_timeout(monkeypatch, on_error):
    query, series_list = series_of("v_shape")
    monkeypatch.setattr(stats_module, "time", Clock(expire_at=3))
    engine = TRexEngine(timeout_seconds=60.0, on_error=on_error,
                        executor="serial")
    if on_error == "raise":
        with pytest.raises(QueryTimeout, match="selectivity sampling"):
            engine.execute_query(query, series_list)
        return
    result = engine.execute_query(query, series_list)
    assert result.interrupted and result.planner_fallback is None
    assert result.degradation.startswith("timeout")
    assert result.total_matches == 0


def test_an_armed_lookup_fault_fires_during_sampling():
    query, series_list = series_of("v_shape")
    ctx = ExecContext(series_list[0], query.registry)
    starts = ends = np.arange(3, dtype=np.int64)
    assert vector.count_matches(ctx, query.variables["DN"], "indexed",
                                starts, ends + 5) is not None
    try:
        with faults.inject("aggregate.lookup", times=1) as spec:
            assert vector.count_matches(ctx, query.variables["DN"],
                                        "indexed", starts, ends) is None
            result = TRexEngine(executor="serial").execute_query(
                query, series_list)
    finally:
        faults.disarm_all()
    assert spec.fired == 1
    assert "InjectedFault" in result.planner_fallback


def test_a_draw_interrupted_by_its_deadline_stores_nothing(monkeypatch):
    query = rising(40)
    series = make_series(walk(60))
    # Readings: collect_stats' start, the per-series check, then the
    # draw's own check after 16 attempts -- which expires.
    monkeypatch.setattr(stats_module, "time", Clock(expire_at=3))
    with pytest.raises(PlanningBudgetExceeded):
        collect_stats(query, [series],
                      planning_deadline=time.perf_counter() + 60.0)
    assert not sample_keys(series)
    monkeypatch.undo()
    assert catalog_bits(collect_stats(query, [series])) == \
        catalog_bits(collect_stats(query, [make_series(walk(60))]))


# ---------------------------------------------------------------------------
# Memory honesty
# ---------------------------------------------------------------------------

def plan_bits(query, series):
    planner = CostBasedPlanner()
    explain = planner.plan(query, None, [series]).explain()
    return explain, catalog_bits(planner.last_stats)


def test_the_sample_store_is_bounded_and_eviction_is_invisible(monkeypatch):
    cap = 16 << 10
    monkeypatch.setattr(series_module, "DERIVED_BYTES_CAP", cap)
    shared = make_series(walk(600))
    for k in range(3, 503):                  # 500 distinct window bounds
        plan_bits(rising(k), shared)
        assert shared._derived_bytes <= cap
    kept = sample_keys(shared)
    assert 0 < len(kept) < 500               # evictions happened
    assert shared._derived_bytes == sum(
        series_module.resident_bytes(value)
        + series_module.DERIVED_ENTRY_BYTES
        for value, _ in shared._derived.values())
    for k in (3, 250, 502):                  # evicted, evicted, resident
        assert plan_bits(rising(k), shared) == \
            plan_bits(rising(k), make_series(walk(600)))
    # Windows longer than the series draw nothing, yet each empty draw
    # is an entry and is charged like one: the count stays bounded.
    short = make_series(walk(40))
    for k in range(50, 350):
        plan_bits(rising(k, lo=k), short)
        assert short._derived_bytes <= cap
    assert 0 < len(sample_keys(short)) <= \
        cap // series_module.DERIVED_ENTRY_BYTES
    assert plan_bits(rising(50, lo=50), short) == \
        plan_bits(rising(50, lo=50), make_series(walk(40)))


def test_paper_comparisons_pay_their_own_sampling(monkeypatch):
    draws = Counter()
    real = stats_module._sample_segments

    def counting(*args):
        draws["draws"] += 1
        return real(*args)

    monkeypatch.setattr(stats_module, "_sample_segments", counting)
    template = get_template("limit_sell")
    table = load(template.dataset, num_series=2, length=40)
    params = template.param_sets()[0]
    for harness in (run_optimizer_comparison, run_ndcg):
        per_call = []
        for param_sets in ([params], [params, params]):
            draws.clear()
            harness(template, table, param_sets=param_sets)
            per_call.append(draws["draws"])
        assert per_call[0] > 0 and per_call[1] == 2 * per_call[0]
    series_list = table.partition(["ticker"], "tstamp")
    collect_stats(bound("limit_sell"), series_list)
    assert any(sample_keys(series) for series in series_list)
    assert not any(sample_keys(series) for series in cold(series_list))
