"""Plan/compile cache: keying guarantees and observability.

The cache (repro.core.plancache) may only serve a plan when *nothing*
the planner could have observed differs: the bound query (parameter
literals included), the planner and sharing mode, and a content
fingerprint of the data's sampled statistics.  These tests pin each
keying dimension with a must-miss case, plus the counter surfaces in
``QueryResult`` and the EXPLAIN ANALYZE banner.
"""

import numpy as np
import pytest

from repro.core.engine import TRexEngine
from repro.core.plancache import (PlanCache, params_fingerprint,
                                  series_fingerprint)
from repro.lang.query import compile_query
from repro.testing import faults
from repro.timeseries.table import Table

from tests.conftest import make_series

QUERY = """
    ORDER BY tstamp
    PATTERN (UP & WIN)
    DEFINE SEGMENT UP AS last(UP.val) > first(UP.val),
      SEGMENT WIN AS window(2, 5)
"""

PARAM_QUERY = """
    ORDER BY tstamp
    PATTERN (UP & WIN)
    DEFINE SEGMENT UP AS last(UP.val) - first(UP.val) > :delta,
      SEGMENT WIN AS window(2, 5)
"""


@pytest.fixture(autouse=True)
def clean_faults():
    faults.disarm_all()
    yield
    faults.disarm_all()


def series_list(seed=9, num_series=3, n=30):
    return [make_series(
        np.cumsum(np.random.default_rng(seed + i).normal(0, 1.0, n)) + 50,
        key=(f"s{i}",)) for i in range(num_series)]


class TestPlanKeying:
    def test_identical_query_and_data_hits(self):
        cache = PlanCache()
        engine = TRexEngine(plan_cache=cache)
        data = series_list()
        r1 = engine.execute_query(compile_query(QUERY), data)
        r2 = engine.execute_query(compile_query(QUERY), data)
        assert r1.plan_cache["plan"] == "miss"
        assert r2.plan_cache["plan"] == "hit"
        assert r1.matches_by_key() == r2.matches_by_key()
        assert cache.counters()["plan_hits"] == 1
        assert cache.counters()["plan_misses"] == 1

    def test_different_params_must_miss(self):
        cache = PlanCache()
        engine = TRexEngine(plan_cache=cache)
        data = series_list()
        r1 = engine.execute_query(
            compile_query(PARAM_QUERY, {"delta": 0.5}), data)
        r2 = engine.execute_query(
            compile_query(PARAM_QUERY, {"delta": 99.0}), data)
        assert r1.plan_cache["plan"] == "miss"
        assert r2.plan_cache["plan"] == "miss"
        # Same binding again does hit.
        r3 = engine.execute_query(
            compile_query(PARAM_QUERY, {"delta": 0.5}), data)
        assert r3.plan_cache["plan"] == "hit"

    def test_different_data_stats_must_miss(self):
        cache = PlanCache()
        engine = TRexEngine(plan_cache=cache)
        engine.execute_query(compile_query(QUERY), series_list(seed=9))
        r2 = engine.execute_query(compile_query(QUERY),
                                  series_list(seed=1234))
        assert r2.plan_cache["plan"] == "miss"

    def test_different_planner_or_sharing_must_miss(self):
        cache = PlanCache()
        data = series_list()
        TRexEngine(plan_cache=cache).execute_query(
            compile_query(QUERY), data)
        r2 = TRexEngine(optimizer="pr_left", plan_cache=cache) \
            .execute_query(compile_query(QUERY), data)
        assert r2.plan_cache["plan"] == "miss"
        r3 = TRexEngine(sharing="off", plan_cache=cache).execute_query(
            compile_query(QUERY), data)
        assert r3.plan_cache["plan"] == "miss"

    def test_shared_cache_across_engines_and_executors(self):
        cache = PlanCache()
        data = series_list()
        r1 = TRexEngine(plan_cache=cache).execute_query(
            compile_query(QUERY), data)
        r2 = TRexEngine(executor="process", workers=2, plan_cache=cache) \
            .execute_query(compile_query(QUERY), data)
        assert r1.plan_cache["plan"] == "miss"
        assert r2.plan_cache["plan"] == "hit"
        assert r1.matches_by_key() == r2.matches_by_key()

    def test_series_fingerprint_sees_content(self):
        a = make_series([1.0, 2.0, 3.0])
        b = make_series([1.0, 2.5, 3.0])  # same endpoints, different sum
        assert series_fingerprint(a) != series_fingerprint(b)
        assert series_fingerprint(a) == series_fingerprint(
            make_series([1.0, 2.0, 3.0]))

    def test_params_fingerprint_order_independent(self):
        assert params_fingerprint({"a": 1, "b": 2}) == \
            params_fingerprint({"b": 2, "a": 1})
        assert params_fingerprint({"a": 1}) != params_fingerprint(
            {"a": 2})
        assert params_fingerprint(None) == params_fingerprint({})


class TestCompileCache:
    def test_execute_path_memoizes_compilation(self):
        cache = PlanCache()
        engine = TRexEngine(plan_cache=cache)
        data = series_list(num_series=1)
        table = Table.from_series(data)
        engine.execute(table, QUERY)
        engine.execute(table, QUERY)
        counters = cache.counters()
        assert counters["compile_misses"] == 1
        assert counters["compile_hits"] == 1

    def test_plan_cache_true_builds_private_cache(self):
        engine = TRexEngine(plan_cache=True)
        assert isinstance(engine.plan_cache, PlanCache)
        assert TRexEngine(plan_cache=False).plan_cache is None
        assert TRexEngine().plan_cache is None


class TestEvictionAndReporting:
    def test_lru_eviction_is_bounded(self):
        cache = PlanCache(max_entries=2)
        engine = TRexEngine(plan_cache=cache)
        data = series_list()
        queries = [PARAM_QUERY] * 3
        for delta in (1.0, 2.0, 3.0):
            engine.execute_query(
                compile_query(queries[0], {"delta": delta}), data)
        # delta=1.0 was evicted; delta=3.0 is still cached.
        r_old = engine.execute_query(
            compile_query(PARAM_QUERY, {"delta": 1.0}), data)
        assert r_old.plan_cache["plan"] == "miss"
        r_new = engine.execute_query(
            compile_query(PARAM_QUERY, {"delta": 3.0}), data)
        assert r_new.plan_cache["plan"] == "hit"

    def test_metrics_dict_and_analyze_banner(self):
        cache = PlanCache()
        data = series_list()
        engine = TRexEngine(analyze=True, plan_cache=cache)
        engine.execute_query(compile_query(QUERY), data)
        result = engine.execute_query(compile_query(QUERY), data)
        metrics = result.metrics_dict()
        assert metrics["plan_cache"]["plan"] == "hit"
        assert metrics["plan_cache"]["plan_hits"] == 1
        first_line = result.plan_analyze.splitlines()[0]
        assert first_line.startswith(":: plan cache: hit")
        # Engines without a cache report nothing.
        bare = TRexEngine(analyze=True).execute_query(
            compile_query(QUERY), data)
        assert "plan_cache" not in bare.metrics_dict()
        assert ":: plan cache:" not in bare.plan_analyze

    def test_cached_fallback_plan_stays_visible(self):
        """A plan built via planner fallback re-reports the fallback
        reason on every cache hit."""
        cache = PlanCache()
        data = series_list()
        with faults.inject("planner.dp", action="plan"):
            r1 = TRexEngine(plan_cache=cache).execute_query(
                compile_query(QUERY), data)
        assert r1.planner_fallback is not None
        assert r1.plan_cache["plan"] == "miss"
        # No fault armed now: a hit must still surface the reason.
        r2 = TRexEngine(plan_cache=cache).execute_query(
            compile_query(QUERY), data)
        assert r2.plan_cache["plan"] == "hit"
        assert r2.planner_fallback == r1.planner_fallback

    def test_clear_resets_entries_not_counters(self):
        cache = PlanCache()
        engine = TRexEngine(plan_cache=cache)
        data = series_list()
        engine.execute_query(compile_query(QUERY), data)
        cache.clear()
        r = engine.execute_query(compile_query(QUERY), data)
        assert r.plan_cache["plan"] == "miss"
        assert cache.counters()["plan_misses"] == 2
