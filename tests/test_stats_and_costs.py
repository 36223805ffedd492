"""Statistics sampling, plan pricing and NDCG scoring tests."""

import numpy as np
import pytest

from repro.bench.ndcg import dcg, ndcg_from_times
from repro.lang.query import compile_query
from repro.optimizer.planner import CostBasedPlanner
from repro.optimizer.rulebased import RuleBasedPlanner, RuleStrategy
from repro.optimizer.stats import (DEFAULT_REFERENCE_SELECTIVITY,
                                   StatsCatalog, collect_stats)
from repro.plan.logical import build_logical_plan

from tests.conftest import make_series

QUERY = """
ORDER BY tstamp
PATTERN ((DN & W) (UP & W)) & WINDOW
DEFINE SEGMENT W AS window(2, null),
  SEGMENT DN AS linear_reg_r2_signed(DN.tstamp, DN.val) <= -0.8,
  SEGMENT UP AS linear_reg_r2_signed(UP.tstamp, UP.val) >= 0.8,
  SEGMENT WINDOW AS window(1, 12)
"""


def series_list(count=3, n=50, seed=0):
    rng = np.random.default_rng(seed)
    return [make_series(np.cumsum(rng.normal(0, 1, n)) + 50)
            for _ in range(count)]


class TestCollectStats:
    def test_selectivities_in_range(self):
        query = compile_query(QUERY)
        stats = collect_stats(query, series_list())
        for name in ("DN", "UP"):
            assert 0 < stats.selectivity(name) <= 1
        assert stats.selectivity("W") == 1.0

    def test_monotone_with_threshold(self):
        strict = compile_query(QUERY.replace("0.8", "0.99"))
        loose = compile_query(QUERY.replace("0.8", "0.1"))
        data = series_list(seed=3)
        strict_stats = collect_stats(strict, data)
        loose_stats = collect_stats(loose, data)
        assert strict_stats.selectivity("UP") <= \
            loose_stats.selectivity("UP") + 0.05

    def test_reference_condition_gets_default(self):
        query = compile_query(
            "ORDER BY tstamp\nPATTERN (UP G X) & WIN\n"
            "DEFINE SEGMENT UP AS last(UP.val) > 1, SEGMENT G AS true,\n"
            "SEGMENT X AS corr(X.val, UP.val) > 0.5,\n"
            "SEGMENT WIN AS window(0, 20)")
        stats = collect_stats(query, series_list())
        assert stats.selectivity("X") == DEFAULT_REFERENCE_SELECTIVITY

    def test_avg_length_positive(self):
        query = compile_query(QUERY)
        stats = collect_stats(query, series_list())
        assert stats.avg_length("DN") >= 1

    def test_deterministic_for_seed(self):
        query = compile_query(QUERY)
        data = series_list()
        a = collect_stats(query, data, seed=9)
        b = collect_stats(query, data, seed=9)
        assert a.variables == b.variables

    def test_empty_series_list(self):
        query = compile_query(QUERY)
        stats = collect_stats(query, [])
        assert stats.series_length == 0

    def test_unknown_variable_defaults(self):
        catalog = StatsCatalog(series_length=100)
        assert catalog.selectivity("GHOST") == \
            DEFAULT_REFERENCE_SELECTIVITY
        assert catalog.avg_length("GHOST") == pytest.approx(25.0)

    def test_collection_time_recorded(self):
        query = compile_query(QUERY)
        stats = collect_stats(query, series_list())
        assert stats.collection_seconds > 0


class TestPrice:
    def priced(self, query, *plans):
        logical = build_logical_plan(query)
        planner = CostBasedPlanner()
        planner.optimize(query, logical, series_list())
        return [planner.price(RuleBasedPlanner(strategy, sharing=sharing)
                              .plan(query, logical))
                for strategy, sharing in plans]

    def test_costs_positive_and_distinct(self):
        pr_left, sm_left = self.priced(
            compile_query(QUERY), (RuleStrategy("left", "probe"), "on"),
            (RuleStrategy("left", "sm"), "on"))
        assert pr_left > 0 and sm_left > 0
        assert pr_left != sm_left

    def test_sharing_off_plan_costs_more_for_heavy_aggregates(self):
        indexed, direct = self.priced(
            compile_query(QUERY), (RuleStrategy("left", "sm"), "on"),
            (RuleStrategy("left", "sm"), "off"))
        assert indexed < direct


class TestNDCG:
    def test_perfect_agreement(self):
        costs = [1.0, 2.0, 3.0, 4.0]
        times = [0.1, 0.2, 0.3, 0.4]
        assert ndcg_from_times(costs, times) == pytest.approx(1.0)

    def test_reversed_is_low(self):
        costs = [4.0, 3.0, 2.0, 1.0]
        times = [0.1, 0.2, 0.3, 10.0]
        score = ndcg_from_times(costs, times)
        assert score < 0.9

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            costs = rng.uniform(1, 100, 6).tolist()
            times = rng.uniform(0.01, 10, 6).tolist()
            assert 0.0 <= ndcg_from_times(costs, times) <= 1.0

    def test_empty(self):
        assert ndcg_from_times([], []) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ndcg_from_times([1.0], [1.0, 2.0])

    def test_dcg_discounts(self):
        assert dcg([1.0, 0.0]) > dcg([0.0, 1.0])


class TestProfiler:
    def test_operator_weights_positive(self):
        from repro.optimizer.profiler import profile_operators
        weights = profile_operators(sizes=(80,))
        assert weights
        assert all(value >= 0 for value in weights.values())
        for name in ("SegGenWindow", "SortMergeConcat", "MaterializeNot"):
            assert name in weights

    def test_aggregate_weights(self):
        from repro.optimizer.profiler import profile_aggregates
        weights = profile_aggregates(names=["sum", "linear_regression_r2"],
                                     sizes=(80,))
        assert set(weights) == {"sum", "linear_regression_r2"}
        for w_ind, w_lookup, w_direct in weights.values():
            assert w_direct > 0

    def test_profile_all_returns_params(self):
        from repro.optimizer.cost_params import CostParams
        from repro.optimizer.profiler import profile_all
        params = profile_all(sizes=(60,))
        assert isinstance(params, CostParams)
        assert params.operator_weights["SegGenWindow"] > 0
