"""Aggregate tests: direct evaluation, indexes, registry, properties."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.base import Aggregate
from repro.aggregates.correlation import Correlation
from repro.aggregates.linreg import (LinearRegressionR2,
                                     LinearRegressionR2Signed)
from repro.aggregates.mann_kendall import MannKendallTest, mann_kendall_z
from repro.aggregates.outlier import ZScoreOutlier
from repro.aggregates.prefix import PrefixSums, SparseTable
from repro.aggregates.registry import DEFAULT_REGISTRY, AggregateRegistry
from repro.aggregates.ticks import EqualUpDownTicks
from repro.errors import AggregateError

floats = st.floats(min_value=-100, max_value=100, allow_nan=False,
                   allow_infinity=False)
value_lists = st.lists(floats, min_size=2, max_size=40)


class TestPrefixSums:
    def test_range_sum(self):
        sums = PrefixSums(np.asarray([1.0, 2.0, 3.0, 4.0]))
        assert sums.range_sum(1, 2) == 5.0
        assert sums.range_sum(0, 3) == 10.0

    def test_range_mean(self):
        sums = PrefixSums(np.asarray([2.0, 4.0, 6.0]))
        assert sums.range_mean(0, 2) == 4.0

    @given(value_lists)
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy(self, values):
        arr = np.asarray(values)
        sums = PrefixSums(arr)
        for start in range(0, len(arr), max(len(arr) // 4, 1)):
            for end in range(start, len(arr), max(len(arr) // 4, 1)):
                assert sums.range_sum(start, end) == pytest.approx(
                    float(np.sum(arr[start:end + 1])), abs=1e-6)


class TestSparseTable:
    @given(value_lists, st.sampled_from(["min", "max"]))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy(self, values, mode):
        arr = np.asarray(values)
        table = SparseTable(arr, mode)
        reducer = np.min if mode == "min" else np.max
        for start in range(len(arr)):
            end = min(start + 5, len(arr) - 1)
            assert table.query(start, end) == pytest.approx(
                float(reducer(arr[start:end + 1])))


class TestLinearRegression:
    def test_perfect_fit(self):
        agg = LinearRegressionR2()
        x = np.arange(10.0)
        y = 3 * x + 1
        assert agg.evaluate([x, y], []) == pytest.approx(1.0)

    def test_signed_direction(self):
        agg = LinearRegressionR2Signed()
        x = np.arange(10.0)
        assert agg.evaluate([x, -2 * x], []) == pytest.approx(-1.0)
        assert agg.evaluate([x, 2 * x], []) == pytest.approx(1.0)

    def test_constant_series_is_zero(self):
        agg = LinearRegressionR2()
        x = np.arange(5.0)
        assert agg.evaluate([x, np.ones(5)], []) == 0.0

    def test_single_point_is_zero(self):
        agg = LinearRegressionR2()
        assert agg.evaluate([np.asarray([1.0]), np.asarray([2.0])], []) == 0.0

    @given(value_lists)
    @settings(max_examples=40, deadline=None)
    def test_index_matches_direct(self, values):
        agg = LinearRegressionR2Signed()
        x = np.arange(float(len(values)))
        y = np.asarray(values)
        index = agg.build_index([x, y], [])
        for start in range(0, len(values) - 1, max(len(values) // 5, 1)):
            end = min(start + 7, len(values) - 1)
            direct = agg.evaluate([x[start:end + 1], y[start:end + 1]], [])
            # Prefix-sum moments trade a little precision for O(1) lookups
            # (catastrophic cancellation on near-constant data).
            assert index.lookup(start, end) == pytest.approx(direct,
                                                             abs=5e-3)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: the prefix-sum moments cancel catastrophically "
        "after a large prefix; the index reads -0.7705, direct -0.75"))
    def test_index_matches_direct_after_large_prefix(self):
        agg = LinearRegressionR2Signed()
        x = np.arange(5.0)
        y = np.asarray([80.0, 100.0, 1e-5, 0.0, 0.0])
        index = agg.build_index([x, y], [])
        direct = agg.evaluate([x[2:], y[2:]], [])
        assert index.lookup(2, 4) == pytest.approx(direct, abs=5e-3)

    def test_r2_bounded(self):
        agg = LinearRegressionR2()
        rng = np.random.default_rng(0)
        x = rng.normal(size=30)
        x.sort()
        y = rng.normal(size=30)
        value = agg.evaluate([x, y], [])
        assert 0.0 <= value <= 1.0


class TestMannKendall:
    def test_monotone_up_is_positive(self):
        values = np.arange(20.0)
        assert mann_kendall_z(values) > 3.0

    def test_monotone_down_is_negative(self):
        assert mann_kendall_z(np.arange(20.0)[::-1]) < -3.0

    def test_short_series_zero(self):
        assert mann_kendall_z(np.asarray([1.0])) == 0.0

    @given(value_lists)
    @settings(max_examples=30, deadline=None)
    def test_index_matches_direct(self, values):
        agg = MannKendallTest()
        arr = np.asarray(values)
        index = agg.build_index([arr], [])
        for start in range(0, len(arr), max(len(arr) // 4, 1)):
            end = min(start + 8, len(arr) - 1)
            direct = agg.evaluate([arr[start:end + 1]], [])
            assert index.lookup(start, end) == pytest.approx(direct,
                                                             abs=1e-9)

    def test_materialize_all(self):
        agg = MannKendallTest()
        arr = np.arange(12.0)
        index = agg.build_index([arr], [])
        index.materialize_all()
        assert index.lookup(0, 11) > 3.0


class TestZScoreOutlier:
    def test_detects_spike(self):
        agg = ZScoreOutlier()
        values = np.concatenate([np.zeros(10) + np.linspace(0, 0.1, 10),
                                 [5.0]])
        score = agg.evaluate_with_context(values, 10, 10, [10])
        assert score > 3.0

    def test_no_context_is_zero(self):
        agg = ZScoreOutlier()
        assert agg.evaluate_with_context(np.asarray([1.0, 2.0]), 1, 1,
                                         [5]) == 0.0

    def test_constant_context_is_zero(self):
        agg = ZScoreOutlier()
        values = np.asarray([1.0] * 8 + [9.0])
        assert agg.evaluate_with_context(values, 8, 8, [5]) == 0.0

    def test_multi_point_segment_rejected(self):
        agg = ZScoreOutlier()
        with pytest.raises(AggregateError):
            agg.evaluate_with_context(np.zeros(10), 3, 5, [4])

    def test_small_context_rejected(self):
        agg = ZScoreOutlier()
        with pytest.raises(AggregateError):
            agg.evaluate_with_context(np.zeros(10), 5, 5, [1])

    def test_plain_evaluate_rejected(self):
        with pytest.raises(AggregateError):
            ZScoreOutlier().evaluate([np.zeros(3)], [2])


class TestCorrelation:
    def test_perfect(self):
        agg = Correlation()
        a = np.arange(10.0)
        assert agg.evaluate([a, 2 * a + 3], []) == pytest.approx(1.0)

    def test_anti(self):
        agg = Correlation()
        a = np.arange(10.0)
        assert agg.evaluate([a, -a], []) == pytest.approx(-1.0)

    def test_unequal_lengths_use_prefix(self):
        agg = Correlation()
        a = np.arange(10.0)
        b = np.arange(6.0)
        assert agg.evaluate([a, b], []) == pytest.approx(1.0)

    def test_constant_is_zero(self):
        agg = Correlation()
        assert agg.evaluate([np.ones(5), np.arange(5.0)], []) == 0.0

    def test_too_short_is_zero(self):
        agg = Correlation()
        assert agg.evaluate([np.asarray([1.0]), np.asarray([2.0])], []) == 0.0


class TestEqualUpDownTicks:
    def test_balanced(self):
        agg = EqualUpDownTicks()
        assert agg.evaluate([np.asarray([1.0, 2.0, 1.0])], []) == 1.0

    def test_unbalanced(self):
        agg = EqualUpDownTicks()
        assert agg.evaluate([np.asarray([1.0, 2.0, 3.0])], []) == 0.0

    def test_flat_ticks_ignored(self):
        agg = EqualUpDownTicks()
        assert agg.evaluate([np.asarray([1.0, 1.0, 1.0])], []) == 1.0

    @given(value_lists)
    @settings(max_examples=30, deadline=None)
    def test_index_matches_direct(self, values):
        agg = EqualUpDownTicks()
        arr = np.asarray(values)
        index = agg.build_index([arr], [])
        for start in range(0, len(arr), max(len(arr) // 4, 1)):
            end = min(start + 6, len(arr) - 1)
            assert index.lookup(start, end) == agg.evaluate(
                [arr[start:end + 1]], [])


class TestBasicAggregates:
    @pytest.mark.parametrize("name,expected", [
        ("sum", 10.0), ("avg", 2.5), ("count", 4.0), ("min", 1.0),
        ("max", 4.0),
    ])
    def test_direct(self, name, expected):
        agg = DEFAULT_REGISTRY.get(name)
        assert agg.evaluate([np.asarray([1.0, 2.0, 3.0, 4.0])], []) == \
            expected

    @pytest.mark.parametrize("name", ["sum", "avg", "count", "min", "max",
                                      "stddev"])
    @given(values=value_lists)
    @settings(max_examples=20, deadline=None)
    def test_index_matches_direct(self, name, values):
        agg = DEFAULT_REGISTRY.get(name)
        arr = np.asarray(values)
        index = agg.build_index([arr], [])
        for start in range(0, len(arr), max(len(arr) // 3, 1)):
            end = min(start + 5, len(arr) - 1)
            assert index.lookup(start, end) == pytest.approx(
                agg.evaluate([arr[start:end + 1]], []), abs=5e-3)


class TestRegistry:
    def test_builtins_present(self):
        for name in ["linear_regression_r2", "mann_kendall_test", "corr",
                     "zscore_outlier", "equal_up_down_ticks", "sum"]:
            assert name in DEFAULT_REGISTRY

    def test_alias_resolution(self):
        assert DEFAULT_REGISTRY.get("linear_reg_r2") is \
            DEFAULT_REGISTRY.get("linear_regression_r2")
        assert DEFAULT_REGISTRY.get("mann_kandall_test") is \
            DEFAULT_REGISTRY.get("mann_kendall_test")

    def test_case_insensitive(self):
        assert DEFAULT_REGISTRY.get("SUM").name == "sum"

    def test_unknown_raises(self):
        with pytest.raises(AggregateError):
            DEFAULT_REGISTRY.get("nope")

    def test_lookup_returns_none(self):
        assert DEFAULT_REGISTRY.lookup("nope") is None

    def test_duplicate_registration_rejected(self):
        registry = AggregateRegistry()
        registry.register(Correlation())
        with pytest.raises(AggregateError):
            registry.register(Correlation())

    def test_user_defined_aggregate(self):
        class Spread(Aggregate):
            name = "spread"
            direct_cost_shape = "L"

            def evaluate(self, arrays, extra):
                (values,) = arrays
                return float(np.max(values) - np.min(values))

        registry = AggregateRegistry()
        registry.register(Spread())
        assert registry.get("spread").evaluate(
            [np.asarray([1.0, 5.0])], []) == 4.0

    def test_invalid_cost_shape_rejected(self):
        class Bad(Aggregate):
            name = "bad"
            direct_cost_shape = "X"

            def evaluate(self, arrays, extra):
                return 0.0

        with pytest.raises(AggregateError):
            AggregateRegistry().register(Bad())

    def test_unnamed_rejected(self):
        class NoName(Aggregate):
            def evaluate(self, arrays, extra):
                return 0.0

        with pytest.raises(AggregateError):
            AggregateRegistry().register(NoName())

    def test_validate_call(self):
        agg = DEFAULT_REGISTRY.get("corr")
        with pytest.raises(AggregateError):
            agg.validate_call(1, 0)
        agg.validate_call(2, 0)

    def test_non_indexable_build_rejected(self):
        with pytest.raises(AggregateError):
            Correlation().build_index([np.zeros(3), np.zeros(3)], [])

    def test_non_numeric_rejected(self):
        agg = DEFAULT_REGISTRY.get("sum")
        with pytest.raises(AggregateError):
            agg.evaluate([np.asarray(["a", "b"], dtype=object)], [])
