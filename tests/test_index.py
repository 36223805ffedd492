"""Symbolic summary index tests (src/repro/index, docs/PREFILTER.md)."""

import numpy as np
import pytest

from repro.errors import DataError
from collections import Counter

from repro.index.summary import (DEFAULT_BLOCK_SIZE, SYMBOLS,
                                 SeriesSummary, _block_extremes,
                                 build_summary, summary_for)
from repro.timeseries.series import Series

from tests.conftest import make_series


class TestBuildSummary:
    def test_block_bounds_bracket_exact_extremes(self, rng):
        values = rng.normal(0, 10.0, 500)
        series = make_series(values)
        summary = build_summary(series, block_size=16)
        col = summary.column("val")
        exact_lo, exact_hi, empty = _block_extremes(values, 16)
        assert not empty.any()
        assert np.all(col.block_lo <= exact_lo)
        assert np.all(col.block_hi >= exact_hi)
        assert col.symbols_lo.dtype == np.uint8

    def test_validate_passes_on_fresh_summary(self, rng):
        series = make_series(rng.normal(5, 2.0, 300))
        build_summary(series, block_size=32).validate(series)

    def test_validate_catches_corrupted_bound(self, rng):
        series = make_series(rng.normal(0, 1.0, 128))
        summary = build_summary(series, block_size=32)
        summary.column("val").block_lo[1] = 1e9
        with pytest.raises(DataError, match="lower envelope"):
            summary.validate(series)

    def test_validate_catches_stale_length(self):
        summary = build_summary(make_series([1.0, 2.0, 3.0]))
        with pytest.raises(DataError, match="stale"):
            summary.validate(make_series([1.0, 2.0, 3.0, 4.0]))

    def test_nan_values_excluded_from_envelope(self):
        values = [1.0, np.nan, 3.0, np.nan]
        summary = build_summary(make_series(values), block_size=2)
        col = summary.column("val")
        assert col.global_lo == 1.0 and col.global_hi == 3.0
        assert col.finite_count == 2

    def test_all_nan_block_marked_empty(self):
        values = [1.0, 2.0, np.nan, np.nan]
        col = build_summary(make_series(values),
                            block_size=2).column("val")
        assert list(col.block_empty) == [False, True]
        mask = col.blocks_possible(-np.inf, np.inf, False, False)
        assert list(mask) == [True, False]

    def test_flat_column_uses_exact_mode(self):
        col = build_summary(make_series([7.0] * 130),
                            block_size=64).column("val")
        assert col.exact
        assert np.all(col.block_lo == 7.0)
        assert np.all(col.block_hi == 7.0)

    def test_object_column_unsupported(self):
        series = make_series([1.0, 2.0],
                             extra={"tag": np.asarray(["a", "b"],
                                                      dtype=object)})
        col = build_summary(series).column("tag")
        assert not col.supported
        assert col.blocks_possible(0.0, 1.0, False, False).all()
        assert col.interval_possible(0.0, 1.0, False, False)

    def test_bad_block_size_rejected(self):
        with pytest.raises(DataError):
            build_summary(make_series([1.0]), block_size=0)

    def test_num_blocks_is_ceiling(self):
        summary = build_summary(make_series(np.arange(65.0)),
                                block_size=64)
        assert summary.num_blocks == 2
        assert summary.block_range(1) == (64, 64)


class TestIntervalProbes:
    def test_global_envelope_excludes_impossible_interval(self, rng):
        col = build_summary(
            make_series(rng.uniform(10.0, 20.0, 200))).column("val")
        assert not col.interval_possible(30.0, 40.0, False, False)
        assert col.interval_possible(15.0, 16.0, False, False)

    def test_open_endpoints_exclude_boundary(self):
        col = build_summary(make_series([5.0, 5.0])).column("val")
        assert col.interval_possible(5.0, 9.0, False, False)
        assert not col.interval_possible(5.0, 9.0, True, False)
        assert not col.interval_possible(0.0, 5.0, False, True)

    def test_blocks_possible_is_sound(self, rng):
        values = rng.normal(0, 5.0, 640)
        col = build_summary(make_series(values),
                            block_size=64).column("val")
        lo, hi = 4.0, 6.0
        mask = col.blocks_possible(lo, hi, False, False)
        for k in range(col.num_blocks):
            block = values[k * 64:(k + 1) * 64]
            has_witness = bool(np.any((block >= lo) & (block <= hi)))
            if has_witness:            # excluded block ⇒ provably none
                assert mask[k]

    def test_no_finite_values_means_nothing_possible(self):
        col = build_summary(
            make_series([np.nan, np.nan])).column("val")
        assert not col.interval_possible(-np.inf, np.inf, False, False)


class TestCache:
    """The summary is resident on its series (``Series.derived``)."""

    def test_summary_cached_per_series(self, rng):
        series = make_series(rng.normal(0, 1.0, 100))
        counts = Counter()
        first = summary_for(series, counters=counts)
        second = summary_for(series, counters=counts)
        assert first is second
        assert counts["index_built"] == 1
        assert counts["index_cached"] == 1

    def test_block_size_change_is_stale(self, rng):
        series = make_series(rng.normal(0, 1.0, 100))
        counts = Counter()
        summary_for(series, block_size=64, counters=counts)
        rebuilt = summary_for(series, block_size=32, counters=counts)
        assert rebuilt.block_size == 32
        assert counts["index_stale"] == 1
        assert summary_for(series, block_size=32) is rebuilt

    def test_counters_argument_receives_events(self, rng):
        series = make_series(rng.normal(0, 1.0, 50))
        local = Counter()
        summary_for(series, counters=local)
        summary_for(series, counters=local)
        assert local["index_built"] == 1
        assert local["index_cached"] == 1

    def test_clear_cache_resets(self, rng):
        series = make_series(rng.normal(0, 1.0, 50))
        summary_for(series)
        series.drop_derived()
        counts = Counter()
        summary_for(series, counters=counts)
        assert counts == {"index_built": 1}

    def test_summary_goes_with_its_series(self, rng):
        # Residency is per object: an equal series starts cold.
        values = rng.normal(0, 1.0, 50)
        summary_for(make_series(values))
        counts = Counter()
        summary_for(make_series(values), counters=counts)
        assert counts == {"index_built": 1}


class TestQuantizationEdgeCases:
    def test_single_point_series(self):
        summary = build_summary(make_series([3.0]))
        assert isinstance(summary, SeriesSummary)
        summary.validate(make_series([3.0]))

    def test_empty_series(self):
        series = Series({"tstamp": np.asarray([], dtype=np.float64),
                         "val": np.asarray([], dtype=np.float64)},
                        "tstamp")
        summary = build_summary(series)
        assert summary.num_blocks == 0
        summary.validate(series)

    def test_infinite_values_fall_back_to_exact(self):
        col = build_summary(
            make_series([1.0, np.inf, -np.inf, 2.0]),
            block_size=2).column("val")
        assert col.exact
        col.validate(np.asarray([1.0, np.inf, -np.inf, 2.0]))

    def test_extreme_dynamic_range_stays_sound(self, rng):
        values = np.concatenate([rng.uniform(-1e-9, 1e-9, 100),
                                 rng.uniform(1e9, 2e9, 100)])
        series = make_series(values)
        build_summary(series, block_size=8).validate(series)

    def test_symbols_fit_alphabet(self, rng):
        col = build_summary(make_series(rng.normal(0, 1.0, 1000)),
                            block_size=16).column("val")
        assert int(col.symbols_lo.max()) < SYMBOLS
        assert int(col.symbols_hi.max()) < SYMBOLS

    def test_default_block_size_matches_cost_params(self):
        from repro.optimizer.cost_params import \
            DEFAULT_PREFILTER_BLOCK_SIZE
        assert DEFAULT_BLOCK_SIZE == DEFAULT_PREFILTER_BLOCK_SIZE
