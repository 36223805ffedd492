"""Property tests for the symbolic index and the prefilter decision.

Two invariants proven randomly (hypothesis is optional in minimal
environments; the module skips cleanly when absent):

* every stored block bound brackets the exact block extreme, for any
  value distribution (NaN, ±inf, flat, huge dynamic range);
* a pruned region provably contains no match — every match the full
  scan finds on random data lies inside a candidate range whenever the
  prefilter narrows, and no match exists at all whenever it skips.
"""

import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from repro.core.engine import TRexEngine  # noqa: E402
from repro.index.summary import _block_extremes, build_summary  # noqa: E402
from repro.lang.query import compile_query  # noqa: E402

from tests.conftest import make_series  # noqa: E402

finite_values = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=400),
    elements=st.floats(min_value=-1e12, max_value=1e12,
                       allow_nan=False, allow_infinity=False))

messy_values = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=300),
    elements=st.floats(allow_nan=True, allow_infinity=True,
                       width=64))


class TestBlockBoundsBracketExtremes:
    @given(values=messy_values,
           block_size=st.sampled_from([1, 3, 16, 64]))
    @settings(max_examples=120, deadline=None)
    # hi - lo overflows to inf although both ends are finite: the symbols
    # used to come out as int64-min and index the edge table out of range.
    @example(values=np.array([-sys.float_info.max, 9.98e291]), block_size=1)
    def test_bounds_bracket_every_block(self, values, block_size):
        summary = build_summary(make_series(values), block_size)
        summary.validate(make_series(values))
        col = summary.column("val")
        exact_lo, exact_hi, empty = _block_extremes(values, block_size)
        live = ~empty
        assert np.all(col.block_lo[live] <= exact_lo[live])
        assert np.all(col.block_hi[live] >= exact_hi[live])
        assert np.array_equal(col.block_empty, empty)

    @given(values=finite_values,
           lo=st.floats(min_value=-1e12, max_value=1e12,
                        allow_nan=False),
           width=st.floats(min_value=0.0, max_value=1e12,
                           allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_excluded_blocks_have_no_witness(self, values, lo, width):
        hi = lo + width
        col = build_summary(make_series(values), 16).column("val")
        mask = col.blocks_possible(lo, hi, False, False)
        for k in np.flatnonzero(~mask):
            block = values[k * 16:(k + 1) * 16]
            assert not np.any((block >= lo) & (block <= hi))
        if not col.interval_possible(lo, hi, False, False):
            assert not np.any((values >= lo) & (values <= hi))


QUERY = compile_query("""
ORDER BY tstamp
PATTERN (A & W)
DEFINE
  SEGMENT A AS min(A.val) >= :lo and max(A.val) <= :hi,
  SEGMENT W AS window(1, 6)
""", {"lo": 60.0, "hi": 200.0})


class TestPrunedRegionsContainNoMatch:
    @given(values=hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_value=2, max_value=260),
        elements=st.floats(min_value=-100.0, max_value=300.0,
                           allow_nan=False)))
    @settings(max_examples=80, deadline=None)
    def test_no_false_dismissal(self, values):
        series = [make_series(values)]
        off = TRexEngine(prefilter=False).execute_query(QUERY, series)
        on = TRexEngine(prefilter=True).execute_query(QUERY, series)
        assert off.matches_by_key() == on.matches_by_key()
        if on.prefilter["series_skipped"]:
            assert off.total_matches == 0

    @given(values=hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_value=2, max_value=260),
        elements=st.one_of(
            st.just(float("nan")),
            st.floats(min_value=-100.0, max_value=300.0,
                      allow_nan=False))))
    @settings(max_examples=60, deadline=None)
    def test_no_false_dismissal_with_nans(self, values):
        series = [make_series(values)]
        off = TRexEngine(prefilter=False).execute_query(QUERY, series)
        on = TRexEngine(prefilter=True).execute_query(QUERY, series)
        assert off.matches_by_key() == on.matches_by_key()
