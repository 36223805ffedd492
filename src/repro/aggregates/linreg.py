"""Linear-regression goodness-of-fit aggregates (paper Example 2).

``linear_regression_r2(x, y)`` returns the R² of the least-squares line of
``y`` against ``x`` over a segment.  ``linear_regression_r2_signed`` returns
``sign(slope) * R²`` so one threshold captures both direction and fit — this
is the ``linear_reg_r2_signed`` used throughout Appendix E's queries.

Both support computation sharing through prefix sums over the five
expressions ``x``, ``y``, ``x²``, ``y²`` and ``xy``; a lookup is then O(1).
Direct evaluation sums the same five expressions over the segment, and
its batch form sums them row by row (:func:`~repro.aggregates.base.row_sums`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.aggregates.base import (Aggregate, AggregateIndex, BatchKernel,
                                   row_sums, segment_pair)
from repro.aggregates.prefix import PrefixSums

#: Denominator guard: segments with (numerically) constant x or y get R²=0.
_EPSILON = 1e-12


def _r2_from_moments(n: int, sx: float, sy: float, sxx: float, syy: float,
                     sxy: float, signed: bool) -> float:
    """R² (optionally slope-signed) from raw moment sums."""
    if n < 2:
        return 0.0
    mean_x = sx / n
    mean_y = sy / n
    var_x = sxx / n - mean_x * mean_x
    var_y = syy / n - mean_y * mean_y
    cov = sxy / n - mean_x * mean_y
    if var_x <= _EPSILON or var_y <= _EPSILON:
        return 0.0
    r2 = (cov * cov) / (var_x * var_y)
    r2 = min(max(r2, 0.0), 1.0)
    if signed and cov < 0:
        return -r2
    return r2


def _r2_from_moments_batch(n: np.ndarray, sx: np.ndarray, sy: np.ndarray,
                           sxx: np.ndarray, syy: np.ndarray,
                           sxy: np.ndarray, signed: bool) -> np.ndarray:
    """:func:`_r2_from_moments` over arrays, operation for operation.

    Every branch is an ``np.where`` on the scalar form's own predicate,
    and the clamps are spelled as comparisons rather than
    ``np.minimum``/``np.maximum`` so a NaN passes through them the way
    it passes through Python's ``min``/``max`` (the comparison is false,
    the first operand is kept).
    """
    with np.errstate(all="ignore"):
        mean_x = sx / n
        mean_y = sy / n
        var_x = sxx / n - mean_x * mean_x
        var_y = syy / n - mean_y * mean_y
        cov = sxy / n - mean_x * mean_y
        r2 = (cov * cov) / (var_x * var_y)
        r2 = np.where(0.0 > r2, 0.0, r2)
        r2 = np.where(1.0 < r2, 1.0, r2)
        if signed:
            r2 = np.where(cov < 0, -r2, r2)
    flat = (n < 2) | (var_x <= _EPSILON) | (var_y <= _EPSILON)
    return np.where(flat, 0.0, r2)


class _LinRegIndex(AggregateIndex):
    """Prefix sums over x, y, x², y², xy for O(1) R² lookups."""

    __slots__ = ("_px", "_py", "_pxx", "_pyy", "_pxy", "_signed")

    def __init__(self, x: np.ndarray, y: np.ndarray, signed: bool):
        self._px = PrefixSums(x)
        self._py = PrefixSums(y)
        self._pxx = PrefixSums(x * x)
        self._pyy = PrefixSums(y * y)
        self._pxy = PrefixSums(x * y)
        self._signed = signed

    def lookup(self, start: int, end: int) -> float:
        n = end - start + 1
        return _r2_from_moments(
            n,
            self._px.range_sum(start, end),
            self._py.range_sum(start, end),
            self._pxx.range_sum(start, end),
            self._pyy.range_sum(start, end),
            self._pxy.range_sum(start, end),
            self._signed,
        )

    def lookup_batch(self, starts: np.ndarray,
                     ends: np.ndarray) -> np.ndarray:
        return _r2_from_moments_batch(
            ends - starts + 1,
            self._px.range_sum_batch(starts, ends),
            self._py.range_sum_batch(starts, ends),
            self._pxx.range_sum_batch(starts, ends),
            self._pyy.range_sum_batch(starts, ends),
            self._pxy.range_sum_batch(starts, ends),
            self._signed,
        )


class LinearRegressionR2(Aggregate):
    """R² of the least-squares fit of the second column against the first."""

    name = "linear_regression_r2"
    num_columns = 2
    num_extra = 0
    direct_cost_shape = "L"
    index_cost_shape = "L"
    lookup_cost_shape = "C"
    batch_lookup = True
    _signed = False

    def evaluate(self, arrays: Sequence[np.ndarray],
                 extra: Sequence[float]) -> float:
        x, y = segment_pair(arrays)
        n = len(x)
        return _r2_from_moments(
            n, float(np.sum(x)), float(np.sum(y)), float(np.sum(x * x)),
            float(np.sum(y * y)), float(np.sum(x * y)), self._signed)

    def build_index(self, columns: Sequence[np.ndarray],
                    extra: Sequence[float]) -> AggregateIndex:
        x, y = segment_pair(columns)
        return _LinRegIndex(x, y, self._signed)

    def batch_kernel(self, columns: Sequence[np.ndarray],
                     extra: Sequence[float]) -> BatchKernel:
        x, y = segment_pair(columns)

        def kernel(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
            return _r2_from_moments_batch(
                ends - starts + 1, *row_sums(
                    (x, y), starts, ends,
                    lambda x, y: (x, y, x * x, y * y, x * y)),
                self._signed)

        return kernel


class LinearRegressionR2Signed(LinearRegressionR2):
    """``sign(slope) * R²`` — positive for rising, negative for falling."""

    name = "linear_regression_r2_signed"
    _signed = True
