"""Additional shape-analysis aggregates.

These extend the built-in library with aggregates spanning all three cost
shapes of Appendix D.2:

* ``slope`` — least-squares slope of y against x; prefix-indexable like
  ``linear_regression_r2`` (L build / C lookup);
* ``median`` — exact median; not prefix-decomposable, direct-only with a
  linearithmic evaluation (annotated L, the model's closest shape);
* ``max_drawdown`` — largest peak-to-trough fractional decline inside the
  segment; direct-only, linear.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.aggregates.base import (Aggregate, AggregateIndex, BatchKernel,
                                   as_float_arrays, row_sums, segment_pair)
from repro.aggregates.prefix import PrefixSums

_EPSILON = 1e-12


class _SlopeIndex(AggregateIndex):
    __slots__ = ("_px", "_py", "_pxx", "_pxy")

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self._px = PrefixSums(x)
        self._py = PrefixSums(y)
        self._pxx = PrefixSums(x * x)
        self._pxy = PrefixSums(x * y)

    def lookup(self, start: int, end: int) -> float:
        n = end - start + 1
        if n < 2:
            return 0.0
        mean_x = self._px.range_sum(start, end) / n
        mean_y = self._py.range_sum(start, end) / n
        var_x = self._pxx.range_sum(start, end) / n - mean_x * mean_x
        cov = self._pxy.range_sum(start, end) / n - mean_x * mean_y
        if var_x <= _EPSILON:
            return 0.0
        return cov / var_x


class Slope(Aggregate):
    """Least-squares slope of the second column against the first."""

    name = "slope"
    num_columns = 2
    num_extra = 0
    direct_cost_shape = "L"
    index_cost_shape = "L"
    lookup_cost_shape = "C"

    def evaluate(self, arrays: Sequence[np.ndarray],
                 extra: Sequence[float]) -> float:
        x, y = segment_pair(arrays)
        n = len(x)
        if n < 2:
            return 0.0
        mean_x = float(np.mean(x))
        var_x = float(np.mean(x * x)) - mean_x * mean_x
        if var_x <= _EPSILON:
            return 0.0
        cov = float(np.mean(x * y)) - mean_x * float(np.mean(y))
        return cov / var_x

    def build_index(self, columns: Sequence[np.ndarray],
                    extra: Sequence[float]) -> AggregateIndex:
        x, y = segment_pair(columns)
        return _SlopeIndex(x, y)

    def batch_kernel(self, columns: Sequence[np.ndarray],
                     extra: Sequence[float]) -> BatchKernel:
        x, y = segment_pair(columns)

        def kernel(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
            n = ends - starts + 1
            sx, sxx, sxy, sy = row_sums((x, y), starts, ends,
                                        lambda x, y: (x, x * x, x * y, y))
            with np.errstate(all="ignore"):
                mean_x = sx / n
                var_x = sxx / n - mean_x * mean_x
                slope = (sxy / n - mean_x * (sy / n)) / var_x
            return np.where((n < 2) | (var_x <= _EPSILON), 0.0, slope)

        return kernel


class Median(Aggregate):
    """Exact median of the segment (direct-only: medians do not decompose
    into prefix structures)."""

    name = "median"
    num_columns = 1
    num_extra = 0
    direct_cost_shape = "L"
    index_cost_shape = None
    lookup_cost_shape = None

    def evaluate(self, arrays: Sequence[np.ndarray],
                 extra: Sequence[float]) -> float:
        (values,) = as_float_arrays(arrays)
        if len(values) == 0:
            return float("nan")
        return float(np.median(values))


class MaxDrawdown(Aggregate):
    """Largest fractional peak-to-trough decline within the segment.

    Returns a value in [0, 1]: 0.25 means the value at some point fell 25%
    below an earlier in-segment peak.  A classic risk screen for the SP500
    templates.
    """

    name = "max_drawdown"
    num_columns = 1
    num_extra = 0
    direct_cost_shape = "L"
    index_cost_shape = None
    lookup_cost_shape = None

    def evaluate(self, arrays: Sequence[np.ndarray],
                 extra: Sequence[float]) -> float:
        (values,) = as_float_arrays(arrays)
        if len(values) < 2:
            return 0.0
        peaks = np.maximum.accumulate(values)
        with np.errstate(divide="ignore", invalid="ignore"):
            drawdowns = np.where(peaks > 0, 1.0 - values / peaks, 0.0)
        result = float(np.max(drawdowns))
        return max(result, 0.0)
