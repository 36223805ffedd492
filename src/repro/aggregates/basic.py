"""Basic segment aggregates: sum, avg, count, min, max, stddev.

All are indexable: sums/averages/counts/stddev via prefix sums, min/max via
sparse tables.  They exist both for user queries and as simple, well-behaved
fixtures for the optimizer's cost model tests.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.aggregates.base import (Aggregate, AggregateIndex, BatchKernel,
                                   as_float_arrays, row_sums)
from repro.aggregates.prefix import PrefixSums, SparseTable


class _SumIndex(AggregateIndex):
    __slots__ = ("_sums",)

    def __init__(self, values: np.ndarray):
        self._sums = PrefixSums(values)

    def lookup(self, start: int, end: int) -> float:
        return self._sums.range_sum(start, end)

    def lookup_batch(self, starts: np.ndarray,
                     ends: np.ndarray) -> np.ndarray:
        return self._sums.range_sum_batch(starts, ends)


class _AvgIndex(AggregateIndex):
    __slots__ = ("_sums",)

    def __init__(self, values: np.ndarray):
        self._sums = PrefixSums(values)

    def lookup(self, start: int, end: int) -> float:
        return self._sums.range_mean(start, end)

    def lookup_batch(self, starts: np.ndarray,
                     ends: np.ndarray) -> np.ndarray:
        return self._sums.range_mean_batch(starts, ends)


class _CountIndex(AggregateIndex):
    __slots__ = ()

    def lookup(self, start: int, end: int) -> float:
        return float(end - start + 1)

    def lookup_batch(self, starts: np.ndarray,
                     ends: np.ndarray) -> np.ndarray:
        return (ends - starts + 1).astype(np.float64)


class _StdIndex(AggregateIndex):
    """Prefix-sum stddev with two numeric guards the naive E[x^2] - E[x]^2
    formula lacks:

    * values are shifted by the series mean — rounded to the nearest
      integer so the shift is exactly representable — before squaring.
      The two terms stay of comparable (small) magnitude instead of
      cancelling catastrophically for segments far from zero, and
      lattice-valued inputs keep exact deltas: shifting by the raw
      (usually non-representable) mean would perturb every delta by an
      ulp and make exactly-representable statistics like
      ``stddev([0, 2]) == 1.0`` disagree with the direct ``np.std``
      path, the bit-for-bit agreement the differential fuzzer's
      threshold policy relies on (docs/FUZZING.md);
    * constant segments are detected exactly via run lengths and answer
      0.0 outright — cancellation noise in the prefix sums can otherwise
      make ``stddev(plateau) > 0`` flicker between shared and unshared
      evaluation.
    """

    __slots__ = ("_sums", "_squares", "_finite", "_run_end")

    # trex: no-tick(one linear pass at index-build time)
    def __init__(self, values: np.ndarray):
        finite = np.isfinite(values)
        shift = (float(np.round(np.mean(values[finite])))
                 if bool(finite.any()) else 0.0)
        deltas = values - shift
        self._sums = PrefixSums(deltas)
        self._squares = PrefixSums(deltas * deltas)
        self._finite = finite
        n = len(values)
        run_end = np.arange(n, dtype=np.int64)
        for i in range(n - 2, -1, -1):
            if values[i] == values[i + 1]:
                run_end[i] = run_end[i + 1]
        self._run_end = run_end

    def lookup(self, start: int, end: int) -> float:
        if self._run_end[start] >= end:
            return 0.0 if bool(self._finite[start]) else math.nan
        n = end - start + 1
        mean = self._sums.range_sum(start, end) / n
        mean_sq = self._squares.range_sum(start, end) / n
        variance = max(mean_sq - mean * mean, 0.0)
        return math.sqrt(variance)

    def lookup_batch(self, starts: np.ndarray,
                     ends: np.ndarray) -> np.ndarray:
        """Bit-identical batch :meth:`lookup`.

        ``np.maximum(x, 0.0)`` matches the scalar ``max(x, 0.0)`` here:
        the operand is never ``-0.0`` (an exactly-cancelling ``x - x``
        rounds to ``+0.0``), negatives clamp to ``+0.0`` on both paths
        and NaN propagates through both; ``np.sqrt`` and ``math.sqrt``
        are both correctly rounded.
        """
        out = np.empty(len(starts), dtype=np.float64)
        plateau = self._run_end[starts] >= ends
        if bool(plateau.any()):
            out[plateau] = np.where(self._finite[starts[plateau]],
                                    0.0, np.nan)
        rest = np.logical_not(plateau)
        if bool(rest.any()):
            s, e = starts[rest], ends[rest]
            n = e - s + 1
            mean = self._sums.range_sum_batch(s, e) / n
            mean_sq = self._squares.range_sum_batch(s, e) / n
            variance = np.maximum(mean_sq - mean * mean, 0.0)
            out[rest] = np.sqrt(variance)
        return out


class _ExtremeIndex(AggregateIndex):
    __slots__ = ("_table",)

    def __init__(self, values: np.ndarray, mode: str):
        self._table = SparseTable(values, mode=mode)

    def lookup(self, start: int, end: int) -> float:
        return self._table.query(start, end)

    def lookup_batch(self, starts: np.ndarray,
                     ends: np.ndarray) -> np.ndarray:
        return self._table.query_batch(starts, ends)


class _OneColumnAggregate(Aggregate):
    """Shared plumbing for the single-column basic aggregates."""

    num_columns = 1
    num_extra = 0
    direct_cost_shape = "L"
    index_cost_shape = "L"
    lookup_cost_shape = "C"
    batch_lookup = True

    def _direct(self, values: np.ndarray) -> float:
        raise NotImplementedError

    def _index(self, values: np.ndarray) -> AggregateIndex:
        raise NotImplementedError

    def evaluate(self, arrays: Sequence[np.ndarray],
                 extra: Sequence[float]) -> float:
        (values,) = as_float_arrays(arrays)
        return self._direct(values)

    def build_index(self, columns: Sequence[np.ndarray],
                    extra: Sequence[float]) -> AggregateIndex:
        (values,) = as_float_arrays(columns)
        return self._index(values)


class SumAggregate(_OneColumnAggregate):
    """Sum of a column over the segment."""

    name = "sum"

    def _direct(self, values):
        return float(np.sum(values))

    def _index(self, values):
        return _SumIndex(values)

    def batch_kernel(self, columns, extra):
        (values,) = as_float_arrays(columns)
        return lambda starts, ends: row_sums(
            (values,), starts, ends, lambda v: (v,))[0]


class AvgAggregate(_OneColumnAggregate):
    """Arithmetic mean over the segment."""

    name = "avg"

    def _direct(self, values):
        return float(np.mean(values)) if len(values) else 0.0

    def _index(self, values):
        return _AvgIndex(values)

    def batch_kernel(self, columns, extra):
        # np.mean is np.sum over the slice divided by its length.
        total = SumAggregate().batch_kernel(columns, extra)
        return lambda starts, ends: total(starts, ends) / (ends - starts + 1)


class CountAggregate(_OneColumnAggregate):
    """Number of points in the segment."""

    name = "count"
    direct_cost_shape = "C"

    def _direct(self, values):
        return float(len(values))

    def _index(self, values):
        return _CountIndex()

    def batch_kernel(self, columns, extra):
        return _CountIndex().lookup_batch


def _reduceat_kernel(values: np.ndarray, reducer: np.ufunc) -> BatchKernel:
    """Exact direct min/max: ``reducer.reduceat`` over ``[start, end+1)``
    pairs visits each slice like ``np.min``/``np.max`` does.  ``sum`` and
    ``avg`` have no such form (``np.sum`` accumulates pairwise), so they
    reduce equal-length rows instead (:func:`row_sums`)."""
    # One trailing pad element keeps ``ends + 1 == n`` a valid reduceat
    # index; the odd (inter-pair) reductions that could read it are
    # discarded below.
    padded = np.concatenate((values, values[-1:]))

    def kernel(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        bounds = np.empty(2 * len(starts), dtype=np.int64)
        bounds[0::2] = starts
        bounds[1::2] = ends + 1
        return reducer.reduceat(padded, bounds)[0::2]

    return kernel


class MinAggregate(_OneColumnAggregate):
    """Minimum over the segment."""

    name = "min"

    def _direct(self, values):
        return float(np.min(values)) if len(values) else math.nan

    def _index(self, values):
        return _ExtremeIndex(values, "min")

    def batch_kernel(self, columns, extra):
        return _reduceat_kernel(columns[0], np.minimum)


class MaxAggregate(_OneColumnAggregate):
    """Maximum over the segment."""

    name = "max"

    def _direct(self, values):
        return float(np.max(values)) if len(values) else math.nan

    def _index(self, values):
        return _ExtremeIndex(values, "max")

    def batch_kernel(self, columns, extra):
        return _reduceat_kernel(columns[0], np.maximum)


class StdDevAggregate(_OneColumnAggregate):
    """Population standard deviation over the segment."""

    name = "stddev"

    def _direct(self, values):
        if not len(values):
            return 0.0
        # Constant segments answer exactly 0.0 on both evaluation paths
        # (see _StdIndex); np.std on a plateau returns ~1e-17 noise when
        # the mean is not representable.  NaNs fail the equality and fall
        # through to np.std, which propagates them.
        if bool(np.all(values == values[0])):
            return 0.0
        return float(np.std(values))

    def _index(self, values):
        return _StdIndex(values)
