"""Prefix-sum and sparse-table machinery backing aggregate indexes.

The paper's Example 2 builds accumulative sums over expressions such as
``x``, ``y``, ``x**2`` and ``xy`` so that segment means are O(1) lookups.
:class:`PrefixSums` packages that pattern; :class:`SparseTable` provides
O(1) range min/max after O(n log n) build, used by the min/max aggregates.
"""

from __future__ import annotations

import numpy as np


class PrefixSums:
    """Accumulative sums with a leading zero for O(1) range sums.

    ``range_sum(i, j)`` returns ``sum(values[i..j])`` inclusive.  A single
    NaN (or inf) in the raw cumulative array would poison every range at or
    after it — ``nan - nan`` is ``nan`` even for ranges that do not contain
    the bad point — so non-finite inputs are zeroed out of the cumulative
    array and ranges that actually contain one fall back to a direct
    ``np.sum`` over the stored values, matching unshared evaluation.
    """

    __slots__ = ("_sums", "_values", "_dirty")

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(values)
        if bool(finite.all()):
            clean = values
            self._values = None
            self._dirty = None
        else:
            clean = np.where(finite, values, 0.0)
            dirty = np.empty(len(values) + 1, dtype=np.int64)
            dirty[0] = 0
            np.cumsum(~finite, out=dirty[1:])
            self._values = values
            self._dirty = dirty
        sums = np.empty(len(values) + 1, dtype=np.float64)
        sums[0] = 0.0
        np.cumsum(clean, out=sums[1:])
        self._sums = sums

    def range_sum(self, start: int, end: int) -> float:
        if self._dirty is not None and \
                self._dirty[end + 1] - self._dirty[start]:
            return float(np.sum(self._values[start:end + 1]))
        return float(self._sums[end + 1] - self._sums[start])

    def range_mean(self, start: int, end: int) -> float:
        return self.range_sum(start, end) / (end - start + 1)

    # trex: no-tick(dirty fallback over one already-ticked batch)
    def range_sum_batch(self, starts: np.ndarray,
                        ends: np.ndarray) -> np.ndarray:
        """Vector of :meth:`range_sum` values, bit-identical per element.

        Clean ranges are one prefix-difference array op; ranges that
        contain a non-finite value re-run the exact scalar fallback
        (``np.sum`` over the same slice, hence the same pairwise
        accumulation order) per dirty element.
        """
        out = self._sums[ends + 1] - self._sums[starts]
        if self._dirty is not None:
            dirty = (self._dirty[ends + 1] - self._dirty[starts]) != 0
            for i in np.flatnonzero(dirty):
                out[i] = np.sum(self._values[starts[i]:ends[i] + 1])
        return out

    def range_mean_batch(self, starts: np.ndarray,
                         ends: np.ndarray) -> np.ndarray:
        """Vector of :meth:`range_mean` values, bit-identical per element."""
        return self.range_sum_batch(starts, ends) / (ends - starts + 1)


class SparseTable:
    """O(1) range minimum/maximum queries after O(n log n) preprocessing."""

    __slots__ = ("_table", "_log", "_reduce")

    # trex: no-tick(O(n log n) one-time build at index-build time)
    def __init__(self, values: np.ndarray, mode: str = "min"):
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        self._reduce = np.minimum if mode == "min" else np.maximum
        n = len(values)
        levels = max(1, int(np.floor(np.log2(max(n, 1)))) + 1)
        table = [np.asarray(values, dtype=np.float64)]
        span = 1
        for _ in range(1, levels):
            prev = table[-1]
            if len(prev) <= span:
                break
            table.append(self._reduce(prev[:-span], prev[span:]))
            span *= 2
        self._table = table
        log = np.zeros(n + 1, dtype=np.int64)
        for i in range(2, n + 1):
            log[i] = log[i // 2] + 1
        self._log = log

    def query(self, start: int, end: int) -> float:
        """Min/max of ``values[start..end]`` inclusive."""
        length = end - start + 1
        level = int(self._log[length])
        span = 1 << level
        row = self._table[level]
        return float(self._reduce(row[start], row[end - span + 1]))

    # trex: no-tick(at most log2(n) distinct levels per batch)
    def query_batch(self, starts: np.ndarray,
                    ends: np.ndarray) -> np.ndarray:
        """Vector of :meth:`query` values, bit-identical per element."""
        levels = self._log[ends - starts + 1]
        out = np.empty(len(starts), dtype=np.float64)
        for level in np.unique(levels):
            span = 1 << int(level)
            row = self._table[int(level)]
            members = levels == level
            out[members] = self._reduce(row[starts[members]],
                                        row[ends[members] - span + 1])
        return out
