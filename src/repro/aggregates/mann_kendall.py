"""Mann-Kendall monotone trend test aggregate.

Returns the normalized Z statistic of the Mann-Kendall test [51]:

    S = sum_{i<j} sign(x[j] - x[i])
    Var(S) = n (n-1) (2n+5) / 18
    Z = (S - 1)/sqrt(Var)  if S > 0;  0 if S == 0;  (S + 1)/sqrt(Var) else

The cold-wave queries test ``mann_kendall_test(temp) >= 3.0``, i.e. a
strongly significant upward trend.

Direct evaluation is O(len²).  The shared index materializes the S table
with the dynamic program ``S(i, j) = S(i, j-1) + sum_{k=i..j-1}
sign(x[j] - x[k])`` described in Section 4.2 — quadratic build (Table 6's
``Q`` shape), constant-time lookup.  Rows of the table are materialized
lazily per start position, and only as far as the furthest end asked for
(in blocks of :data:`ROW_BLOCK`), so a windowed probe on a long series
pays for its window, not for the tail; a whole-series scan amortizes to
the same total work as the eager build.

Both paths take their pairwise-sign sums from :func:`_pair_sign_sums`, a
row-blocked lower triangle of ``sign(x[j] - x[k])``.  Sums of ``±1``/``0``
are exact integers in float64, so summation order is free and every form
here — per segment, per row, batched — agrees bit for bit; one NaN
difference still poisons every S that covers it, as in the plain loop.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from repro.aggregates.base import (BLOCK_CELLS, Aggregate, AggregateIndex,
                                   as_float_arrays)

#: Index rows grow to the requested end rounded up to this many points.
ROW_BLOCK = 64


def _z_from_s(s: float, n: int) -> float:
    if n < 2:
        return 0.0
    var = n * (n - 1) * (2 * n + 5) / 18.0
    if var <= 0:
        return 0.0
    if s > 0:
        return (s - 1.0) / math.sqrt(var)
    if s < 0:
        return (s + 1.0) / math.sqrt(var)
    return 0.0


def _z_from_s_batch(s: np.ndarray, n: np.ndarray) -> np.ndarray:
    """:func:`_z_from_s` over arrays (``n`` int64: the product below is
    exact up to segment lengths of ~1.6e6, far past any quadratic S)."""
    with np.errstate(all="ignore"):
        root = np.sqrt(n * (n - 1) * (2 * n + 5) / 18.0)
        z = np.where(s > 0, (s - 1.0) / root,
                     np.where(s < 0, (s + 1.0) / root, 0.0))
    return np.where(n < 2, 0.0, z)


# trex: no-tick(row blocks of one segment or one index row extension)
def _pair_sign_sums(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``out[j - lo] = sum_{k < j} sign(values[j] - values[k])`` for
    ``lo <= j < hi``, as float64 (``sign`` of a NaN difference is NaN and
    must poison the sum, which an int cast would raise on instead).

    Rows are taken :data:`BLOCK_CELLS` cells at a time, so the
    temporaries stay bounded however long the segment or row is.
    """
    out = np.empty(hi - lo, dtype=np.float64)
    step = max(1, BLOCK_CELLS // max(hi - 1, 1))
    for at in range(lo, hi, step):
        stop = min(at + step, hi)
        signs = values[at:stop, None] - values[None, :stop - 1]
        np.sign(signs, out=signs)
        # Row j keeps k < j; tril also drops NaNs above the diagonal.
        out[at - lo:stop - lo] = np.tril(signs, at - 1).sum(axis=1)
    return out


def mann_kendall_z(values: np.ndarray) -> float:
    """Direct O(len²) Mann-Kendall Z statistic."""
    n = len(values)
    if n < 2:
        return 0.0
    # A NaN S falls through both sign tests of _z_from_s to Z == 0.0,
    # exactly as the indexed path folds it.
    return _z_from_s(float(np.sum(_pair_sign_sums(values, 1, n))), n)


class _MannKendallIndex(AggregateIndex):
    """Lazily materialized S table keyed by segment start position.

    ``_rows[i]`` holds cumulative pairwise-sign sums ``S(i, i..i+m-1)``
    for the ``m`` points lookups have reached so far; extending a row to
    length ``m`` costs O(m²) in all, then every ``lookup(i, j)`` with
    ``j - i < m`` is O(1).
    """

    __slots__ = ("_values", "_rows")
    grows = True

    def __init__(self, values: np.ndarray):
        self._values = values
        self._rows: Dict[int, np.ndarray] = {}

    def _row(self, start: int, length: int) -> np.ndarray:
        """Row ``start``, materialized to at least ``length`` points."""
        row = self._rows.get(start)
        have = 0 if row is None else len(row)
        if have < length:
            tail = self._values[start:]
            want = min(len(tail), -(-length // ROW_BLOCK) * ROW_BLOCK)
            grown = np.empty(want, dtype=np.float64)
            grown[:have] = row if have else 0.0
            np.cumsum(_pair_sign_sums(tail, have, want), out=grown[have:])
            if have:
                grown[have:] += row[-1]
            self._rows[start] = row = grown
        return row

    # trex: no-tick(forced eager build; paid once per series by design)
    def materialize_all(self) -> None:
        n = len(self._values)
        for start in range(n):
            self._row(start, n - start)

    def lookup(self, start: int, end: int) -> float:
        n = end - start + 1
        if n < 2:
            return 0.0
        return _z_from_s(self._row(start, n)[end - start], n)

    # trex: no-tick(one step per distinct start of an already-ticked batch)
    def lookup_batch(self, starts: np.ndarray,
                     ends: np.ndarray) -> np.ndarray:
        offsets = ends - starts
        s = np.empty(len(starts), dtype=np.float64)
        order = np.argsort(starts, kind="stable")
        cuts = np.flatnonzero(np.diff(starts[order])) + 1
        for group in np.split(order, cuts):
            reach = offsets[group]
            s[group] = self._row(int(starts[group[0]]),
                                 int(reach.max()) + 1)[reach]
        return _z_from_s_batch(s, offsets + 1)


class MannKendallTest(Aggregate):
    """Normalized Mann-Kendall Z statistic over one column."""

    name = "mann_kendall_test"
    num_columns = 1
    num_extra = 0
    direct_cost_shape = "Q"
    index_cost_shape = "Q"
    lookup_cost_shape = "C"
    batch_lookup = True

    def evaluate(self, arrays: Sequence[np.ndarray],
                 extra: Sequence[float]) -> float:
        (values,) = as_float_arrays(arrays)
        return mann_kendall_z(values)

    def build_index(self, columns: Sequence[np.ndarray],
                    extra: Sequence[float]) -> AggregateIndex:
        (values,) = as_float_arrays(columns)
        return _MannKendallIndex(values)

    def batch_kernel(self, columns, extra):
        # Unshared: a throwaway table per batch, so candidates with a
        # common start share one row and nothing outlives the call.
        (values,) = columns
        return lambda starts, ends: _MannKendallIndex(values).lookup_batch(
            starts, ends)
