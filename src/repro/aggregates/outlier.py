"""Z-score point outlier aggregate (used by the ``outlier`` query).

``zscore_outlier(col, context)`` is evaluated on a *point* variable's
single-point segment: it returns the absolute z-score of the point's value
relative to the ``context`` points immediately preceding it in the series.
A point with fewer than two preceding context points scores 0.

The paper writes this as ``ZScoreOutlier(ℓ)`` with an implicit value column;
our canonical templates make the column explicit as the first argument
(documented substitution in DESIGN.md).  Per Table 6 the aggregate has no
shared index — each evaluation is linear in the context size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.aggregates.base import BLOCK_CELLS, Aggregate
from repro.errors import AggregateError


class ZScoreOutlier(Aggregate):
    """Absolute z-score of a point against its preceding context window.

    Unlike the other aggregates, this one needs series context *before* the
    segment, so it is evaluated through :meth:`evaluate_with_context` and the
    expression evaluator passes the full column plus the point index.
    """

    name = "zscore_outlier"
    num_columns = 1
    num_extra = 1
    direct_cost_shape = "L"
    index_cost_shape = None
    lookup_cost_shape = None
    needs_series_context = True

    def evaluate(self, arrays: Sequence[np.ndarray],
                 extra: Sequence[float]) -> float:
        raise AggregateError(
            "zscore_outlier needs series context; evaluate_with_context "
            "must be used (is it applied to a point variable?)")

    def evaluate_with_context(self, full_column: np.ndarray, start: int,
                              end: int, extra: Sequence[float]) -> float:
        if start != end:
            raise AggregateError(
                "zscore_outlier applies to point variables (single-point "
                f"segments); got [{start}, {end}]")
        context = int(extra[0])
        if context < 2:
            raise AggregateError(
                f"zscore_outlier context size must be >= 2, got {context}")
        lo = max(0, start - context)
        window = np.asarray(full_column[lo:start], dtype=np.float64)
        if len(window) < 2:
            return 0.0
        std = float(np.std(window))
        if std <= 1e-12:
            return 0.0
        return abs(float(full_column[start]) - float(np.mean(window))) / std

    # trex: no-tick(row blocks of one already-ticked candidate batch)
    def batch_kernel(self, columns, extra):
        """Points with a full context window batch as rows of a sliding
        window view: ``np.std``/``np.mean`` along a contiguous row reduce
        exactly like the 1-D slice the scalar form takes.  The first
        ``context`` points (shorter windows) and any ``context < 2`` stay
        scalar, so the ``AggregateError`` surfaces from the same place.
        """
        (column,) = columns
        context = int(extra[0])
        if context < 2:
            return None
        windows = np.lib.stride_tricks.sliding_window_view(
            column, min(context, len(column)))
        step = max(1, BLOCK_CELLS // context)

        def kernel(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
            out = np.empty(len(starts), dtype=np.float64)
            full = starts >= context
            for i in np.flatnonzero(~full):
                out[i] = self.evaluate_with_context(
                    column, int(starts[i]), int(ends[i]), extra)
            at = starts[full]
            scores = np.empty(len(at), dtype=np.float64)
            for lo in range(0, len(at), step):
                points = at[lo:lo + step]
                rows = windows[points - context]
                with np.errstate(all="ignore"):
                    std = np.std(rows, axis=1)
                    score = np.abs(column[points]
                                   - np.mean(rows, axis=1)) / std
                scores[lo:lo + step] = np.where(std <= 1e-12, 0.0, score)
            out[full] = scores
            return out

        return kernel
