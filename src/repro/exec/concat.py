"""Concatenation physical operators (Sections 4.3, 4.5.2).

``gap`` is the join offset between the left segment's end and the right
segment's start: 0 for shared-boundary joins (segments involved), 1 for the
classic disjoint point-variable join.

* :class:`SortMergeConcat` evaluates both children once over expanded
  search spaces and merge-joins on the boundary;
* :class:`RightProbeConcat` / :class:`LeftProbeConcat` evaluate one child
  and *probe* the other with a search space collapsed to the join point —
  additionally tightened by the embedded window anchored at the known
  segment end/start, which is where search-space pruning pays off.  They
  drain the driving child first and probe with all its spaces in one
  call (:class:`~repro.exec.base.ProbeOperator`), and when probed
  themselves they answer all their spaces in one such drain;
* :class:`WildWindowConcat` (WConcat) fuses the ``X W Y`` chain around a
  window-only padding variable, pairing X and Y directly without
  materializing the padding segments.

The sort-merge and WConcat joins work on owner-tagged batches
(docs/VECTORIZATION.md, "Past the leaf: the join stage"): each child is
evaluated once over all the operator's spaces, a left row finds its
right partners by ``searchsorted`` on the right side's sorted
``(owner, start)`` codes and is paired with them by a ragged
``np.repeat``, and window and search space clip every row through one
``end_range`` call per distinct start.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.exec.base import (Env, ExecContext, PhysicalOperator,
                             ProbeOperator, SetOperator, clamp_spaces,
                             owners_of, projected_key)
from repro.exec.batch import (Batch, PayloadKey, expand, joined, merged_key,
                              sorted_codes)
from repro.lang.windows import WindowConjunction
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment

class _BinaryConcat(PhysicalOperator):
    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 gap: int, window: WindowConjunction,
                 publish: FrozenSet[str] = frozenset(),
                 requires: FrozenSet[str] = frozenset()):
        super().__init__(window, publish=publish, requires=requires)
        self.left = left
        self.right = right
        self.gap = gap

    def children(self):
        return (self.left, self.right)

    def describe(self) -> str:
        return f"{self.name}(gap={self.gap})"


class SortMergeConcat(SetOperator, _BinaryConcat):
    """Evaluate both children independently, join on the boundary point."""

    name = "SortMergeConcat"

    def answer(self, ctx: ExecContext, spaces: Sequence[SearchSpace],
               refs: Env) -> Batch:
        self.check_refs(refs)
        owners, live = clamp_spaces(ctx, spaces)
        lefts = self.drain(ctx, self.left, live, [
            owners[owner].concat_left(self.gap) for owner in live], refs)
        if not lefts.rows:
            return Batch.empty(len(spaces))
        # Early termination per owner: no left rows, no right child.
        asked = owners_of(lefts)
        rights = self.drain(ctx, self.right, asked, [
            owners[owner].concat_right(self.gap) for owner in asked], refs)
        if not rights.rows:
            return Batch.empty(len(spaces))
        keep, e_lo, e_hi = self.clip(ctx, owners, lefts.owners,
                                     lefts.starts)
        stride = len(ctx.series) + 2
        order, codes = sorted_codes(rights.owners * stride + rights.starts)
        # A left row joins the right rows starting where it ends (+ gap).
        joins = lefts.owners * stride + lefts.ends + self.gap
        rows = np.flatnonzero(keep)
        return join_ends(ctx, len(spaces), lefts, rights, order, rows,
                         np.searchsorted(codes, joins[rows], "left"),
                         np.searchsorted(codes, joins[rows], "right"),
                         e_lo, e_hi)


class RightProbeConcat(ProbeOperator, _BinaryConcat):
    """Enumerate the left child; probe the right at each boundary."""

    name = "RightProbeConcat"

    @property
    def driver(self) -> PhysicalOperator:
        return self.left

    @property
    def probed(self) -> PhysicalOperator:
        return self.right

    def driver_space(self, sp: SearchSpace) -> SearchSpace:
        return sp.concat_left(self.gap)

    def probe_space(self, ctx: ExecContext, sp: SearchSpace,
                    left: Segment) -> SearchSpace:
        # The result spans [left.start, e]: tighten the probed end range
        # with the embedded window anchored at left.start.
        e_lo, e_hi = self.window.end_range(ctx.series, left.start)
        return SearchSpace(left.end + self.gap, left.end + self.gap,
                           max(sp.e_lo, e_lo), min(sp.e_hi, e_hi))

    def joined(self, ctx: ExecContext, left: Segment,
               rights: List[Segment]) -> Set[Tuple[int, int, PayloadKey]]:
        lkey = projected_key(left, self.publish)
        return {(left.start, right.end,
                 merged_key(lkey, projected_key(right, self.publish)))
                for right in rights}


class LeftProbeConcat(ProbeOperator, _BinaryConcat):
    """Enumerate the right child; probe the left at each boundary."""

    name = "LeftProbeConcat"

    @property
    def driver(self) -> PhysicalOperator:
        return self.right

    @property
    def probed(self) -> PhysicalOperator:
        return self.left

    def driver_space(self, sp: SearchSpace) -> SearchSpace:
        return sp.concat_right(self.gap)

    def probe_space(self, ctx: ExecContext, sp: SearchSpace,
                    right: Segment) -> SearchSpace:
        s_lo, s_hi = self.window.start_range(ctx.series, right.end)
        return SearchSpace(max(sp.s_lo, s_lo), min(sp.s_hi, s_hi),
                           right.start - self.gap, right.start - self.gap)

    def joined(self, ctx: ExecContext, right: Segment,
               lefts: List[Segment]) -> Set[Tuple[int, int, PayloadKey]]:
        rkey = projected_key(right, self.publish)
        return {(left.start, right.end,
                 merged_key(projected_key(left, self.publish), rkey))
                for left in lefts}


class WildWindowConcat(SetOperator):
    """Fused ``X PAD Y`` concatenation around a window-only padding variable.

    Pairs X segments with Y segments directly: a pair joins when the
    implicit padding segment ``[x.end + gap_left, y.start - gap_right]``
    satisfies the padding window.  ``gap_left``/``gap_right`` are the
    concatenation join offsets around the eliminated pad — 0 for
    shared-boundary segment joins, 1 for disjoint point joins; a point pad
    between two point variables joins ``y.start = x.end + 2``.  Avoids
    materializing the (potentially huge) padding segments.
    """

    name = "WildWindowConcat"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 pad_window: WindowConjunction, window: WindowConjunction,
                 publish: FrozenSet[str] = frozenset(),
                 requires: FrozenSet[str] = frozenset(),
                 gap_left: int = 0, gap_right: int = 0):
        super().__init__(window, publish=publish, requires=requires)
        self.left = left
        self.right = right
        self.pad_window = pad_window
        self.gap_left = gap_left
        self.gap_right = gap_right

    def children(self):
        return (self.left, self.right)

    def answer(self, ctx: ExecContext, spaces: Sequence[SearchSpace],
               refs: Env) -> Batch:
        self.check_refs(refs)
        owners, live = clamp_spaces(ctx, spaces)
        lefts = self.drain(ctx, self.left, live, [
            SearchSpace(sp.s_lo, sp.s_hi, sp.s_lo, sp.e_hi)
            for sp in map(owners.__getitem__, live)], refs)
        if not lefts.rows:
            return Batch.empty(len(spaces))
        asked = owners_of(lefts)
        rights = self.drain(ctx, self.right, asked, [
            SearchSpace(sp.s_lo, sp.e_hi, sp.e_lo, sp.e_hi)
            for sp in map(owners.__getitem__, asked)], refs)
        if not rights.rows:
            return Batch.empty(len(spaces))
        keep, e_lo, e_hi = self.clip(ctx, owners, lefts.owners,
                                     lefts.starts)
        n = len(ctx.series)
        # The pad starts right after the left row; its admissible ends
        # (one pad end_range per distinct pad start) place the right
        # starts gap_right past them.
        pads = lefts.ends + self.gap_left
        rows = np.flatnonzero(keep & (pads < n))
        pad_starts, at = np.unique(pads[rows], return_inverse=True)
        ctx.tick(len(pad_starts))
        end_range, series = self.pad_window.end_range, ctx.series
        ranges = np.array([end_range(series, pad)
                           for pad in pad_starts.tolist()],
                          dtype=np.int64).reshape(-1, 2)[at.reshape(-1)]
        stride = n + 3
        first = np.minimum(np.maximum(ranges[:, 0], pads[rows])
                           + self.gap_right, n + 1)
        last = ranges[:, 1] + self.gap_right
        order, codes = sorted_codes(rights.owners * stride + rights.starts)
        base = lefts.owners[rows] * stride
        return join_ends(ctx, len(spaces), lefts, rights, order, rows,
                         np.searchsorted(codes, base + first, "left"),
                         np.searchsorted(codes, base + last, "right"),
                         e_lo, e_hi)


def join_ends(ctx: ExecContext, spaces: int, lefts: Batch, rights: Batch,
              order: np.ndarray, rows: np.ndarray, lo: np.ndarray,
              hi: np.ndarray, e_lo: np.ndarray, e_hi: np.ndarray) -> Batch:
    """Left row ``rows[i]`` joined with the right rows ``order[lo[i]:
    hi[i]]``: ``(owner, left start, right end, merged payload)`` for each
    pair whose end lies in the left row's clip ``[e_lo, e_hi]``."""
    def blocks() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for at, matched in expand(ctx, lo, hi):
            left, right = rows[at], order[matched]
            ends = rights.ends[right]
            fits = (ends >= e_lo[left]) & (ends <= e_hi[left])
            yield left[fits], right[fits]

    return joined(ctx, spaces, lefts, rights, blocks())
