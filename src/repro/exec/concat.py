"""Concatenation physical operators (Sections 4.3, 4.5.2).

``gap`` is the join offset between the left segment's end and the right
segment's start: 0 for shared-boundary joins (segments involved), 1 for the
classic disjoint point-variable join.

* :class:`SortMergeConcat` evaluates both children once over expanded
  search spaces and merge-joins on the boundary;
* :class:`RightProbeConcat` / :class:`LeftProbeConcat` evaluate one child
  and *probe* the other with a search space collapsed to the join point —
  additionally tightened by the embedded window anchored at the known
  segment end/start, which is where search-space pruning pays off;
* :class:`WildWindowConcat` (WConcat) fuses the ``X W Y`` chain around a
  window-only padding variable, pairing X and Y directly without
  materializing the padding segments.

All of them join set-at-a-time (docs/VECTORIZATION.md, "Past the leaf"):
children are held as start -> end-set adjacency, each distinct start
unions the end-sets reachable through its join points, and the window and
search space clip that union once per start.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, FrozenSet, Iterator, Set

from repro.exec.base import (Env, ExecContext, PayloadKey, PhysicalOperator,
                             adjacency, merged_key, projected_key)
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


class SortMergeConcat(_BinaryConcat):
    """Evaluate both children independently, join on the boundary point."""

    name = "SortMergeConcat"

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        self.check_refs(refs)
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            return
        # Left ends are stored as the right start they join to.
        lefts = adjacency(ctx, self.left.eval(ctx, sp.concat_left(self.gap),
                                              refs), self.publish, self.gap)
        if not lefts:
            return  # early termination: no need to evaluate the right
        rights = adjacency(ctx, self.right.eval(
            ctx, sp.concat_right(self.gap), refs), self.publish)

        def reach_of(start: int, e_hi: int) -> Dict[PayloadKey, Set[int]]:
            reach = defaultdict(set)
            for lkey, joins in lefts[start].items():
                for join in joins:
                    for rkey, ends in rights.get(join, {}).items():
                        ctx.tick()
                        reach[merged_key(lkey, rkey)] |= ends
            return reach

        yield from self.emit_starts(ctx, sp, lefts, reach_of)


class RightProbeConcat(_BinaryConcat):
    """Enumerate the left child; probe the right at each boundary."""

    name = "RightProbeConcat"

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        self.check_refs(refs)
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            return
        seen = set()
        for left in self.left.eval(ctx, sp.concat_left(self.gap), refs):
            ctx.tick()
            # The result spans [left.start, e]: tighten the probed end
            # range with the embedded window anchored at left.start.
            e_lo, e_hi = self.window.end_range(ctx.series, left.start)
            probe = SearchSpace(left.end + self.gap, left.end + self.gap,
                                max(sp.e_lo, e_lo), min(sp.e_hi, e_hi))
            if probe.is_empty():
                continue
            rights = self.probe(ctx, self.right, probe, refs, left)
            if rights:
                lkey = projected_key(left, self.publish)
                yield from self.emit_fresh(ctx, seen, {
                    (left.start, right.end,
                     merged_key(lkey, projected_key(right, self.publish)))
                    for right in rights})


class LeftProbeConcat(_BinaryConcat):
    """Enumerate the right child; probe the left at each boundary."""

    name = "LeftProbeConcat"

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        self.check_refs(refs)
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            return
        seen = set()
        for right in self.right.eval(ctx, sp.concat_right(self.gap), refs):
            ctx.tick()
            s_lo, s_hi = self.window.start_range(ctx.series, right.end)
            probe = SearchSpace(max(sp.s_lo, s_lo), min(sp.s_hi, s_hi),
                                right.start - self.gap,
                                right.start - self.gap)
            if probe.is_empty():
                continue
            lefts = self.probe(ctx, self.left, probe, refs, right)
            if lefts:
                rkey = projected_key(right, self.publish)
                yield from self.emit_fresh(ctx, seen, {
                    (left.start, right.end,
                     merged_key(projected_key(left, self.publish), rkey))
                    for left in lefts})


class WildWindowConcat(PhysicalOperator):
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

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        self.check_refs(refs)
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            return
        # Left ends are stored as the pad start that follows them.
        lefts = adjacency(ctx, self.left.eval(ctx, SearchSpace(
            sp.s_lo, sp.s_hi, sp.s_lo, sp.e_hi), refs),
            self.publish, self.gap_left)
        if not lefts:
            return
        rights = adjacency(ctx, self.right.eval(ctx, SearchSpace(
            sp.s_lo, sp.e_hi, sp.e_lo, sp.e_hi), refs), self.publish)
        right_starts = sorted(rights)
        n = len(ctx.series)

        def reach_of(start: int, e_hi: int) -> Dict[PayloadKey, Set[int]]:
            reach = defaultdict(set)
            for lkey, pad_starts in lefts[start].items():
                for pad_start in pad_starts:
                    ctx.tick()
                    if pad_start >= n:
                        continue
                    # Admissible pad end positions; right starts sit
                    # gap_right past them.
                    pad_lo, pad_hi = self.pad_window.end_range(ctx.series,
                                                               pad_start)
                    lo = bisect.bisect_left(
                        right_starts, max(pad_lo, pad_start) + self.gap_right)
                    hi = bisect.bisect_right(right_starts,
                                             pad_hi + self.gap_right)
                    for right_start in right_starts[lo:hi]:
                        for rkey, ends in rights[right_start].items():
                            ctx.tick()
                            reach[merged_key(lkey, rkey)] |= ends
            return reach

        yield from self.emit_starts(ctx, sp, lefts, reach_of)
