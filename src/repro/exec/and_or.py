"""And / Or physical operators (Section 4.3).

An ``And`` joins segments with *identical* positions; the search space is
passed to children unchanged.  Probe variants collapse the probed child's
space to the exact segment produced by the other child — the paper's key
pruning device for conjunctions (e.g. DIFF pruning DOWN).

An ``Or`` unions both children's emissions; no probe variant exists.

The sort-merge variants hold both children as start -> end-set adjacency
and intersect (And) or union (Or) the end-sets of each start in one set
operation (docs/VECTORIZATION.md, "Past the leaf").
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterator, Set

from repro.exec.base import (Env, ExecContext, PayloadKey, PhysicalOperator,
                             adjacency, merged_key, projected_key)
from repro.lang.windows import WindowConjunction
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment


class _Binary(PhysicalOperator):
    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 window: WindowConjunction,
                 publish: FrozenSet[str] = frozenset(),
                 requires: FrozenSet[str] = frozenset()):
        super().__init__(window, publish=publish, requires=requires)
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)


class SortMergeAnd(_Binary):
    """Evaluate both children once, join segments with identical bounds."""

    name = "SortMergeAnd"

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        self.check_refs(refs)
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            return
        lefts = adjacency(ctx, self.left.eval(ctx, sp, refs), self.publish)
        if not lefts:
            return  # early termination
        rights = adjacency(ctx, self.right.eval(ctx, sp, refs), self.publish)

        def reach_of(start: int, e_hi: int) -> Dict[PayloadKey, Set[int]]:
            reach = defaultdict(set)
            for lkey, ends in lefts[start].items():
                for rkey, same in rights[start].items():
                    ctx.tick()
                    reach[merged_key(lkey, rkey)] |= ends & same
            return reach

        yield from self.emit_starts(ctx, sp, lefts.keys() & rights.keys(),
                                    reach_of)


class _ProbeAnd(_Binary):
    """Enumerate one child; probe the other with the exact segment."""

    def _probe_and(self, ctx: ExecContext, sp: SearchSpace, refs: Env,
                   driver: PhysicalOperator,
                   probed: PhysicalOperator) -> Iterator[Segment]:
        self.check_refs(refs)
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            return
        seen = set()
        for anchor in driver.eval(ctx, sp, refs):
            ctx.tick()
            found = self.probe(ctx, probed, SearchSpace.exact(
                anchor.start, anchor.end), refs, anchor)
            # The exact probe pins the bounds but not this operator's
            # own window, which the driver never saw.
            if not found or not self.window.accepts(
                    ctx.series, anchor.start, anchor.end):
                continue
            akey = projected_key(anchor, self.publish)
            yield from self.emit_fresh(ctx, seen, {
                (anchor.start, anchor.end,
                 merged_key(akey, projected_key(other, self.publish)))
                for other in found})


class RightProbeAnd(_ProbeAnd):
    """Enumerate the left child; probe the right with the exact segment."""

    name = "RightProbeAnd"

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        return self._probe_and(ctx, sp, refs, self.left, self.right)


class LeftProbeAnd(_ProbeAnd):
    """Enumerate the right child; probe the left with the exact segment."""

    name = "LeftProbeAnd"

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        return self._probe_and(ctx, sp, refs, self.right, self.left)


class SortMergeOr(_Binary):
    """Union of both children's matches within the search space."""

    name = "SortMergeOr"

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        self.check_refs(refs)
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            return
        sides = [adjacency(ctx, child.eval(ctx, sp, refs), self.publish)
                 for child in (self.left, self.right)]

        def reach_of(start: int, e_hi: int) -> Dict[PayloadKey, Set[int]]:
            reach = defaultdict(set)
            for side in sides:
                for key, ends in side.get(start, {}).items():
                    ctx.tick()
                    reach[key] |= ends
            return reach

        yield from self.emit_starts(ctx, sp, sides[0].keys() | sides[1].keys(),
                                    reach_of)
