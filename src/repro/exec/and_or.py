"""And / Or physical operators (Section 4.3).

An ``And`` joins segments with *identical* positions; the search space is
passed to children unchanged.  Probe variants collapse the probed child's
space to the exact segment produced by the other child — the paper's key
pruning device for conjunctions (e.g. DIFF pruning DOWN) — and hand all
of the driving child's exact spaces to the probed child in one call
(:class:`~repro.exec.base.ProbeOperator`).

An ``Or`` unions both children's emissions; no probe variant exists.

The sort-merge variants evaluate each child once over all their spaces
and join owner-tagged batches (docs/VECTORIZATION.md, "Past the leaf:
the join stage"): And pairs the rows with equal ``(owner, start, end)``
codes by ``searchsorted``, Or takes the union of both sides.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from repro.exec.base import (Env, ExecContext, PhysicalOperator,
                             ProbeOperator, SetOperator, clamp_spaces,
                             owners_of, projected_key)
from repro.exec.batch import (FREE, Batch, PayloadKey, expand, joined,
                              member, merged_key, ordered, sorted_codes)
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


class SortMergeAnd(SetOperator, _Binary):
    """Evaluate both children once, join segments with identical bounds."""

    name = "SortMergeAnd"

    def answer(self, ctx: ExecContext, spaces: Sequence[SearchSpace],
               refs: Env) -> Batch:
        self.check_refs(refs)
        owners, live = clamp_spaces(ctx, spaces)
        lefts = self.drain(ctx, self.left, live,
                           [owners[owner] for owner in live], refs)
        if not lefts.rows:
            return Batch.empty(len(spaces))  # early termination
        asked = owners_of(lefts)
        rights = self.drain(ctx, self.right, asked,
                            [owners[owner] for owner in asked], refs)
        if not rights.rows:
            return Batch.empty(len(spaces))
        keep, e_lo, e_hi = self.clip(ctx, owners, lefts.owners,
                                     lefts.starts)
        keep &= (lefts.ends >= e_lo) & (lefts.ends <= e_hi)
        stride = len(ctx.series) + 1
        order, codes = sorted_codes(
            (rights.owners * stride + rights.starts) * stride + rights.ends)
        joins = (lefts.owners * stride + lefts.starts) * stride + lefts.ends
        if lefts.table == FREE and rights.table == FREE:
            # No payloads to pair up: the answer is the intersection.
            keep &= member(codes, joins)
            return ordered(ctx, len(spaces), lefts.owners[keep],
                           lefts.starts[keep], lefts.ends[keep], None, FREE)
        lo = np.searchsorted(codes, joins, "left")
        # A clipped-away left row matches nothing.
        hi = np.where(keep, np.searchsorted(codes, joins, "right"), lo)
        blocks = ((at, order[matched])
                  for at, matched in expand(ctx, lo, hi))
        return joined(ctx, len(spaces), lefts, rights, blocks)


class _ProbeAnd(ProbeOperator, _Binary):
    """Enumerate one child; probe the other with the exact segment."""

    def driver_space(self, sp: SearchSpace) -> SearchSpace:
        return sp

    def probe_space(self, ctx: ExecContext, sp: SearchSpace,
                    anchor: Segment) -> SearchSpace:
        return SearchSpace.exact(anchor.start, anchor.end)

    def joined(self, ctx: ExecContext, anchor: Segment,
               found: List[Segment]) -> Set[Tuple[int, int, PayloadKey]]:
        # The exact probe pins the bounds but not this operator's own
        # window, which the driver never saw.
        if not self.window.accepts(ctx.series, anchor.start, anchor.end):
            return set()
        akey = projected_key(anchor, self.publish)
        return {(anchor.start, anchor.end,
                 merged_key(akey, projected_key(other, self.publish)))
                for other in found}


class RightProbeAnd(_ProbeAnd):
    """Enumerate the left child; probe the right with the exact segment."""

    name = "RightProbeAnd"

    @property
    def driver(self) -> PhysicalOperator:
        return self.left

    @property
    def probed(self) -> PhysicalOperator:
        return self.right


class LeftProbeAnd(_ProbeAnd):
    """Enumerate the right child; probe the left with the exact segment."""

    name = "LeftProbeAnd"

    @property
    def driver(self) -> PhysicalOperator:
        return self.right

    @property
    def probed(self) -> PhysicalOperator:
        return self.left


class SortMergeOr(SetOperator, _Binary):
    """Union of both children's matches within the search space."""

    name = "SortMergeOr"

    def answer(self, ctx: ExecContext, spaces: Sequence[SearchSpace],
               refs: Env) -> Batch:
        self.check_refs(refs)
        owners, live = clamp_spaces(ctx, spaces)
        sides = [self.drain(ctx, child, live,
                            [owners[owner] for owner in live], refs)
                 for child in (self.left, self.right)]
        table = tuple(sorted(set(sides[0].table) | set(sides[1].table)))
        rank = {key: at for at, key in enumerate(table)}
        keys = np.concatenate([
            np.array([rank[key] for key in side.table],
                     dtype=np.int64)[side.keys] for side in sides])
        owner, starts, ends = (np.concatenate(column) for column in zip(
            *((side.owners, side.starts, side.ends) for side in sides)))
        keep, e_lo, e_hi = self.clip(ctx, owners, owner, starts)
        keep &= (ends >= e_lo) & (ends <= e_hi)
        return ordered(ctx, len(spaces), owner[keep], starts[keep],
                       ends[keep], None if table == FREE else keys[keep],
                       table)
