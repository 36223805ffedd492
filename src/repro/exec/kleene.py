"""Kleene physical operator (Section 4.4.3).

:class:`MaterializeKleene` evaluates its child once over all its spaces,
keeps the child's segments as sorted ``(owner, start, end)`` link codes,
and assembles "linked" chains by level-wise frontier expansion, for all
chain starts of all owners in lockstep: the ends reachable in ``k + 1``
repetitions are the link ends starting where the ``k``-repetition
frontier ends, found by ``searchsorted`` on the link codes.
Window-awareness is what makes it fast on long series (the OpenCEP_Q2
analysis in Section 6.3): the embedded window bounds each chain's end
range from its start position, so a frontier end past it is never
expanded.

A frontier is a set of ``(chain, end)`` pairs, i.e. chains deduplicate
on ``(end, reps)`` states, which keeps the search polynomial even when
exponentially many decompositions exist; without a repetition cap, ends
already expanded are dropped from later frontiers too.  Payloads of
chain members are not tracked (references *into* a Kleene body are
rejected by the planner's validator, matching the paper's scoping).
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence

import numpy as np

from repro.exec.base import (Env, ExecContext, PhysicalOperator, SetOperator,
                             clamp_spaces)
from repro.exec.batch import FREE, Batch, distinct, expand, member
from repro.lang.windows import WindowConjunction
from repro.plan.search_space import SearchSpace


class MaterializeKleene(SetOperator):
    """Assemble repeated child matches into Kleene chains."""

    name = "MaterializeKleene"

    def __init__(self, child: PhysicalOperator, min_reps: int,
                 max_reps: Optional[int], gap: int,
                 window: WindowConjunction,
                 publish: FrozenSet[str] = frozenset(),
                 requires: FrozenSet[str] = frozenset(),
                 window_aware: bool = True):
        super().__init__(window, publish=publish, requires=requires)
        if min_reps < 1:
            raise ValueError(
                "MaterializeKleene requires a minimum of one repetition; "
                "rewrite zero-minimum quantifiers (see DESIGN.md)")
        self.child = child
        self.min_reps = min_reps
        self.max_reps = max_reps
        self.gap = gap
        # window_aware=False models the ZStream/OpenCEP behaviour analysed
        # in Section 6.3: chains are only window-checked at emission, so the
        # BFS explores the full span regardless of the window bound.
        self.window_aware = window_aware

    def children(self):
        return (self.child,)

    def answer(self, ctx: ExecContext, spaces: Sequence[SearchSpace],
               refs: Env) -> Batch:
        self.check_refs(refs)
        owners, live = clamp_spaces(ctx, spaces)
        child = self.drain(ctx, self.child, live,
                           [owners[owner].kleene_child() for owner in live],
                           refs)
        if not child.rows:
            return Batch.empty(len(spaces))
        stride = len(ctx.series) + 2
        links = distinct(np.sort((child.owners * stride + child.starts)
                                 * stride + child.ends))
        ctx.tick(len(links))
        froms, tos = np.divmod(links, stride)
        singles = froms[:0]
        if self.gap == 0:
            # A zero-duration link makes no progress under shared
            # boundaries, so it never joins a chain — but the spec
            # (DESIGN.md §3, mirrored by the brute-force matcher) lets
            # the *final* repetition cover whatever remains, so a lone
            # zero-width repetition is a complete match on its own.
            single = froms % stride == tos
            if single.any():
                if self.min_reps <= 1:
                    singles = froms[single]
                froms, tos = froms[~single], tos[~single]
        # One chain per (owner, start) with a link or a single, clipped.
        chains = distinct(np.sort(np.concatenate((froms, singles)))
                          if len(singles) else froms)
        chain_owners, chain_starts = np.divmod(chains, stride)
        keep, e_lo, e_hi = self.clip(ctx, owners, chain_owners, chain_starts)
        # States are codes chain * stride + end, chain = position among
        # the kept chains.  The first frontier is every link of a kept
        # chain: links ascend by code, so its states are sorted, distinct.
        of_link = np.searchsorted(chains, froms)
        first = keep[of_link]
        ctx.tick(len(first))
        frontier = (np.cumsum(keep)[of_link[first]] - 1) * stride \
            + tos[first]
        chains, e_lo, e_hi = chains[keep], e_lo[keep], e_hi[keep]
        # Window pruning: a frontier end past its chain's e_hi is kept
        # (emission clips it) but never expanded.
        limit = e_hi if self.window_aware else np.array(
            [sp.e_hi for sp in owners], dtype=np.int64)[chain_owners[keep]]
        reached = singles[:0]
        if len(singles):
            alone = member(singles, chains)
            reached = np.flatnonzero(alone) * stride + chains[alone] % stride
        bases = chains - chains % stride  # owner * stride, per chain
        gap, min_reps, max_reps = self.gap, self.min_reps, self.max_reps
        charge = ctx.segment_budget is not None
        reps = 1
        while len(frontier):
            ctx.tick(len(frontier))
            if reps >= min_reps:
                if max_reps is None:  # then disjoint from reached
                    frontier = frontier[~member(reached, frontier)]
                    reached = np.sort(np.concatenate((reached, frontier)))
                else:
                    reached = distinct(np.sort(np.concatenate(
                        (reached, frontier))))
            if reps == max_reps:
                break
            at, ends = np.divmod(frontier, stride)
            joins = bases[at] + ends + gap
            lo = np.searchsorted(froms, joins, "left")
            hi = np.where(ends <= limit[at],
                          np.searchsorted(froms, joins, "right"), lo)
            frontier = self._grow(ctx, tos, stride, at, lo, hi)
            # Frontiers are the memory hot spot (O(n·reps) states can
            # exist); charge them like segments, one charge per level.
            if charge and len(frontier):
                ctx.charge(len(frontier))
            reps += 1
        # Chains ascend by (owner, start), so the reached codes are
        # already in emission order.
        at, ends = np.divmod(reached, stride)
        fits = (ends >= e_lo[at]) & (ends <= e_hi[at])
        owner, starts = np.divmod(chains[at[fits]], stride)
        return Batch(owner, starts, ends[fits], np.zeros(len(starts),
                                                         np.int64),
                     FREE, len(spaces))

    @staticmethod
    def _grow(ctx: ExecContext, tos: np.ndarray, stride: int,
              at: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The states ``at[i] * stride + tos[j]`` for every link ``j`` in
        ``[lo[i], hi[i])``, sorted and distinct."""
        grown = [distinct(np.sort(at[rows] * stride + tos[links]))
                 for rows, links in expand(ctx, lo, hi)]
        if len(grown) < 2:
            return grown[0] if grown else np.zeros(0, np.int64)
        return distinct(np.sort(np.concatenate(grown)))

    def describe(self) -> str:
        hi = "inf" if self.max_reps is None else self.max_reps
        return f"{self.name}{{{self.min_reps},{hi}}}(gap={self.gap})"
