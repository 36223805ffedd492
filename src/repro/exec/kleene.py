"""Kleene physical operator (Section 4.4.3).

:class:`MaterializeKleene` evaluates its child once, holds the child's
segments as start -> end-set adjacency, and assembles "linked" chains by
level-wise frontier expansion: the ends reachable in ``k + 1`` repetitions
are the union of the end-sets starting where the ``k``-repetition frontier
ends.  Window-awareness is what makes it fast on long series (the
OpenCEP_Q2 analysis in Section 6.3): the embedded window bounds each
chain's end range from its start position, so every frontier is clipped as
soon as it out-spans the window.

A frontier is a set of ends, i.e. chains deduplicate on ``(end, reps)``
states, which keeps the search polynomial even when exponentially many
decompositions exist; without a repetition cap, ends already expanded are
dropped from later frontiers too.  Payloads of chain members are not
tracked (references *into* a Kleene body are rejected by the planner's
validator, matching the paper's scoping).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional, Set

from repro.exec.base import Env, ExecContext, PhysicalOperator, adjacency
from repro.lang.windows import WindowConjunction
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment


class MaterializeKleene(PhysicalOperator):
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

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        self.check_refs(refs)
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            return
        links: Dict[int, Set[int]] = {}
        singles: Set[int] = set()
        for start, by_key in adjacency(ctx, self.child.eval(
                ctx, sp.kleene_child(), refs), frozenset()).items():
            ctx.tick()
            ends = by_key[()]
            if self.gap == 0 and start in ends:
                # A zero-duration link makes no progress under shared
                # boundaries, so it never joins a chain — but the spec
                # (DESIGN.md §3, mirrored by the brute-force matcher) lets
                # the *final* repetition cover whatever remains, so a lone
                # zero-width repetition is a complete match on its own.
                ends.discard(start)
                if self.min_reps <= 1:
                    singles.add(start)
            if ends:
                links[start] = ends

        charge = ctx.segment_budget is not None

        gap, min_reps, max_reps = self.gap, self.min_reps, self.max_reps

        def reach_of(start: int, e_hi: int) -> Dict[tuple, Set[int]]:
            # Window pruning: e_hi is the furthest end a chain from
            # `start` may reach; ends past it are kept (emission clips
            # them) but never expanded.
            if not self.window_aware:
                e_hi = sp.e_hi
            reached = {start} if start in singles else set()
            frontier, reps = links.get(start, ()), 1
            while frontier:
                ctx.tick()
                if reps >= min_reps:
                    if max_reps is None and reached:
                        frontier = frontier - reached  # already expanded
                    reached |= frontier
                if reps == max_reps:
                    break
                grown: Set[int] = set()
                for end in frontier:
                    ctx.tick()
                    if end <= e_hi and end + gap in links:
                        grown |= links[end + gap]
                # Frontiers are the memory hot spot (O(n·reps) states
                # can exist); charge them like segments.
                if charge:
                    ctx.charge(len(grown))
                frontier, reps = grown, reps + 1
            return {(): reached}

        yield from self.emit_starts(ctx, sp, links.keys() | singles,
                                    reach_of)

    def describe(self) -> str:
        hi = "inf" if self.max_reps is None else self.max_reps
        return f"{self.name}{{{self.min_reps},{hi}}}(gap={self.gap})"
