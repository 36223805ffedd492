"""Filter physical operator (Section 4.4.1).

A :class:`FilterOp` carries *lifted* conditions: conditions whose owning
variables were replaced by unfiltered leaves (``SegGenWindow``) deeper in
the tree, typically because a Sort-Merge join's children must be
independent, or because sibling sub-patterns reference each other
cyclically.  Each condition is evaluated against its owner's segment taken
from the flowing segment's payload (Figure 6) — like evaluating a join
predicate that could not be pushed down.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from repro.exec.base import Env, ExecContext, PhysicalOperator, clamp_spaces
from repro.exec.batch import Batch
from repro.lang import expr as E
from repro.lang.windows import WindowConjunction
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment

#: One lifted condition: (owner variable name, condition expression).
LiftedCondition = Tuple[str, E.Expr]


class FilterOp(PhysicalOperator):
    """Evaluate lifted conditions on segments produced by the child."""

    name = "Filter"

    def __init__(self, child: PhysicalOperator,
                 conditions: List[LiftedCondition],
                 window: WindowConjunction, use_index: bool = True,
                 publish: FrozenSet[str] = frozenset(),
                 requires: FrozenSet[str] = frozenset()):
        super().__init__(window, publish=publish, requires=requires)
        self.child = child
        self.conditions = list(conditions)
        self.use_index = use_index

    def children(self):
        return (self.child,)

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        self.check_refs(refs)
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            return
        yield from self._filter(ctx, self.child.eval(ctx, sp, refs), refs)

    # trex: no-charge(its consumer charges the batch it keeps)
    def eval_spaces(self, ctx: ExecContext, spaces: Sequence[SearchSpace],
                    refs: Env) -> Batch:
        """The child answers every non-empty space in one
        ``eval_spaces`` call, and each space's segments, read through
        the batch's per-owner view, are filtered in their own order."""
        self.check_refs(refs)
        owners, live = clamp_spaces(ctx, spaces)
        found: List[List[Segment]] = [[] for _ in spaces]
        if live:
            for owner, segments in zip(live, self.child.eval_spaces(
                    ctx, [owners[owner] for owner in live], refs)):
                found[owner] = list(self._filter(ctx, segments, refs))
        return Batch.of(found)

    def _filter(self, ctx: ExecContext, segments: Iterable[Segment],
                refs: Env) -> Iterator[Segment]:
        provider = ctx.indexed_provider if self.use_index \
            else ctx.direct_provider
        for segment in segments:
            ctx.tick()
            env = dict(refs)
            env.update(segment.payload)
            if self._passes(ctx, segment, env, provider):
                ctx.stats["segments_emitted"] += 1
                yield self.emit(segment)

    def _passes(self, ctx: ExecContext, segment: Segment, env: Env,
                provider: E.AggregateProvider) -> bool:
        # trex: no-tick(bounded by the query's lifted condition count)
        for owner, condition in self.conditions:
            owner_segment = env.get(owner, segment.bounds)
            ectx = E.EvalContext(ctx.series, owner_segment[0],
                                 owner_segment[1], variable=owner, refs=env,
                                 provider=provider, registry=ctx.registry)
            ctx.stats["condition_evals"] += 1
            ctx.count(self, "condition_evals")
            if not E.evaluate_condition(condition, ectx):
                return False
        return True

    def describe(self) -> str:
        owners = ", ".join(owner for owner, _ in self.conditions)
        return f"{self.name}({owners})"
