"""Segment Generators — leaf physical operators (Section 4.2).

* :class:`SegGenWindow` emits every windowed segment in the search space
  (window-only variables, e.g. wild padding ``W``);
* :class:`SegGenFilter` additionally evaluates the embedded variable's
  condition directly per segment;
* :class:`SegGenIndexing` evaluates the condition through shared aggregate
  indexes (``index()``/``lookup()``), amortizing aggregate work across
  overlapping segments.

Both condition leaves enumerate their candidates once
(:func:`repro.exec.vector.candidate_runs`) and evaluate them with the
batch kernels or the scalar loop, chosen per call from the candidate
count (:func:`repro.exec.vector.try_eval`, docs/VECTORIZATION.md).  A
probe operator's spaces arrive together through ``eval_spaces``, where
the choice is made on the call's total
(:func:`repro.exec.vector.eval_spaces`).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from repro.exec import vector
from repro.exec.base import Env, ExecContext, PhysicalOperator
from repro.lang import expr as E
from repro.lang.query import VarDef
from repro.lang.windows import WindowConjunction
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment


class SegGenWindow(PhysicalOperator):
    """Emit all windowed segments in the search space (no condition)."""

    name = "SegGenWindow"

    def __init__(self, window: WindowConjunction, var_name: str = "",
                 publish: FrozenSet[str] = frozenset()):
        super().__init__(window, publish=publish)
        self.var_name = var_name

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            return
        payload_name = self.var_name if self.var_name in self.publish else None
        for start, end in self.window.iterate_box(ctx.series, sp.s_lo, sp.s_hi,
                                              sp.e_lo, sp.e_hi):
            ctx.tick()
            ctx.stats["segments_emitted"] += 1
            if payload_name is not None:
                yield Segment(start, end, {payload_name: (start, end)})
            else:
                yield Segment(start, end)

    def describe(self) -> str:
        label = f"({self.var_name})" if self.var_name else ""
        return f"{self.name}{label}"


class _ConditionLeaf(PhysicalOperator):
    """Shared plumbing for condition-evaluating leaves."""

    #: Which aggregate-provider semantics the vector kernels must mirror
    #: ("direct" or "indexed"); see :func:`repro.exec.vector.try_eval`.
    vector_provider = "direct"

    def __init__(self, var: VarDef, window: WindowConjunction,
                 publish: FrozenSet[str] = frozenset()):
        super().__init__(window, publish=publish,
                         requires=frozenset(var.external_refs))
        self.var = var

    def _provider(self, ctx: ExecContext) -> E.AggregateProvider:
        raise NotImplementedError

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        self.check_refs(refs)
        # Hoisted metric sink: one is-None check per candidate when off.
        metrics = ctx.metrics
        record = metrics.for_op(self) if metrics is not None else None
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            if record is not None:
                record.scalar_calls += 1
            return
        # One enumerator (vector.candidate_runs), two evaluators: the
        # batch kernels, or the loop below when the condition has no
        # exact batch form or the call is too small to repay them.
        batched = vector.try_eval(self, ctx, sp, refs, record,
                                  self.vector_provider)
        if batched is None:
            self.note_scalar(ctx, record)
            batched = self.scalar(ctx, vector.pairs(
                *vector.candidate_runs(self, ctx, sp)), refs, record)
        yield from batched

    def eval_spaces(self, ctx: ExecContext, spaces: Sequence[SearchSpace],
                    refs: Env) -> List[List[Segment]]:
        self.check_refs(refs)
        metrics = ctx.metrics
        return vector.eval_spaces(
            self, ctx, spaces, refs,
            metrics.for_op(self) if metrics is not None else None,
            self.vector_provider)

    def note_scalar(self, ctx: ExecContext, record) -> None:
        """Count one call taking the scalar evaluator, and the static
        reason (if any) the condition has no batch form."""
        if record is not None:
            record.scalar_calls += 1
            if record.fallback is None:
                record.fallback = vector.compile_condition(
                    self.var, self.vector_provider, ctx.registry)[1]

    def scalar(self, ctx: ExecContext, candidates: Iterable[Tuple[int, int]],
               refs: Env, record) -> Iterator[Segment]:
        """The scalar evaluator: one interpreted condition walk per
        ``(start, end)`` candidate."""
        var = self.var
        provider = self._provider(ctx)
        publish_self = var.name in self.publish
        for start, end in candidates:
            ctx.tick()
            ectx = E.EvalContext(ctx.series, start, end, variable=var.name,
                                 refs=refs, provider=provider,
                                 registry=ctx.registry)
            ctx.stats["condition_evals"] += 1
            if record is not None:
                record.counters["condition_evals"] += 1
            if E.evaluate_condition(var.condition, ectx):
                ctx.stats["segments_emitted"] += 1
                if publish_self:
                    yield Segment(start, end, {var.name: (start, end)})
                else:
                    yield Segment(start, end)

    def describe(self) -> str:
        return f"{self.name}({self.var.name})"


class SegGenFilter(_ConditionLeaf):
    """Leaf that evaluates the variable's condition directly per segment."""

    name = "SegGenFilter"
    vector_provider = "direct"

    def _provider(self, ctx: ExecContext) -> E.AggregateProvider:
        return ctx.direct_provider


class SegGenIndexing(_ConditionLeaf):
    """Leaf that answers aggregate conditions from shared indexes."""

    name = "SegGenIndexing"
    vector_provider = "indexed"

    def _provider(self, ctx: ExecContext) -> E.AggregateProvider:
        return ctx.indexed_provider
