"""ZStream- and OpenCEP-style batch tree executors (Section 6.3).

Both baselines are tree-based executors without T-ReX's search-space
machinery.  They share one substrate — a fixed-order, batch (Sort-Merge
style) physical plan — configured to capture each system's defining traits
as used in the paper's analysis:

* **ZStream** [41]: syntactic left-deep join order, hash/merge joins, no
  probe operators, window-*unaware* Kleene assembly (chains are checked
  against the window only at emission — see the OpenCEP_Q2 discussion).
* **OpenCEP** [20] (default tree executor): right-deep order, nested-loop
  ``And`` joins, equally window-unaware Kleene.

Both receive leaf window embedding and push-down (as the paper granted its
baselines when fairness demanded it), and computation sharing can be
toggled, mirroring Figure 22b.

Substitution note (DESIGN.md §4): these are behavioural stand-ins for the
original libraries, not ports.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.errors import PlanError
from repro.exec.base import Env, ExecContext, PhysicalOperator
from repro.exec.kleene import MaterializeKleene
from repro.exec.and_or import SortMergeAnd
from repro.lang.query import Query
from repro.lang.windows import WindowConjunction
from repro.optimizer.construct import (NOT_MATERIALIZE, SORT_MERGE,
                                       BuildResult, Construction,
                                       validate_scoping)
from repro.optimizer.rulebased import RuleBasedPlanner, RuleStrategy
from repro.plan.logical import LKleene, build_logical_plan
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment
from repro.timeseries.series import Series


class NestedLoopAnd(SortMergeAnd):
    """Quadratic nested-loop conjunction join (OpenCEP flavour)."""

    name = "NestedLoopAnd"

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        self.check_refs(refs)
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            return

        lefts = list(self.left.eval(ctx, sp, refs))
        rights = list(self.right.eval(ctx, sp, refs))
        seen = set()
        for left in lefts:
            for right in rights:
                ctx.tick()
                ctx.stats["nested_loop_pairs"] += 1
                if left.bounds != right.bounds or not self.window.accepts(
                        ctx.series, left.start, left.end):
                    continue
                joined = self.emit(left.with_payload(right.payload))
                if joined not in seen:
                    seen.add(joined)
                    ctx.stats["segments_emitted"] += 1
                    yield joined


class _NaiveConstruction(Construction):
    """Construction variant producing window-unaware Kleene operators and,
    optionally, nested-loop And joins."""

    def __init__(self, query: Query, sharing: str, nested_loop_and: bool):
        super().__init__(query, sharing=sharing)
        self.nested_loop_and = nested_loop_and

    def combine_and(self, left: BuildResult, right: BuildResult,
                    window: WindowConjunction, impl: str) -> BuildResult:
        if impl == SORT_MERGE and self.nested_loop_and:
            publish, requires = self._merged_meta(left.op, right.op)
            op = NestedLoopAnd(left.op, right.op, window, publish, requires)
            return BuildResult(op, left.lifted + right.lifted)
        return super().combine_and(left, right, window, impl)

    def build_kleene(self, child: BuildResult,
                     node: LKleene) -> BuildResult:
        if child.lifted:
            raise PlanError("conditions cannot be lifted out of a Kleene "
                            "body")
        op = MaterializeKleene(child.op, node.min_reps, node.max_reps,
                               node.gap, node.window, frozenset(),
                               child.op.requires, window_aware=False)
        return BuildResult(op)


class NaiveTreeExecutor:
    """Batch tree executor in ZStream or OpenCEP configuration."""

    def __init__(self, query: Query, flavour: str = "zstream",
                 sharing: bool = True,
                 timeout_seconds=None):
        if flavour not in ("zstream", "opencep"):
            raise PlanError(f"flavour must be 'zstream' or 'opencep', "
                            f"got {flavour!r}")
        self.query = query
        self.flavour = flavour
        self.name = "ZStream" if flavour == "zstream" else "OpenCEP"
        self.sharing = sharing
        logical = build_logical_plan(query)
        validate_scoping(query, logical)
        direction = "left" if flavour == "zstream" else "right"
        strategy = RuleStrategy(direction, "sm", NOT_MATERIALIZE)
        planner = RuleBasedPlanner(strategy,
                                   sharing="on" if sharing else "off")
        construction = _NaiveConstruction(
            query, sharing="on" if sharing else "off",
            nested_loop_and=(flavour == "opencep"))
        result = planner._build(logical, construction, frozenset())
        result = construction.apply_filter(result, logical.window)
        if result.lifted or result.op.requires:
            raise PlanError("naive tree executor could not resolve "
                            "references")
        self.plan: PhysicalOperator = result.op
        self.timeout_seconds = timeout_seconds

    def match_series(self, series: Series) -> List[Tuple[int, int]]:
        import time
        deadline = None
        if self.timeout_seconds is not None:
            deadline = time.perf_counter() + self.timeout_seconds
        ctx = ExecContext(series, self.query.registry, deadline=deadline)
        if self.sharing:
            calls = []
            # trex: no-tick(bounded by the query's variable count)
            for var in self.query.variables.values():
                calls.extend(var.aggregate_calls())
            ctx.prebuild_indexes(calls)
        sp = SearchSpace.full(len(series))
        seen = set()
        for segment in self.plan.eval(ctx, sp, {}):
            seen.add(segment.bounds)
        return sorted(seen)
