"""Rule-based physical planners — the Table 4 baselines.

A :class:`RuleStrategy` fixes every choice the cost-based optimizer would
otherwise make (Section 6.2.1):

* ``direction``: ``'left'`` (left-deep) or ``'right'`` (right-deep) join
  trees for n-ary Concat/And chains;
* ``binary``: ``'probe'`` (Right-Probe for left-deep, Left-Probe for
  right-deep) or ``'sm'`` (Sort-Merge);
* ``not_impl``: ``'materialize'`` or ``'probe'``;
* leaves always prefer SegGenIndexing when eligible (the paper's rule (3)).

Reference handling is automatic: leaves whose references are unavailable at
their evaluation position are lifted into a Filter (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence

from repro.errors import PlanError
from repro.exec.base import PhysicalOperator
from repro.lang.query import Query
from repro.optimizer.construct import (LEFT_PROBE, NOT_MATERIALIZE,
                                       NOT_PROBE, RIGHT_PROBE, SORT_MERGE,
                                       BuildResult, Construction,
                                       validate_scoping)
from repro.plan.logical import (LAnd, LConcat, LKleene, LNot, LOr, LVar,
                                LogicalNode, build_logical_plan)


@dataclass(frozen=True)
class RuleStrategy:
    """One rule-based plan family (e.g. ``pr_left``, ``sm_right_pnot``)."""

    direction: str = "left"       # 'left' | 'right'
    binary: str = "probe"         # 'probe' | 'sm'
    not_impl: str = NOT_MATERIALIZE

    @property
    def label(self) -> str:
        base = f"{'pr' if self.binary == 'probe' else 'sm'}_{self.direction}"
        if self.not_impl == NOT_PROBE:
            return base + "_pnot"
        return base

    @property
    def binary_impl(self) -> str:
        if self.binary == "sm":
            return SORT_MERGE
        return RIGHT_PROBE if self.direction == "left" else LEFT_PROBE


#: The four Not-free baselines of Table 4.
BASELINE_STRATEGIES = [
    RuleStrategy("left", "probe"),
    RuleStrategy("right", "probe"),
    RuleStrategy("left", "sm"),
    RuleStrategy("right", "sm"),
]

#: The additional ProbeNot variants used for queries containing a Not.
BASELINE_STRATEGIES_WITH_NOT = BASELINE_STRATEGIES + [
    RuleStrategy("left", "probe", NOT_PROBE),
    RuleStrategy("right", "probe", NOT_PROBE),
    RuleStrategy("left", "sm", NOT_PROBE),
    RuleStrategy("right", "sm", NOT_PROBE),
]


class RuleBasedPlanner:
    """Builds a physical plan for a query following one strategy."""

    def __init__(self, strategy: RuleStrategy, sharing: str = "on"):
        self.strategy = strategy
        self.sharing = sharing

    def plan(self, query: Query,
             logical: LogicalNode = None) -> PhysicalOperator:
        if logical is None:
            logical = build_logical_plan(query)
        validate_scoping(query, logical)
        construction = Construction(query, sharing=self.sharing)
        result = self._build(logical, construction, frozenset())
        result = construction.apply_filter(result, logical.window)
        if result.lifted:
            raise PlanError("unresolvable lifted conditions remain at the "
                            "plan root")
        missing = set(result.op.requires)
        if missing:
            raise PlanError(f"plan root still requires references "
                            f"{sorted(missing)}")
        from repro.analysis.plan_verify import reference_flow
        violations = reference_flow(result.op)
        if violations:
            raise PlanError("invalid physical plan: "
                            + "; ".join(diag.message for diag in violations))
        return result.op

    # -- recursive construction ----------------------------------------------

    def _build(self, node: LogicalNode, construction: Construction,
               available: FrozenSet[str]) -> BuildResult:
        if isinstance(node, LVar):
            needs_lift = not set(node.var.external_refs) <= set(available)
            return construction.leaf(node, lift=needs_lift)
        if isinstance(node, LAnd):
            return self._build_and(node, construction, available)
        if isinstance(node, LConcat):
            return self._build_concat(node, construction, available)
        if isinstance(node, LOr):
            return self._fold_or(node, construction, available)
        if isinstance(node, LNot):
            child = self._build(node.child, construction, available)
            return construction.build_not(child, node.window,
                                          self.strategy.not_impl)
        if isinstance(node, LKleene):
            child = self._build(node.child, construction, available)
            return construction.build_kleene(child, node)
        raise PlanError(f"unknown logical node {node!r}")

    def _build_and(self, node: LAnd, construction: Construction,
                   available: FrozenSet[str]) -> BuildResult:
        parts: Sequence[LogicalNode] = node.parts
        use_probe = self.strategy.binary == "probe"
        if use_probe:
            order, _ = Construction.order_for_probes(parts, available)
        else:
            order = list(range(len(parts)))
        if self.strategy.direction == "right":
            # Right-deep: the rightmost child is the first anchor, so place
            # providers later in the syntactic chain.
            order = list(reversed(order))
        impl = self.strategy.binary_impl
        sequence = [parts[i] for i in order]
        if self.strategy.direction == "left":
            result = self._build(sequence[0], construction, available)
            bound = available | result.op.publish
            for part in sequence[1:]:
                part_available = bound if use_probe else available
                built = self._build(part, construction, part_available)
                result = construction.combine_and(result, built, node.window,
                                                  impl)
                result = construction.maybe_resolve_lifts(
                    result, available, node.window)
                bound = bound | result.op.publish
            return result
        # Right-deep fold.
        result = self._build(sequence[-1], construction, available)
        bound = available | result.op.publish
        for part in reversed(sequence[:-1]):
            part_available = bound if use_probe else available
            built = self._build(part, construction, part_available)
            result = construction.combine_and(built, result, node.window,
                                              impl)
            result = construction.maybe_resolve_lifts(result, available,
                                                      node.window)
            bound = bound | result.op.publish
        return result

    def _build_concat(self, node: LConcat, construction: Construction,
                      available: FrozenSet[str]) -> BuildResult:
        parts = node.parts
        gaps = node.gaps
        use_probe = self.strategy.binary == "probe"
        impl = self.strategy.binary_impl
        relaxed = node.window.relax_lower()
        if self.strategy.direction == "left":
            # Evaluate parts left to right; only references flowing
            # left→right can be served (others lift automatically).
            result = self._build(parts[0], construction, available)
            bound = available | result.op.publish
            for index in range(1, len(parts)):
                window = node.window if index == len(parts) - 1 else relaxed
                part_available = bound if use_probe else available
                built = self._build(parts[index], construction,
                                    part_available)
                result = construction.combine_concat(
                    result, built, gaps[index - 1], window, impl)
                result = construction.maybe_resolve_lifts(result, available,
                                                          window)
                bound = bound | result.op.publish
            return result
        # Right-deep: evaluate right to left.
        result = self._build(parts[-1], construction, available)
        bound = available | result.op.publish
        for index in range(len(parts) - 2, -1, -1):
            window = node.window if index == 0 else relaxed
            part_available = bound if use_probe else available
            built = self._build(parts[index], construction, part_available)
            result = construction.combine_concat(built, result, gaps[index],
                                                 window, impl)
            result = construction.maybe_resolve_lifts(result, available,
                                                      window)
            bound = bound | result.op.publish
        return result

    def _fold_or(self, node: LOr, construction: Construction,
                 available: FrozenSet[str]) -> BuildResult:
        built: List[BuildResult] = [
            self._build(part, construction, available)
            for part in node.parts
        ]
        result = built[0]
        for other in built[1:]:
            result = construction.combine_or(result, other, node.window)
        return result
