"""Physical plan construction shared by rule-based and cost-based planners.

This module turns logical nodes into physical operators given *decisions*
(join order, binary operator implementation, Not implementation, leaf
implementation) and handles the cross-cutting concerns:

* computing which variable names must be *published* in payloads,
* ordering sibling sub-trees so referenced segments are bound before use,
* **Filter lifting**: when a chosen operator cannot deliver references to a
  consumer (Sort-Merge independence, or cyclic references), the consumer
  leaf's condition is lifted into a :class:`FilterOp` placed at the first
  ancestor where every referenced segment is available, and the leaf is
  replaced by an unfiltered ``SegGenWindow`` (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import PlanError
from repro.exec.and_or import (LeftProbeAnd, RightProbeAnd, SortMergeAnd,
                               SortMergeOr)
from repro.exec.base import PhysicalOperator
from repro.exec.concat import (LeftProbeConcat, RightProbeConcat,
                               SortMergeConcat, WildWindowConcat)
from repro.exec.filter_op import FilterOp, LiftedCondition
from repro.exec.kleene import MaterializeKleene
from repro.exec.not_op import MaterializeNot, ProbeNot
from repro.exec.seggen import SegGenFilter, SegGenIndexing, SegGenWindow
from repro.lang.query import Query, VarDef
from repro.lang.windows import WindowConjunction
from repro.plan.logical import LKleene, LNot, LVar, LogicalNode, walk

#: Binary implementation choices.
SORT_MERGE = "sm"
RIGHT_PROBE = "rp"
LEFT_PROBE = "lp"

#: Not implementation choices.
NOT_MATERIALIZE = "materialize"
NOT_PROBE = "probe"

#: Leaf implementation choices.
LEAF_INDEXING = "indexing"
LEAF_FILTER = "filter"

#: What a binary, Not or Kleene operator was built for: its logical node
#: and, over an n-ary chain, the node's part indices under the operator's
#: left and right child.  Recorded on the operator as ``op.origin`` so
#: ``CostBasedPlanner.price`` can ask the logical plan what the DP asked.
Origin = Tuple[LogicalNode, FrozenSet[int], FrozenSet[int]]

#: The operator class of each binary implementation choice.
CONCAT_OPS = {SORT_MERGE: SortMergeConcat, RIGHT_PROBE: RightProbeConcat,
              LEFT_PROBE: LeftProbeConcat}
AND_OPS = {SORT_MERGE: SortMergeAnd, RIGHT_PROBE: RightProbeAnd,
           LEFT_PROBE: LeftProbeAnd}


def publish_set(query: Query) -> FrozenSet[str]:
    """Variable names that may need to travel in payloads.

    This is the set of variables referenced by other variables' conditions,
    plus the owners of potentially lifted conditions (variables whose own
    conditions hold external references).
    """
    names: Set[str] = set()
    for var in query.variables.values():
        names |= set(var.external_refs)
        if var.external_refs:
            names.add(var.name)
    return frozenset(names)


def var_is_indexable(var: VarDef, query: Query) -> bool:
    """Whether the variable's condition benefits from SegGenIndexing."""
    calls = var.aggregate_calls()
    if not calls:
        return False
    for call in calls:
        agg = query.registry.get(call.name)
        if getattr(agg, "needs_series_context", False):
            continue
        if not agg.supports_index:
            continue
        if all(ref.variable in (None, var.name) for ref in call.columns):
            return True
    return False


def validate_scoping(query: Query, root: LogicalNode) -> None:
    """Reject references into Kleene bodies or Not bodies from outside."""
    referenced = query.referenced_variables()
    for node in walk(root):
        if isinstance(node, LKleene):
            inner = {n.var.name for n in walk(node.child)
                     if isinstance(n, LVar)}
            outside_consumers = set()
            for other in query.variables.values():
                if other.name not in inner and (
                        set(other.external_refs) & inner):
                    outside_consumers.add(other.name)
            if outside_consumers:
                raise PlanError(
                    f"variables {sorted(outside_consumers)} reference "
                    f"segments inside a Kleene body {sorted(inner)}; such "
                    f"references are not supported")
        if isinstance(node, LNot):
            inner = {n.var.name for n in walk(node.child)
                     if isinstance(n, LVar)}
            outside = inner & referenced
            consumers_outside = set()
            for other in query.variables.values():
                if other.name not in inner and (
                        set(other.external_refs) & inner):
                    consumers_outside.add(other.name)
            if consumers_outside:
                raise PlanError(
                    f"variables {sorted(consumers_outside)} reference "
                    f"segments inside a Not body; a negation binds nothing")
            del outside


@dataclass
class BuildResult:
    """A constructed operator plus conditions still waiting to be lifted."""

    op: PhysicalOperator
    lifted: List[LiftedCondition] = field(default_factory=list)


class Construction:
    """Stateless helpers bound to one query + publish set + sharing mode."""

    def __init__(self, query: Query, sharing: str = "on"):
        if sharing not in ("on", "off"):
            raise PlanError(f"sharing mode must be 'on' or 'off' at "
                            f"construction level, got {sharing!r}")
        self.query = query
        self.sharing = sharing
        self.publish = publish_set(query)

    # -- leaves --------------------------------------------------------------

    def leaf(self, node: LVar, impl: Optional[str] = None,
             lift: bool = False) -> BuildResult:
        """Build a leaf operator; ``lift=True`` forces the Figure-6 form
        (SegGenWindow + lifted condition)."""
        var = node.var
        pub = self.publish & {var.name}
        if var.condition is None:
            return BuildResult(SegGenWindow(node.window, var.name, pub))
        if lift:
            op = SegGenWindow(node.window, var.name,
                              pub | frozenset({var.name}))
            return BuildResult(op, [(var.name, var.condition)])
        if impl is None:
            impl = (LEAF_INDEXING
                    if self.sharing == "on" and var_is_indexable(var,
                                                                 self.query)
                    else LEAF_FILTER)
        if impl == LEAF_INDEXING:
            op: "PhysicalOperator" = SegGenIndexing(var, node.window, pub)
        else:
            op = SegGenFilter(var, node.window, pub)
        return BuildResult(op)

    # -- binary combines -----------------------------------------------------

    def _merged_meta(self, left: PhysicalOperator, right: PhysicalOperator):
        provides_publish = (left.publish | right.publish) & self.publish
        requires = (left.requires | right.requires) - self._provided(left) \
            - self._provided(right)
        return provides_publish, frozenset(requires)

    @staticmethod
    def _provided(op: PhysicalOperator) -> Set[str]:
        return set(op.publish)

    @staticmethod
    def _binary(op: PhysicalOperator, left: BuildResult, right: BuildResult,
                origin: Origin) -> BuildResult:
        op.origin = origin
        return BuildResult(op, left.lifted + right.lifted)

    def combine_concat(self, left: BuildResult, right: BuildResult,
                       window: WindowConjunction, impl: str,
                       origin: Origin) -> BuildResult:
        """``parts[left] · parts[right]`` of the LConcat ``origin[0]``."""
        publish, requires = self._merged_meta(left.op, right.op)
        gap = origin[0].gaps[max(origin[1])]
        op = CONCAT_OPS[impl](left.op, right.op, gap, window, publish,
                              requires)
        return self._binary(op, left, right, origin)

    def combine_and(self, left: BuildResult, right: BuildResult,
                    window: WindowConjunction, impl: str,
                    origin: Origin) -> BuildResult:
        publish, requires = self._merged_meta(left.op, right.op)
        op = AND_OPS[impl](left.op, right.op, window, publish, requires)
        return self._binary(op, left, right, origin)

    def combine_or(self, left: BuildResult, right: BuildResult,
                   window: WindowConjunction, origin: Origin) -> BuildResult:
        publish, requires = self._merged_meta(left.op, right.op)
        op = SortMergeOr(left.op, right.op, window, publish, requires)
        return self._binary(op, left, right, origin)

    def wild_concat(self, left: BuildResult, right: BuildResult,
                    window: WindowConjunction, origin: Origin) -> BuildResult:
        """``parts[left] · PAD · parts[right]`` of the LConcat
        ``origin[0]``, the pad being the one part between the two."""
        publish, requires = self._merged_meta(left.op, right.op)
        node, left_parts, _right_parts = origin
        pad = max(left_parts) + 1
        op = WildWindowConcat(left.op, right.op, node.parts[pad].window,
                              window, publish, requires,
                              gap_left=node.gaps[pad - 1],
                              gap_right=node.gaps[pad])
        return self._binary(op, left, right, origin)

    # -- unary ---------------------------------------------------------------

    def build_not(self, child: BuildResult, node: LNot,
                  impl: str) -> BuildResult:
        if child.lifted:
            raise PlanError("conditions cannot be lifted out of a Not "
                            "operator (Section 4.4.2)")
        cls = MaterializeNot if impl == NOT_MATERIALIZE else ProbeNot
        op = cls(child.op, node.window, frozenset(), child.op.requires)
        op.origin = (node, frozenset(), frozenset())
        return BuildResult(op)

    def build_kleene(self, child: BuildResult, node: LKleene) -> BuildResult:
        if child.lifted:
            raise PlanError("conditions cannot be lifted out of a Kleene "
                            "body")
        op = MaterializeKleene(child.op, node.min_reps, node.max_reps,
                               node.gap, node.window, frozenset(),
                               child.op.requires)
        op.origin = (node, frozenset(), frozenset())
        return BuildResult(op)

    def apply_filter(self, result: BuildResult,
                     window: WindowConjunction) -> BuildResult:
        """Place a FilterOp over ``result`` resolving its lifted conditions."""
        if not result.lifted:
            return result
        op = FilterOp(result.op, result.lifted, window,
                      use_index=self.sharing == "on",
                      publish=result.op.publish & self.publish,
                      requires=result.op.requires)
        return BuildResult(op)

    def maybe_resolve_lifts(self, result: BuildResult,
                            available: FrozenSet[str],
                            window: WindowConjunction) -> BuildResult:
        """Apply a FilterOp for every lifted condition whose references are
        bound at this point; keep the rest pending."""
        if not result.lifted:
            return result
        from repro.lang import expr as E
        bound = set(result.op.publish) | set(available)
        ready: List[LiftedCondition] = []
        waiting: List[LiftedCondition] = []
        for owner, condition in result.lifted:
            needed = set(E.external_references(condition, owner)) | {owner}
            if needed <= bound:
                ready.append((owner, condition))
            else:
                waiting.append((owner, condition))
        if not ready:
            return result
        filtered = self.apply_filter(BuildResult(result.op, ready), window)
        return BuildResult(filtered.op, waiting)

    # -- ordering ------------------------------------------------------------

    @staticmethod
    def order_for_probes(parts: Sequence[LogicalNode],
                         available: FrozenSet[str]) -> Tuple[List[int], bool]:
        """Topological order of And parts so providers precede consumers.

        Returns (order, acyclic).  Stable: keeps the original order among
        unconstrained parts.  When a reference cycle exists, returns the
        original order with ``acyclic=False`` (callers must lift).
        """
        n = len(parts)
        remaining = list(range(n))
        ordered: List[int] = []
        bound: Set[str] = set(available)
        while remaining:
            progressed = False
            for index in list(remaining):
                if set(parts[index].requires) <= bound:
                    ordered.append(index)
                    remaining.remove(index)
                    bound |= set(parts[index].provides)
                    progressed = True
            if not progressed:
                return list(range(n)), False
        return ordered, True
