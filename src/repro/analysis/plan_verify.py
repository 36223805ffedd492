"""Pass 2: physical-plan verification (codes ``TRX2xx``).

Holds the reference-flow validator (the paper's footnote 7) inside the
diagnostics framework and extends it with operator-contract checks:

* :func:`reference_flow` — TRX201, the original reference-dependency
  rules (message text preserved verbatim for the planner's error paths);
* :func:`verify_plan` — reference flow plus publish/require consistency:
  TRX202 (an operator publishes a variable its subtree never binds) and
  TRX203 (an operator's ``requires`` under-declares what its children
  consume from above);
* :func:`verify_execution_contracts` — dynamic search-space monotonicity:
  runs the plan over a series, observing every operator entry, and
  reports every segment emitted outside the operator's search space
  (TRX204) or in violation of its embedded window (TRX205);
* :func:`check_cost_coverage` — TRX206, introspects every concrete
  operator class under ``repro.exec`` and reports the ones whose cost key
  has no entry in the cost model (``CostParams.f_op`` silently falls back
  to a default weight, so a missing entry would otherwise go unnoticed).
"""

from __future__ import annotations

from typing import (Callable, FrozenSet, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple, Type)

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.exec.and_or import (LeftProbeAnd, RightProbeAnd, SortMergeAnd,
                               SortMergeOr)
from repro.exec.base import Env, ExecContext, PhysicalOperator
from repro.exec.concat import (LeftProbeConcat, RightProbeConcat,
                               SortMergeConcat, WildWindowConcat)
from repro.exec.filter_op import FilterOp
from repro.exec.kleene import MaterializeKleene
from repro.exec.metrics import RunMetrics
from repro.exec.not_op import MaterializeNot, ProbeNot
from repro.exec.seggen import SegGenFilter, SegGenIndexing, SegGenWindow
from repro.exec.special import SubPatternCache
from repro.lang import expr as E
from repro.optimizer.cost_params import DEFAULT_COST_PARAMS, CostParams
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment
from repro.timeseries.series import Series


# ---------------------------------------------------------------------------
# TRX201 — reference flow (the original validator rules)
# ---------------------------------------------------------------------------

def reference_flow(op: PhysicalOperator,
                   available: FrozenSet[str] = frozenset()) \
        -> List[Diagnostic]:
    """Reference-dependency violations of a physical plan (TRX201).

    The paper's footnote-7 rules, checked on every planner output:

    * the plan root must not require any external references;
    * Sort-Merge/WildWindow binaries evaluate children independently —
      each child's ``requires`` must already be available from above;
    * probe operators evaluate the anchor first and hand its payload to
      the probed side — the probed child may additionally consume what
      the anchor publishes;
    * Not/Kleene/Filter children see only what the operator itself sees;
    * a Filter's lifted-condition owners must be published by its child
      (or be available from above);
    * whatever a probe passes along must actually be *published* by the
      anchor sub-tree.

    Message text is stable API: the planners raise ``PlanError`` with
    these exact strings and tests match on them.
    """
    diags: List[Diagnostic] = []
    _flow(op, available, diags)
    missing = set(op.requires) - set(available)
    if missing:
        _ref_violation(
            diags, op,
            f"plan root requires {sorted(missing)} with no provider")
    return diags


def _ref_violation(diags: List[Diagnostic], op: PhysicalOperator,
                   message: str) -> None:
    diags.append(Diagnostic(
        "TRX201", Severity.ERROR, message, owner=op.describe(),
        hint="the planner must route referenced segments through probe "
             "anchors or lifted filters"))


def _flow(op: PhysicalOperator, available: FrozenSet[str],
          diags: List[Diagnostic]) -> None:
    if isinstance(op, (SegGenFilter, SegGenIndexing)):
        missing = set(op.var.external_refs) - set(available)
        if missing:
            _ref_violation(
                diags, op,
                f"{op.describe()} needs {sorted(missing)} but only "
                f"{sorted(available)} are available")
        return
    if isinstance(op, SegGenWindow):
        return
    if isinstance(op, SubPatternCache):
        _flow(op.child, available, diags)
        return
    if isinstance(op, FilterOp):
        provided = available | op.child.publish
        for owner, condition in op.conditions:
            needed = set(E.external_references(condition, owner)) | {owner}
            missing = needed - set(provided)
            if missing:
                _ref_violation(
                    diags, op,
                    f"{op.describe()} lifted condition on {owner!r} needs "
                    f"{sorted(missing)} beyond child payload "
                    f"{sorted(op.child.publish)}")
        _flow(op.child, available, diags)
        return
    if isinstance(op, (MaterializeNot, ProbeNot, MaterializeKleene)):
        child = op.children()[0]
        missing = set(child.requires) - set(available)
        if missing:
            _ref_violation(
                diags, op,
                f"{op.describe()} child needs {sorted(missing)} which the "
                f"operator cannot supply")
        _flow(child, available, diags)
        return
    if isinstance(op, (SortMergeConcat, SortMergeAnd, SortMergeOr,
                       WildWindowConcat)):
        for side, child in zip(("left", "right"), op.children()):
            missing = set(child.requires) - set(available)
            if missing:
                _ref_violation(
                    diags, op,
                    f"{op.describe()} {side} child needs {sorted(missing)} "
                    f"but Sort-Merge children must be independent")
            _flow(child, available, diags)
        return
    if isinstance(op, (RightProbeConcat, RightProbeAnd)):
        anchor, probed = op.left, op.right
    elif isinstance(op, (LeftProbeConcat, LeftProbeAnd)):
        anchor, probed = op.right, op.left
    else:
        # Unknown operator type: validate children conservatively.
        for child in op.children():
            _flow(child, available, diags)
        return
    missing = set(anchor.requires) - set(available)
    if missing:
        _ref_violation(
            diags, op,
            f"{op.describe()} anchor needs {sorted(missing)} with no "
            f"provider")
    _flow(anchor, available, diags)
    probe_available = available | anchor.publish
    missing = set(probed.requires) - set(probe_available)
    if missing:
        _ref_violation(
            diags, op,
            f"{op.describe()} probed side needs {sorted(missing)} but the "
            f"anchor only publishes {sorted(anchor.publish)}")
    _flow(probed, probe_available, diags)


# ---------------------------------------------------------------------------
# TRX202 / TRX203 — publish/require consistency
# ---------------------------------------------------------------------------

def _bound_variables(op: PhysicalOperator) -> FrozenSet[str]:
    """Variables whose segments the subtree rooted at ``op`` can bind."""
    if isinstance(op, SegGenWindow):
        return frozenset({op.var_name}) if op.var_name else frozenset()
    if isinstance(op, (SegGenFilter, SegGenIndexing)):
        return frozenset({op.var.name})
    if isinstance(op, (MaterializeNot, ProbeNot, MaterializeKleene)):
        # A negation binds nothing; Kleene bodies stay inside the loop.
        return frozenset()
    result: Set[str] = set()
    for child in op.children():
        result |= _bound_variables(child)
    return frozenset(result)


def verify_plan(op: PhysicalOperator,
                available: FrozenSet[str] = frozenset()) \
        -> List[Diagnostic]:
    """Static plan verification: TRX201 + TRX202 + TRX203."""
    diags = reference_flow(op, available)
    _publish_require(op, diags)
    return diags


def _publish_require(op: PhysicalOperator,
                     diags: List[Diagnostic]) -> None:
    unbound = set(op.publish) - set(_bound_variables(op))
    if unbound:
        diags.append(Diagnostic(
            "TRX202", Severity.ERROR,
            f"{op.describe()} publishes {sorted(unbound)} but its subtree "
            f"never binds them",
            owner=op.describe(),
            hint="publish sets must be a subset of the variables the "
                 "subtree's segment generators bind"))
    children = op.children()
    if children:
        child_requires: Set[str] = set()
        child_publishes: Set[str] = set()
        for child in children:
            child_requires |= set(child.requires)
            child_publishes |= set(child.publish)
        hidden = (child_requires - child_publishes) - set(op.requires)
        if hidden:
            diags.append(Diagnostic(
                "TRX203", Severity.ERROR,
                f"{op.describe()} under-declares requires: children need "
                f"{sorted(hidden)} from above but the operator does not "
                f"require them",
                owner=op.describe(),
                hint="propagate child requirements that no sibling "
                     "publishes into the operator's own requires set"))
    for child in children:
        _publish_require(child, diags)


# ---------------------------------------------------------------------------
# TRX204 / TRX205 — dynamic search-space and window monotonicity
# ---------------------------------------------------------------------------

class _ContractCheck(RunMetrics):
    """A metric sink that checks instead of timing: the operator entry
    hands it every ``eval`` and ``eval_spaces`` call, and each emitted
    segment is checked against the clamped search space it answers
    (TRX204) and the operator's embedded window (TRX205)."""

    def __init__(self, diags: List[Diagnostic]) -> None:
        super().__init__()
        self.diags = diags
        self.reported: Set[Tuple[int, str]] = set()

    def observe_eval(self, op: PhysicalOperator, method: Callable,
                     ctx: ExecContext, sp: SearchSpace,
                     refs: Env) -> Iterator[Segment]:
        clamped = sp.clamp(len(ctx.series))
        for segment in method(op, ctx, sp, refs):
            self._check(op, ctx.series, clamped, segment)
            yield segment

    def observe_spaces(self, op: PhysicalOperator, method: Callable,
                       ctx: ExecContext, spaces: Sequence[SearchSpace],
                       refs: Env) -> List[List[Segment]]:
        found = method(op, ctx, spaces, refs)
        for sp, segments in zip(spaces, found):
            clamped = sp.clamp(len(ctx.series))
            for segment in segments:
                self._check(op, ctx.series, clamped, segment)
        return found

    def _check(self, op: PhysicalOperator, series: Series,
               clamped: SearchSpace, segment: Segment) -> None:
        if not clamped.contains(segment.start, segment.end):
            code, broken, hint = (
                "TRX204", f"outside its search space {clamped.describe()}",
                "operators must shrink, never escape, the search space "
                "handed to them")
        elif not op.window.accepts(series, segment.start, segment.end):
            code, broken, hint = (
                "TRX205",
                f"violating its embedded window [{op.window.describe()}]",
                "apply the operator's window before emitting segments")
        else:
            return
        if (op.op_id, code) not in self.reported:
            self.reported.add((op.op_id, code))
            self.diags.append(Diagnostic(
                code, Severity.ERROR,
                f"{op.describe()} emitted segment "
                f"[{segment.start}, {segment.end}] {broken}",
                owner=op.describe(), hint=hint))


def verify_execution_contracts(plan: PhysicalOperator, series: Series,
                               max_matches: Optional[int] = None) \
        -> List[Diagnostic]:
    """Run ``plan`` over ``series`` and report every operator entry —
    ``eval`` or ``eval_spaces`` — that emits a segment outside its search
    space (TRX204) or violating its embedded window (TRX205).

    Each (operator, code) pair is reported at most once.  ``max_matches``
    optionally bounds how many root emissions are drawn.
    """
    diags: List[Diagnostic] = []
    ctx = ExecContext(series, metrics=_ContractCheck(diags))
    sp = SearchSpace.full(len(series))
    for count, _ in enumerate(plan.eval(ctx, sp, {})):
        if max_matches is not None and count + 1 >= max_matches:
            break
    return diags


# ---------------------------------------------------------------------------
# TRX206 — cost-model coverage by introspection
# ---------------------------------------------------------------------------

def operator_cost_key(cls: Type[PhysicalOperator]) -> str:
    """The cost-model key an operator class is charged under."""
    return getattr(cls, "cost_key", None) or cls.name


def discover_exec_operators() -> List[Type[PhysicalOperator]]:
    """Every concrete operator class defined under ``repro.exec``."""
    found: List[Type[PhysicalOperator]] = []

    def visit(cls: Type[PhysicalOperator]) -> None:
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("repro.exec") \
                    and not sub.__name__.startswith("_") \
                    and not getattr(sub, "__abstractmethods__", None):
                found.append(sub)
            visit(sub)

    visit(PhysicalOperator)
    return sorted(set(found), key=lambda cls: cls.__name__)


def check_cost_coverage(
        params: Optional[CostParams] = None,
        operators: Optional[Iterable[Type[PhysicalOperator]]] = None) \
        -> List[Diagnostic]:
    """TRX206 — every operator class must have a cost-model entry.

    ``CostParams.f_op`` silently substitutes a default weight for unknown
    keys, so a new operator with no entry would get costed arbitrarily and
    the optimizer could pick it for the wrong reasons.  ``operators``
    defaults to introspecting ``repro.exec``.
    """
    params = params or DEFAULT_COST_PARAMS
    classes = list(operators) if operators is not None \
        else discover_exec_operators()
    diags: List[Diagnostic] = []
    for cls in classes:
        key = operator_cost_key(cls)
        if key not in params.operator_weights:
            diags.append(Diagnostic(
                "TRX206", Severity.ERROR,
                f"operator class {cls.__name__} (cost key {key!r}) has no "
                f"entry in the cost model; f_op would silently fall back "
                f"to a default weight",
                owner=cls.__name__,
                hint=f"add {key!r} to DEFAULT_OPERATOR_WEIGHTS or set a "
                     f"'cost_key' class attribute pointing at an existing "
                     f"entry"))
    return diags
