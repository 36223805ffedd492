"""Prefilter stage: necessary conditions probed against the symbolic index.

Before the full matcher touches a series, the engine can evaluate a set
of *necessary conditions* extracted from the bound query against the
per-series summaries of :mod:`repro.index` (docs/PREFILTER.md):

* **value clauses** — a CNF over :class:`Atom` constraints, where each
  atom asserts "some element of the match segment lies in this value
  interval".  A clause with no possible witness block anywhere proves
  the series cannot match (whole-series *skip*); the union of a
  clause's possible blocks, expanded by the total window bound, yields
  candidate ranges whose intersection across clauses *narrows* the root
  :class:`~repro.plan.search_space.SearchSpace`;
* **span bounds** — combined point-window and ``count(...)`` envelopes
  give ``[window_lo, window_hi]`` bounds on every match's index
  duration; a series shorter than ``window_lo + 1`` points is skipped
  outright, and ``window_hi`` is the expansion radius for candidate
  ranges.

Everything extracted here is *necessary*, never sufficient: the full
matcher still runs on every survivor, so pruning can only remove work,
never matches.  The losslessness argument (and the exact on/off parity
contract the differential fuzzer enforces) is spelled out in
docs/PREFILTER.md; the short form:

* every atom's witness element lies inside the root match segment, so a
  match ``[s, e]`` with duration at most ``window_hi`` lies entirely
  within the candidate region of each clause — hence inside a single
  merged range — and the boxed-space contract of the root operator
  (emit exactly the matches whose start *and* end fall in the box)
  recovers it from the narrowed evaluation;
* extraction refuses queries whose conditions are not *total* (could
  raise at evaluation time) and series whose referenced columns are
  missing or non-numeric, so a pruning decision can never suppress an
  error record the full scan would have produced.

The decision path is fail-open: a stale, corrupt or unusable summary
(fault point ``index.probe``) downgrades to the full scan rather than
guessing.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.summary import SeriesSummary, summary_for
from repro.lang import expr as E
from repro.lang.query import Query, VarDef
from repro.optimizer.cost_params import (DEFAULT_PREFILTER_BLOCK_SIZE,
                                         DEFAULT_PREFILTER_COVERAGE_GATE)
from repro.plan.logical import (LAnd, LConcat, LKleene, LNot, LOr, LVar,
                                LogicalNode)
from repro.plan.search_space import SearchSpace
from repro.testing import faults as _faults
from repro.timeseries.series import Series

_logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Necessary-condition formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """"Some element of the match lies in ``[lo, hi]``" (open ends
    excluded).  ``lo``/``hi`` may be ±inf."""

    column: str
    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def impossible(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (  # trex: float-exact
            self.lo_open or self.hi_open or math.isnan(self.lo))


class _Formula:
    """Base marker for extracted formulas (internal to extraction)."""

    __slots__ = ()


class _True(_Formula):
    __slots__ = ()


class _Never(_Formula):
    __slots__ = ()


TRUE = _True()
NEVER = _Never()


@dataclass(frozen=True)
class _All(_Formula):
    parts: Tuple[_Formula, ...]


@dataclass(frozen=True)
class _Any(_Formula):
    parts: Tuple[_Formula, ...]


class _AtomF(_Formula):
    __slots__ = ("atom",)

    def __init__(self, atom: Atom):
        self.atom = atom


def _f_all(parts: Sequence[_Formula]) -> _Formula:
    kept = []
    for part in parts:
        if isinstance(part, _Never):
            return NEVER
        if not isinstance(part, _True):
            kept.append(part)
    if not kept:
        return TRUE
    if len(kept) == 1:
        return kept[0]
    return _All(tuple(kept))


def _f_any(parts: Sequence[_Formula]) -> _Formula:
    kept = []
    for part in parts:
        if isinstance(part, _True):
            return TRUE
        if not isinstance(part, _Never):
            kept.append(part)
    if not kept:
        return NEVER
    if len(kept) == 1:
        return kept[0]
    return _Any(tuple(kept))


#: A clause is a disjunction of atoms: at least one must have a witness
#: element inside the match.  The empty clause is unsatisfiable.
Clause = Tuple[Atom, ...]

#: Cap on the clause cross-product when lowering a disjunction to CNF;
#: beyond it the (weaker but sound) union-of-all-atoms clause is used.
MAX_CLAUSE_PRODUCT = 16


def _to_clauses(formula: _Formula) -> List[Clause]:
    """Lower a formula to CNF clauses.

    ``[]`` means "no constraint"; a list containing the empty clause
    means "unsatisfiable".
    """
    if isinstance(formula, _True):
        return []
    if isinstance(formula, _Never):
        return [()]
    if isinstance(formula, _AtomF):
        return [()] if formula.atom.impossible() else [(formula.atom,)]
    if isinstance(formula, _All):
        clauses: List[Clause] = []
        for part in formula.parts:
            clauses.extend(_to_clauses(part))
        return _dedupe_clauses(clauses)
    if isinstance(formula, _Any):
        lists = []
        for part in formula.parts:
            part_clauses = _to_clauses(part)
            if not part_clauses:
                return []  # one disjunct is unconstrained
            if any(not clause for clause in part_clauses):
                continue  # unsatisfiable disjunct drops out
            lists.append(part_clauses)
        if not lists:
            return [()]
        size = 1
        for entry in lists:
            size *= len(entry)
        if size <= MAX_CLAUSE_PRODUCT:
            distributed = [
                _merge_clause(pick) for pick in product(*lists)]
        else:
            # Sound fallback: if any satisfiable disjunct holds, one of
            # its clauses has a witness, and every such atom is below.
            distributed = [_merge_clause(
                [clause for entry in lists for clause in entry])]
        return _dedupe_clauses(distributed)
    raise TypeError(f"unknown formula node {formula!r}")


def _merge_clause(clauses: Sequence[Clause]) -> Clause:
    seen: Dict[Atom, None] = {}
    for clause in clauses:
        for atom in clause:
            seen.setdefault(atom)
    return tuple(seen)


def _dedupe_clauses(clauses: Sequence[Clause]) -> List[Clause]:
    seen: Dict[Clause, None] = {}
    for clause in clauses:
        seen.setdefault(tuple(sorted(
            clause, key=lambda a: (a.column, a.lo, a.hi,
                                   a.lo_open, a.hi_open))))
    return list(seen)


# ---------------------------------------------------------------------------
# Extraction from conditions
# ---------------------------------------------------------------------------

#: Aggregates whose evaluation is total over float arrays (never raise
#: for any segment); queries calling anything else are ineligible for
#: pruning decisions, because a skipped series must not suppress an
#: error record the full scan would have produced.
TOTAL_AGGREGATES = frozenset({
    "count", "min", "max", "sum", "avg", "stddev", "corr", "slope",
    "median", "max_drawdown", "linear_regression_r2",
    "linear_regression_r2_signed", "mann_kendall_test",
    "equal_up_down_ticks",
})

#: Aggregates whose value is guaranteed to be an *element* of the
#: segment whenever a comparison on it succeeds (NaN poisons both, so a
#: true comparison implies a real witness element).  ``sum``/``avg``/
#: ``stddev`` are deliberately absent: their values are synthetic.
_ELEMENT_AGGREGATES = frozenset({"min", "max"})

_COMPARISONS = frozenset({"<", "<=", ">", ">=", "=", "==", "!=", "<>"})
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
         "=": "=", "==": "==", "!=": "!=", "<>": "<>"}


def _total_expr(expr: Optional[E.Expr], registry) -> bool:
    """Can every evaluation of ``expr`` over a float-column series
    complete without raising?  (Columns are checked per series.)
    Aggregate names resolve through ``registry`` first, so an alias
    (``linear_reg_r2_signed``) is as total as the name it spells."""
    if expr is None:
        return True
    for node in E.walk(expr):
        if isinstance(node, E.Literal):
            if not isinstance(node.value, (bool, int, float)):
                return False
        elif isinstance(node, (E.ColumnRef, E.PointAccess, E.Interval,
                               E.Between)):
            continue
        elif isinstance(node, E.AggCall):
            agg = registry.lookup(node.name)
            if (agg.name if agg else node.name) not in TOTAL_AGGREGATES:
                return False
        elif isinstance(node, E.Unary):
            if node.op not in ("-", "not"):
                return False
        elif isinstance(node, E.Binary):
            if node.op not in _COMPARISONS and node.op not in ("+", "-", "*",
                                                               "/", "and",
                                                               "or"):
                return False
        else:
            return False  # Param, WindowCall, unknown nodes
    return True


def _literal_value(expr: E.Expr) -> Optional[float]:
    """The float value of a constant expression, or None."""
    if isinstance(expr, E.Literal) and isinstance(expr.value,
                                                  (bool, int, float)):
        return float(expr.value)
    if isinstance(expr, E.Unary) and expr.op == "-":
        inner = _literal_value(expr.operand)
        return None if inner is None else -inner
    return None


def _element_column(expr: E.Expr, var: VarDef) -> Optional[str]:
    """Column whose value ``expr`` yields *as an element of the match*.

    Covers bare column references (final semantics: the last element),
    ``first``/``last`` point accessors and single-column ``min``/``max``
    over the variable's own segment.  A successful comparison on any of
    these implies a real element of the segment in the compared
    interval (NaN fails every comparison).
    """
    if isinstance(expr, E.ColumnRef) and expr.variable in (None, var.name):
        return expr.column
    if isinstance(expr, E.PointAccess) and \
            expr.arg.variable in (None, var.name):
        return expr.arg.column
    if isinstance(expr, E.AggCall) and expr.name in _ELEMENT_AGGREGATES \
            and len(expr.columns) == 1 and not expr.extra \
            and expr.columns[0].variable in (None, var.name):
        return expr.columns[0].column
    return None


def _interval_atom(column: str, op: str, value: float) -> _Formula:
    if math.isnan(value):
        # Comparisons with NaN are always false — except !=, which is
        # always true and is skipped before reaching here.
        return NEVER
    inf = math.inf
    if op == "<":
        atom = Atom(column, -inf, value, hi_open=True)
    elif op == "<=":
        atom = Atom(column, -inf, value)
    elif op == ">":
        atom = Atom(column, value, inf, lo_open=True)
    elif op == ">=":
        atom = Atom(column, value, inf)
    elif op in ("=", "=="):
        atom = Atom(column, value, value)
    else:
        return TRUE  # != / <> carry no interval information
    return NEVER if atom.impossible() else _AtomF(atom)


def _comparison_formula(expr: E.Binary, var: VarDef) -> _Formula:
    column = _element_column(expr.left, var)
    value = _literal_value(expr.right)
    op = expr.op
    if column is None or value is None:
        column = _element_column(expr.right, var)
        value = _literal_value(expr.left)
        op = _FLIP[op]
    if column is None or value is None:
        return TRUE
    return _interval_atom(column, op, value)


def _condition_formula(expr: Optional[E.Expr], var: VarDef) -> _Formula:
    """Necessary-condition formula for one variable's DEFINE condition.

    Sound abstraction: whenever the condition holds over a segment, the
    formula holds with witnesses inside that segment.  Anything not
    understood maps to TRUE (no constraint).
    """
    if expr is None:
        return TRUE
    if E.referenced_variables(expr) - {var.name}:
        return TRUE  # cross-variable conjuncts carry no local constraint
    if isinstance(expr, E.Binary):
        if expr.op == "and":
            return _f_all([_condition_formula(expr.left, var),
                           _condition_formula(expr.right, var)])
        if expr.op == "or":
            return _f_any([_condition_formula(expr.left, var),
                           _condition_formula(expr.right, var)])
        if expr.op in _COMPARISONS:
            return _comparison_formula(expr, var)
        return TRUE
    if isinstance(expr, E.Between):
        column = _element_column(expr.operand, var)
        low = _literal_value(expr.low)
        high = _literal_value(expr.high)
        if column is None or low is None or high is None:
            return TRUE
        if math.isnan(low) or math.isnan(high) or low > high:
            return NEVER
        return _AtomF(Atom(column, low, high))
    if isinstance(expr, E.Literal):
        return TRUE if E.truthy(expr.value) else NEVER
    return TRUE


# ---------------------------------------------------------------------------
# count(...) → duration bounds
# ---------------------------------------------------------------------------

def _count_call(expr: E.Expr, var: VarDef) -> bool:
    return (isinstance(expr, E.AggCall) and expr.name == "count"
            and len(expr.columns) == 1 and not expr.extra
            and expr.columns[0].variable in (None, var.name))


def _count_bounds_from_op(op: str, c: float) \
        -> Tuple[int, Optional[int], bool]:
    """Duration bounds implied by ``count(x) OP c`` (count = duration+1).

    Returns ``(lo, hi, never)`` with ``hi=None`` for unbounded.
    """
    if math.isnan(c):
        return 0, None, True
    if op == ">=":          # len >= c  ⇔  len >= ceil(c)
        return max(0, math.ceil(c) - 1), None, False
    if op == ">":           # len > c   ⇔  len >= floor(c) + 1
        return max(0, math.floor(c)), None, False
    if op == "<=":          # len <= c  ⇔  len <= floor(c)
        hi = math.floor(c) - 1
        return (0, hi, hi < 0)
    if op == "<":           # len < c   ⇔  len <= ceil(c) - 1
        hi = math.ceil(c) - 2
        return (0, hi, hi < 0)
    if op in ("=", "=="):
        if c < 1 or c != math.floor(c):  # trex: float-exact
            return 0, None, True
        return int(c) - 1, int(c) - 1, False
    return 0, None, False   # != carries nothing usable


def _count_duration_bounds(var: VarDef) -> Tuple[int, Optional[int], bool]:
    """Fold every top-level ``count(...)`` conjunct into duration bounds."""
    lo, hi, never = 0, None, False
    for conjunct in E.split_conjuncts(var.condition):
        clo: Optional[int] = None
        if isinstance(conjunct, E.Binary) and conjunct.op in _COMPARISONS:
            op, value = conjunct.op, _literal_value(conjunct.right)
            if not _count_call(conjunct.left, var) or value is None:
                value = _literal_value(conjunct.left)
                if not _count_call(conjunct.right, var) or value is None:
                    continue
                op = _FLIP[op]
            clo, chi, cnever = _count_bounds_from_op(op, value)
        elif isinstance(conjunct, E.Between) and \
                _count_call(conjunct.operand, var):
            low = _literal_value(conjunct.low)
            high = _literal_value(conjunct.high)
            if low is None or high is None:
                continue
            clo, _, never_lo = _count_bounds_from_op(">=", low)
            _, chi, never_hi = _count_bounds_from_op("<=", high)
            cnever = never_lo or never_hi
        else:
            continue
        lo = max(lo, clo)
        if chi is not None:
            hi = chi if hi is None else min(hi, chi)
        never = never or cnever
    if hi is not None and lo > hi:
        never = True
    return lo, hi, never


# ---------------------------------------------------------------------------
# Logical-tree folding: formula + span bounds per node
# ---------------------------------------------------------------------------

@dataclass
class _NodeInfo:
    formula: _Formula
    lo: int                 # min index duration (end - start)
    hi: Optional[int]       # max index duration, None = unbounded


def _clip_window(info: _NodeInfo, node: LogicalNode) -> _NodeInfo:
    wlo, whi = node.window.point_duration_bounds()
    lo = max(info.lo, wlo)
    hi = info.hi
    if whi is not None:
        hi = whi if hi is None else min(hi, whi)
    formula = info.formula
    if hi is not None and lo > hi:
        formula = NEVER
    return _NodeInfo(formula, lo, hi)


def _fold(node: LogicalNode) -> _NodeInfo:
    if isinstance(node, LVar):
        if not node.var.is_segment:
            info = _NodeInfo(_condition_formula(node.var.condition,
                                                node.var), 0, 0)
        else:
            clo, chi, never = _count_duration_bounds(node.var)
            formula = NEVER if never else _condition_formula(
                node.var.condition, node.var)
            info = _NodeInfo(formula, clo, chi)
        return _clip_window(info, node)
    if isinstance(node, LConcat):
        parts = [_fold(part) for part in node.parts]
        gap_total = sum(node.gaps)
        lo = sum(part.lo for part in parts) + gap_total
        hi: Optional[int] = gap_total
        for part in parts:
            if part.hi is None:
                hi = None
                break
            hi += part.hi
        formula = _f_all([part.formula for part in parts])
        return _clip_window(_NodeInfo(formula, lo, hi), node)
    if isinstance(node, LAnd):
        parts = [_fold(part) for part in node.parts]
        lo = max(part.lo for part in parts)
        his = [part.hi for part in parts if part.hi is not None]
        hi = min(his) if his else None
        formula = _f_all([part.formula for part in parts])
        return _clip_window(_NodeInfo(formula, lo, hi), node)
    if isinstance(node, LOr):
        parts = [_fold(part) for part in node.parts]
        live = [part for part in parts
                if not isinstance(part.formula, _Never)]
        if not live:
            return _clip_window(_NodeInfo(NEVER, 0, 0), node)
        lo = min(part.lo for part in live)
        hi = None
        if all(part.hi is not None for part in live):
            hi = max(part.hi for part in live)  # type: ignore[type-var]
        formula = _f_any([part.formula for part in live])
        return _clip_window(_NodeInfo(formula, lo, hi), node)
    if isinstance(node, LKleene):
        child = _fold(node.child)
        reps_lo = max(node.min_reps, 1)
        lo = reps_lo * child.lo + (reps_lo - 1) * node.gap
        hi = None
        if node.max_reps is not None and child.hi is not None:
            hi = node.max_reps * child.hi + (node.max_reps - 1) * node.gap
        formula = child.formula if node.min_reps >= 1 else TRUE
        if isinstance(formula, _Never) and node.min_reps < 1:
            formula = TRUE
        return _clip_window(_NodeInfo(formula, lo, hi), node)
    if isinstance(node, LNot):
        # Negation asserts absence: nothing inside the child constrains
        # the match.  Only the node's own window bounds the span.
        return _clip_window(_NodeInfo(TRUE, 0, None), node)
    raise TypeError(f"unknown logical node {node!r}")


# ---------------------------------------------------------------------------
# The prefilter plan
# ---------------------------------------------------------------------------

@dataclass
class PrefilterPlan:
    """Extraction result: everything ``decide`` needs, picklable so the
    process backend ships it inside each :class:`SeriesTask`."""

    #: CNF over element-interval atoms; every clause needs a witness.
    clauses: Tuple[Clause, ...] = ()
    #: Bounds on a match's index duration (end - start).
    window_lo: int = 0
    window_hi: Optional[int] = None
    #: The query provably never matches (contradictory bounds/atoms).
    never: bool = False
    #: Extraction succeeded AND every condition is total: pruning
    #: decisions are allowed.  False = inert (never skips, never
    #: narrows, adds no per-series work).
    eligible: bool = False
    #: Every column any condition or window may touch; a series missing
    #: one (or typing it non-numerically) gets the full scan.
    required_columns: Tuple[str, ...] = ()
    block_size: int = DEFAULT_PREFILTER_BLOCK_SIZE
    coverage_gate: float = DEFAULT_PREFILTER_COVERAGE_GATE
    #: Human-readable reason when inert/ineligible (observability).
    note: str = ""

    @property
    def active(self) -> bool:
        """Can this plan ever make a decision?"""
        return self.eligible and (self.never or bool(self.clauses)
                                  or self.window_lo > 0)

    def describe(self) -> str:
        if not self.eligible:
            return f"inert ({self.note or 'ineligible'})"
        if self.never:
            return "never-matches"
        hi = "inf" if self.window_hi is None else str(self.window_hi)
        return (f"{len(self.clauses)} clause(s), "
                f"span=[{self.window_lo},{hi}]")


def extract_prefilter(query: Query, logical: LogicalNode) -> PrefilterPlan:
    """Extract the prefilter plan for a bound query (fail-open).

    Any extraction surprise yields an *inert* plan — the engine then
    behaves exactly as with the prefilter disabled for this query.
    """
    try:
        return _extract(query, logical)
    except Exception as exc:  # noqa: BLE001 — prefilter must fail open
        _logger.warning("prefilter extraction failed; running without "
                        "pruning: %s: %s", type(exc).__name__, exc)
        return PrefilterPlan(note=f"extraction failed: "
                                  f"{type(exc).__name__}")


def _extract(query: Query, logical: LogicalNode) -> PrefilterPlan:
    for var in query.variables.values():
        if not _total_expr(var.condition, query.registry):
            return PrefilterPlan(
                note=f"condition of {var.name!r} is not total")
    columns = set()
    for var in query.variables.values():
        columns |= E.columns_used(var.condition)
        for spec in var.windows:
            if spec.kind == "time" and spec.column is not None:
                columns.add(spec.column)
    info = _fold(logical)
    clauses = _to_clauses(info.formula)
    never = isinstance(info.formula, _Never) or \
        any(not clause for clause in clauses)
    return PrefilterPlan(
        clauses=tuple(clause for clause in clauses if clause),
        window_lo=info.lo,
        window_hi=info.hi,
        never=never,
        eligible=True,
        required_columns=tuple(sorted(columns)))


# ---------------------------------------------------------------------------
# Per-series decision
# ---------------------------------------------------------------------------

def _ranges_from_blocks(mask: np.ndarray, block_size: int, n: int,
                        radius: int) -> List[Tuple[int, int]]:
    """Expand live blocks by ``radius`` points and merge into disjoint,
    sorted inclusive point ranges."""
    live = np.flatnonzero(mask)
    if not len(live):
        return []
    starts = np.maximum(live * block_size - radius, 0)
    ends = np.minimum(live * block_size + block_size - 1 + radius, n - 1)
    breaks = np.flatnonzero(starts[1:] > ends[:-1] + 1)
    first = np.concatenate(([0], breaks + 1))
    last = np.concatenate((breaks, [len(live) - 1]))
    return list(zip(starts[first].tolist(), ends[last].tolist()))


def _intersect_ranges(a: List[Tuple[int, int]],
                      b: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Intersection of two sorted disjoint inclusive range lists."""
    out: List[Tuple[int, int]] = []
    i = j = 0
    # trex: no-tick(bounded by block count; caller ticks per clause)
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _summary_usable(summary: object, series: Series,
                    plan: PrefilterPlan) -> bool:
    """Cheap integrity probe before trusting a summary (fail-open)."""
    return (isinstance(summary, SeriesSummary)
            and summary.n == len(series)
            and summary.block_size == plan.block_size)


def decide(plan: PrefilterPlan, series: Series, ctx,
           counters: Counter) -> Tuple[str, List[Tuple[int, int]]]:
    """The per-series pruning decision: ``('skip'|'full'|'narrow', ranges)``.

    ``ctx`` is the series' :class:`~repro.exec.base.ExecContext` —
    probing ticks against the query deadline like any other hot loop.
    Every inconclusive path (unusable summary, unsupported column,
    unbounded window, coverage above the gate) lands on ``'full'``.
    """
    n = len(series)
    summary = summary_for(series, plan.block_size, counters)
    if _faults.ENABLED:
        summary = _faults.fire("index.probe", summary)
    if not _summary_usable(summary, series, plan):
        counters["index_invalid"] += 1
        return "full", []
    if plan.never:
        return "skip", []
    if n < plan.window_lo + 1:
        return "skip", []
    for column in plan.required_columns:
        col = summary.column(column)
        if col is None or not col.supported:
            counters["series_unsupported"] += 1
            return "full", []
    if not plan.clauses:
        return "full", []
    num_blocks = summary.num_blocks
    counters["blocks_total"] += num_blocks
    radius = plan.window_hi
    ranges: Optional[List[Tuple[int, int]]] = None
    combined: Optional[np.ndarray] = None
    for clause in plan.clauses:
        ctx.tick_batch(num_blocks)
        mask = np.zeros(num_blocks, dtype=bool)
        for atom in clause:
            col = summary.column(atom.column)
            if col is None:
                return "full", []  # unreachable; fail open regardless
            if not col.interval_possible(atom.lo, atom.hi, atom.lo_open,
                                         atom.hi_open):
                continue
            mask |= col.blocks_possible(atom.lo, atom.hi, atom.lo_open,
                                        atom.hi_open)
        if not mask.any():
            return "skip", []
        combined = mask if combined is None else (combined & mask)
        if radius is not None:
            clause_ranges = _ranges_from_blocks(mask, plan.block_size, n,
                                                radius)
            ranges = clause_ranges if ranges is None \
                else _intersect_ranges(ranges, clause_ranges)
            if not ranges:
                return "skip", []
    if combined is not None:
        counters["blocks_live"] += int(np.count_nonzero(combined))
    if radius is None or ranges is None:
        return "full", []
    ranges = [(lo, hi) for lo, hi in ranges if hi - lo >= plan.window_lo]
    if not ranges:
        return "skip", []
    covered = sum(hi - lo + 1 for lo, hi in ranges)
    if covered >= plan.coverage_gate * n:
        counters["coverage_declined"] += 1
        return "full", []
    return "narrow", ranges


#: Counter keys surfaced in ``QueryResult.prefilter`` and ``/stats``
#: (fixed order so reports have stable, comparable shapes).
COUNTER_KEYS = (
    "series_examined", "series_skipped", "series_narrowed", "series_full",
    "series_unsupported", "coverage_declined", "index_built",
    "index_cached", "index_stale", "index_invalid", "aggindex_built",
    "aggindex_cached", "blocks_total",
    "blocks_live", "ranges_materialized", "candidate_points",
    "series_points",
)


def prefilter_report(plan: Optional[PrefilterPlan],
                     totals: Counter) -> Dict[str, object]:
    """The ``QueryResult.prefilter`` dict for one enabled-run's totals."""
    report: Dict[str, object] = {
        "enabled": True,
        "active": bool(plan is not None and plan.active),
        "plan": plan.describe() if plan is not None else "none",
    }
    for key in COUNTER_KEYS:
        report[key] = int(totals.get(key, 0))
    points = int(totals.get("series_points", 0))
    covered = int(totals.get("candidate_points", 0))
    report["coverage"] = (covered / points) if points else 0.0
    return report


# ---------------------------------------------------------------------------
# Shared evaluation wrapper (serial engine, replay, parallel workers)
# ---------------------------------------------------------------------------

def evaluate_with_prefilter(plan, prefilter_plan: Optional[PrefilterPlan],
                            ctx, series: Series, sink) -> Optional[Counter]:
    """Evaluate the physical ``plan`` over one series through the
    prefilter decision; returns the prefilter counters, or ``None``
    when the prefilter made no appearance (inert/off — the evaluation
    is then bit-for-bit the classic full scan).

    Candidate ranges are disjoint and every true match lies entirely
    inside one of them (docs/PREFILTER.md), so feeding each range's
    boxed space to the root operator and pouring everything into one
    sink reproduces the full scan's match set exactly — the sink
    deduplicates by bounds and its bounded-heap truncation is
    insertion-order independent.
    """
    n = len(series)
    if prefilter_plan is None or not prefilter_plan.active:
        sink.consume(plan.eval(ctx, SearchSpace.full(n), {}), ctx)
        return None
    counters: Counter = Counter()
    counters["series_examined"] += 1
    kind, ranges = decide(prefilter_plan, series, ctx, counters)
    counters["series_points"] += n
    if kind == "skip":
        counters["series_skipped"] += 1
        return counters
    if kind != "narrow" or not ranges:
        counters["series_full"] += 1
        counters["candidate_points"] += n
        sink.consume(plan.eval(ctx, SearchSpace.full(n), {}), ctx)
        return counters
    counters["series_narrowed"] += 1
    counters["ranges_materialized"] += len(ranges)
    counters["candidate_points"] += sum(hi - lo + 1 for lo, hi in ranges)
    # trex: no-charge(at most n / block_size range tuples, never segments;
    # charging them would move every max_segments boundary between on and off)
    for lo, hi in ranges:
        sink.consume(plan.eval(ctx, SearchSpace(lo, hi, lo, hi), {}), ctx)
    return counters
