"""Pass 1: static lint of T-ReX queries (codes ``TRX0xx``/``TRX1xx``).

Two entry points:

* :func:`lint_text` — lint raw query text: tokenizes, parses, runs the
  pre-bind checks (with precise source spans), binds, and finishes with the
  semantic checks of :func:`analyze`.  Never raises on bad queries; every
  problem comes back as a :class:`Diagnostic`.
* :func:`analyze` — lint an already-bound :class:`~repro.lang.query.Query`
  (the engine integration point).  Spans are only available when the caller
  supplies the parser's ``var_spans``.

The satisfiability checks (TRX010/TRX011) run interval arithmetic over the
pattern: every node gets a ``[lo, hi]`` interval of possible index durations
(point-based ``window`` specs only; time-based specs cannot be compared to
index durations without a concrete series).  Concatenation sums intervals
(junction gaps under-approximated at 0 and over-approximated at 1 so a
reported contradiction is never a false positive), ``&`` intersects, ``|``
takes the hull, Kleene scales by the repetition bounds and ``~`` is
unbounded.
"""

from __future__ import annotations

import difflib
import math
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.aggregates.registry import DEFAULT_REGISTRY, AggregateRegistry
from repro.analysis.diagnostics import (Diagnostic, Severity, Span,
                                        has_errors, sort_diagnostics)
from repro.errors import AggregateError, BindError, QuerySyntaxError, TRexError
from repro.lang import expr as E
from repro.lang import pattern as P
from repro.lang.lexer import Token, tokenize
from repro.lang.parser import ParsedQuery, RawDefine, parse
from repro.lang.query import Query, VarDef, _interpret_window, bind
from repro.timeseries.timeunits import UNIT_SECONDS

#: Duration interval [lo, hi]; ``math.inf`` means unbounded above.
_Interval = Tuple[float, float]

_SpanMap = Mapping[str, Span]


# ---------------------------------------------------------------------------
# Span helpers
# ---------------------------------------------------------------------------

class _TokenIndex:
    """Locate diagnostic spans in the original token stream."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens

    def ident(self, name: str) -> Optional[Span]:
        """First identifier token spelled ``name`` (case-insensitive)."""
        lowered = name.lower()
        for token in self._tokens:
            if token.kind == "ident" and token.text.lower() == lowered:
                return Span(token.line, token.column, len(token.text))
        return None

    def qualified_ref(self, variable: str) -> Optional[Span]:
        """First ``VAR .`` occurrence (a qualified column reference)."""
        for index, token in enumerate(self._tokens[:-1]):
            nxt = self._tokens[index + 1]
            if token.kind == "ident" and token.text == variable \
                    and nxt.kind == "op" and nxt.text == ".":
                return Span(token.line, token.column, len(token.text))
        return None

    def param(self, name: str) -> Optional[Span]:
        for token in self._tokens:
            if token.kind == "param" and token.text == name:
                return Span(token.line, token.column, len(token.text) + 1)
        return None


def _define_span(raw: RawDefine) -> Optional[Span]:
    if raw.line:
        return Span(raw.line, raw.column, len(raw.name))
    return None


def _spans_from(parsed: ParsedQuery) -> Dict[str, Span]:
    """Best span per variable: definition site, else first pattern site."""
    spans: Dict[str, Span] = {}
    for name, (line, column) in parsed.var_spans.items():
        spans[name] = Span(line, column, len(name))
    for raw in parsed.defines:
        span = _define_span(raw)
        if span is not None:
            spans[raw.name] = span
    return spans


# ---------------------------------------------------------------------------
# Interval arithmetic over patterns (TRX010 / TRX011 / TRX101)
# ---------------------------------------------------------------------------

_EMPTY: _Interval = (1.0, 0.0)


def _is_empty(interval: _Interval) -> bool:
    return interval[0] > interval[1]


def _var_duration_interval(var: VarDef) -> _Interval:
    """Possible index durations of one variable's segments."""
    if not var.is_segment:
        return (0.0, 0.0)
    lo, hi = 0.0, math.inf
    for spec in var.windows:
        if spec.kind != "point":
            continue
        lo = max(lo, spec.lo)
        if spec.hi is not None:
            hi = min(hi, spec.hi)
    return (lo, hi)


def _pattern_interval(node: P.Pattern, query: Query, spans: _SpanMap,
                      diags: List[Diagnostic]) -> _Interval:
    """Duration interval of ``node``, reporting TRX011 where an ``&``
    intersection of individually-satisfiable parts becomes empty."""
    if isinstance(node, P.VarRef):
        return _var_duration_interval(query.var(node.name))
    if isinstance(node, P.Concat):
        parts = [_pattern_interval(p, query, spans, diags)
                 for p in node.parts]
        if any(_is_empty(p) for p in parts):
            return _EMPTY
        lo = sum(p[0] for p in parts)
        hi = sum(p[1] for p in parts) + (len(parts) - 1)
        return (lo, hi)
    if isinstance(node, P.And):
        parts = [_pattern_interval(p, query, spans, diags)
                 for p in node.parts]
        if any(_is_empty(p) for p in parts):
            return _EMPTY
        lo = max(p[0] for p in parts)
        hi = min(p[1] for p in parts)
        if lo > hi:
            names = node.variables()
            anchor = next((n for n in names if n in spans), None)
            diags.append(Diagnostic(
                "TRX011", Severity.ERROR,
                f"window constraints on {node.describe()} are "
                f"unsatisfiable: the parts require at least {lo:g} points "
                f"of duration but allow at most {hi:g}",
                span=spans.get(anchor) if anchor else None,
                hint="widen the enclosing window or shorten the "
                     "concatenated segments' minimum windows",
                owner=anchor))
        return (lo, hi)
    if isinstance(node, P.Or):
        parts = [_pattern_interval(p, query, spans, diags)
                 for p in node.parts]
        alive = [p for p in parts if not _is_empty(p)]
        if not alive:
            return _EMPTY
        return (min(p[0] for p in alive), max(p[1] for p in alive))
    if isinstance(node, P.Kleene):
        child = _pattern_interval(node.child, query, spans, diags)
        if _is_empty(child):
            return _EMPTY if node.min_reps >= 1 else (0.0, math.inf)
        lo = child[0] * node.min_reps
        if node.max_reps is None:
            return (lo, math.inf)
        hi = child[1] * node.max_reps + (node.max_reps - 1)
        return (lo, hi)
    if isinstance(node, P.Not):
        # Evaluate the child for nested findings, but a negation itself can
        # match any duration.
        _pattern_interval(node.child, query, spans, diags)
        return (0.0, math.inf)
    return (0.0, math.inf)


def _finite_max_duration(node: P.Pattern, query: Query) -> bool:
    """Whether every match of ``node`` has a bounded duration.

    Time-based windows count as bounds here (on any real series a finite
    time span covers finitely many points), unlike in the satisfiability
    interval math where they cannot be compared with point durations.
    """
    if isinstance(node, P.VarRef):
        var = query.var(node.name)
        if not var.is_segment:
            return True
        return any(spec.hi is not None for spec in var.windows)
    if isinstance(node, P.Concat):
        return all(_finite_max_duration(p, query) for p in node.parts)
    if isinstance(node, P.And):
        return any(_finite_max_duration(p, query) for p in node.parts)
    if isinstance(node, P.Or):
        return all(_finite_max_duration(p, query) for p in node.parts)
    if isinstance(node, P.Kleene):
        return node.max_reps is not None and \
            _finite_max_duration(node.child, query)
    return False


def _matches_every_segment(node: P.Pattern, query: Query) -> bool:
    """Conservative: True only when ``node`` provably matches *every*
    segment of every series (so ``~node`` matches nothing)."""
    if isinstance(node, P.VarRef):
        var = query.var(node.name)
        return var.is_segment and var.is_wild
    if isinstance(node, (P.Concat, P.And)):
        return all(_matches_every_segment(p, query) for p in node.parts)
    if isinstance(node, P.Or):
        return any(_matches_every_segment(p, query) for p in node.parts)
    if isinstance(node, P.Kleene):
        return _matches_every_segment(node.child, query)
    return False


# ---------------------------------------------------------------------------
# Pre-bind checks (parse tree + token spans)
# ---------------------------------------------------------------------------

def _window_calls(condition: E.Expr) -> Tuple[List[E.WindowCall], bool]:
    """(top-level window conjuncts, whether any nested window call exists)."""
    top_level: List[E.WindowCall] = []
    nested = False
    for conjunct in E.split_conjuncts(condition):
        if isinstance(conjunct, E.WindowCall):
            top_level.append(conjunct)
            continue
        if any(isinstance(sub, E.WindowCall) for sub in E.walk(conjunct)):
            nested = True
    return top_level, nested


def _lint_parsed(parsed: ParsedQuery, index: _TokenIndex,
                 registry: AggregateRegistry) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    pattern_vars = set(parsed.pattern.variables()) if parsed.pattern else set()
    defined = {raw.name for raw in parsed.defines}
    known = defined | pattern_vars | set(parsed.subsets)

    seen: Set[str] = set()
    for raw in parsed.defines:
        span = _define_span(raw)
        if raw.name in seen:
            diags.append(Diagnostic(
                "TRX002", Severity.ERROR,
                f"variable {raw.name!r} is defined more than once",
                span=span, owner=raw.name,
                hint="merge the definitions into one with AND"))
            continue
        seen.add(raw.name)
        if raw.name not in pattern_vars:
            diags.append(Diagnostic(
                "TRX001", Severity.ERROR,
                f"variable {raw.name!r} is defined but never appears in "
                f"the PATTERN clause",
                span=span, owner=raw.name,
                hint=f"add {raw.name} to the pattern or remove the "
                     f"definition"))

        for name in sorted(E.external_references(raw.condition, raw.name)):
            if name not in known:
                close = difflib.get_close_matches(name, sorted(known), n=1)
                hint = f"did you mean {close[0]!r}?" if close else \
                    "define it or add it to the pattern"
                diags.append(Diagnostic(
                    "TRX003", Severity.ERROR,
                    f"condition of {raw.name!r} references undefined "
                    f"variable {name!r}",
                    span=index.qualified_ref(name) or span,
                    hint=hint, owner=raw.name))

        unbound = sorted(E.parameters_used(raw.condition))
        for name in unbound:
            diags.append(Diagnostic(
                "TRX009", Severity.ERROR,
                f"condition of {raw.name!r} uses unbound parameter :{name}",
                span=index.param(name) or span,
                hint=f"supply a value for {name!r} (CLI: --param "
                     f"{name}=VALUE)", owner=raw.name))

        top_level, nested = _window_calls(raw.condition)
        if nested:
            diags.append(Diagnostic(
                "TRX005", Severity.ERROR,
                f"window(...) in variable {raw.name!r} must be a top-level "
                f"AND conjunct of its definition",
                span=span, owner=raw.name,
                hint="move the window call out of OR/NOT/comparison "
                     "sub-expressions"))
        if top_level and not raw.is_segment:
            diags.append(Diagnostic(
                "TRX004", Severity.ERROR,
                f"point variable {raw.name!r} cannot declare a window; "
                f"only segments have a duration",
                span=span, owner=raw.name,
                hint=f"declare it 'SEGMENT {raw.name} AS ...'"))
        for call in top_level:
            if E.parameters_used(call):
                continue  # reported as TRX009 above
            try:
                _interpret_window(call, raw.name)
            except BindError as err:
                diags.append(Diagnostic(
                    "TRX006", Severity.ERROR,
                    f"malformed window(...) in variable {raw.name!r}: {err}",
                    span=span, owner=raw.name,
                    hint="use window(lo, hi), window(size) or "
                         "window(col, lo, hi, UNIT)"))

        for call in E.aggregate_calls(raw.condition):
            agg = registry.lookup(call.name)
            call_span = index.ident(call.name) or span
            if agg is None:
                close = difflib.get_close_matches(
                    call.name, registry.names(), n=1)
                hint = f"did you mean {close[0]!r}?" if close else \
                    "register it with AggregateRegistry.register()"
                diags.append(Diagnostic(
                    "TRX007", Severity.ERROR,
                    f"condition of {raw.name!r} calls unknown aggregate "
                    f"{call.name!r}",
                    span=call_span, hint=hint, owner=raw.name))
                continue
            try:
                agg.validate_call(len(call.columns), len(call.extra))
            except AggregateError as err:
                diags.append(Diagnostic(
                    "TRX008", Severity.ERROR,
                    f"bad call to aggregate {call.name!r} in "
                    f"{raw.name!r}: {err}",
                    span=call_span, owner=raw.name))
    return diags


# ---------------------------------------------------------------------------
# Post-bind semantic checks
# ---------------------------------------------------------------------------

def _per_variable_window_diags(query: Query, spans: _SpanMap,
                               diags: List[Diagnostic]) -> None:
    for var in query.variables.values():
        span = spans.get(var.name)
        for spec in var.windows:
            if spec.is_wild:
                diags.append(Diagnostic(
                    "TRX102", Severity.WARNING,
                    f"variable {var.name!r} has a wild {spec.describe()} "
                    f"that constrains nothing",
                    span=span, owner=var.name,
                    hint="drop the window call or give it bounds"))
        lo, hi = _var_duration_interval(var)
        if lo > hi:
            diags.append(Diagnostic(
                "TRX010", Severity.ERROR,
                f"window constraints on {var.name!r} contradict each "
                f"other: duration >= {lo:g} and <= {hi:g} at once",
                span=span, owner=var.name,
                hint="reconcile the window bounds; their intersection is "
                     "empty"))
        by_column: Dict[Optional[str], Tuple[float, float]] = {}
        for spec in var.windows:
            if spec.kind != "time" or spec.unit is None:
                continue
            scale = UNIT_SECONDS.get(spec.unit.upper())
            if scale is None:
                continue
            t_lo = spec.lo * scale
            t_hi = math.inf if spec.hi is None else spec.hi * scale
            prev = by_column.get(spec.column, (0.0, math.inf))
            by_column[spec.column] = (max(prev[0], t_lo),
                                      min(prev[1], t_hi))
        for column, (t_lo, t_hi) in by_column.items():
            if t_lo > t_hi:
                diags.append(Diagnostic(
                    "TRX010", Severity.ERROR,
                    f"time windows on {var.name!r} (column "
                    f"{column or 'tstamp'}) contradict each other",
                    span=span, owner=var.name,
                    hint="reconcile the time-window bounds; their "
                         "intersection is empty"))


def _scoping_diags(query: Query, spans: _SpanMap,
                   diags: List[Diagnostic]) -> None:
    """TRX012 — references into Kleene/Not bodies (mirrors the planner's
    :func:`repro.optimizer.construct.validate_scoping`)."""
    for node in P.walk(query.pattern):
        if not isinstance(node, (P.Kleene, P.Not)):
            continue
        body = node.child
        inner = {sub.name for sub in P.walk(body)
                 if isinstance(sub, P.VarRef)}
        kind = "Kleene" if isinstance(node, P.Kleene) else "Not"
        for other in query.variables.values():
            if other.name in inner:
                continue
            crossing = sorted(set(other.external_refs) & inner)
            if crossing:
                diags.append(Diagnostic(
                    "TRX012", Severity.ERROR,
                    f"variable {other.name!r} references "
                    f"{', '.join(repr(c) for c in crossing)} inside a "
                    f"{kind} body; such segments are not bound outside it",
                    span=spans.get(other.name), owner=other.name,
                    hint=f"restructure the query so the reference target "
                         f"is outside the {kind} operand"))


def _cycle_diags(query: Query, spans: _SpanMap,
                 diags: List[Diagnostic]) -> None:
    """TRX104 — reference cycles between variables (legal via filter
    lifting, but worth flagging: lifted conditions evaluate late and the
    planner loses most pruning opportunities)."""
    graph = {name: sorted(set(var.external_refs) & set(query.variables))
             for name, var in query.variables.items()}
    reported: Set[Tuple[str, ...]] = set()
    state: Dict[str, int] = {}
    stack: List[str] = []

    def visit(name: str) -> None:
        state[name] = 1
        stack.append(name)
        for dep in graph[name]:
            if state.get(dep, 0) == 0:
                visit(dep)
            elif state.get(dep) == 1:
                cycle = tuple(stack[stack.index(dep):])
                key = tuple(sorted(cycle))
                if key not in reported:
                    reported.add(key)
                    loop = " -> ".join(cycle + (dep,))
                    diags.append(Diagnostic(
                        "TRX104", Severity.WARNING,
                        f"reference cycle between variables: {loop}; the "
                        f"planner must lift these conditions into a late "
                        f"Filter",
                        span=spans.get(dep), owner=dep,
                        hint="break the cycle if possible; cyclic "
                             "conditions disable most search-space "
                             "pruning"))
        stack.pop()
        state[name] = 2

    for name in sorted(graph):
        if state.get(name, 0) == 0:
            visit(name)


def _kleene_cap_diags(query: Query, spans: _SpanMap,
                      diags: List[Diagnostic]) -> None:
    """TRX101 — unbounded Kleene with no duration cap anywhere above it."""

    def visit(node: P.Pattern, capped: bool) -> None:
        bounded = capped or _finite_max_duration(node, query)
        if isinstance(node, P.Kleene) and node.max_reps is None \
                and not bounded:
            names = node.variables()
            anchor = next((n for n in names if n in spans), None)
            diags.append(Diagnostic(
                "TRX101", Severity.WARNING,
                f"unbounded repetition {node.describe()} has no window "
                f"cap; its search space grows with the series length",
                span=spans.get(anchor) if anchor else None, owner=anchor,
                hint="conjoin a bounded window (e.g. '(...)+ & W' with "
                     "'SEGMENT W AS window(0, n)') or bound the "
                     "repetition count"))
        for child in node.children():
            visit(child, bounded)

    visit(query.pattern, False)


def _aggregate_target_diags(query: Query, spans: _SpanMap,
                            diags: List[Diagnostic]) -> None:
    """TRX105 — aggregates over a point variable's single-record segment."""
    for var in query.variables.values():
        for call in var.aggregate_calls():
            agg = query.registry.lookup(call.name)
            if agg is None or getattr(agg, "needs_series_context", False):
                continue
            targets = {ref.variable or var.name for ref in call.columns}
            for target in sorted(targets):
                tvar = query.variables.get(target)
                if tvar is not None and not tvar.is_segment:
                    diags.append(Diagnostic(
                        "TRX105", Severity.WARNING,
                        f"{call.name}(...) in {var.name!r} aggregates over "
                        f"point variable {target!r}; a one-point segment "
                        f"makes the aggregate trivial",
                        span=spans.get(var.name), owner=var.name,
                        hint=f"declare {target!r} as a SEGMENT variable or "
                             f"use a plain column reference"))


def _subset_diags(query: Query, diags: List[Diagnostic]) -> None:
    if not query.subsets:
        return
    used: Set[str] = set()
    for var in query.variables.values():
        used |= set(E.referenced_variables(var.condition))
    for name in sorted(query.subsets):
        if name not in used:
            diags.append(Diagnostic(
                "TRX103", Severity.WARNING,
                f"SUBSET {name!r} is never referenced by any condition",
                hint="remove the SUBSET clause or use it in a DEFINE",
                owner=name))


def _not_diags(query: Query, spans: _SpanMap,
               diags: List[Diagnostic]) -> None:
    for node in P.walk(query.pattern):
        if isinstance(node, P.Not) and \
                _matches_every_segment(node.child, query):
            names = node.child.variables()
            anchor = next((n for n in names if n in spans), None)
            diags.append(Diagnostic(
                "TRX013", Severity.ERROR,
                f"~{node.child.describe()} can never match: its operand "
                f"matches every segment, so the negation matches none",
                span=spans.get(anchor) if anchor else None, owner=anchor,
                hint="give the negated variables a condition or window so "
                     "they exclude something"))


def analyze(query: Query,
            spans: Optional[_SpanMap] = None) -> List[Diagnostic]:
    """Semantic lint of a bound query (the engine-facing API).

    ``spans`` optionally maps variable names to source spans (available
    when the caller kept the :class:`ParsedQuery` around); without it the
    diagnostics simply carry no locations.
    """
    span_map: _SpanMap = spans or {}
    diags: List[Diagnostic] = []
    _per_variable_window_diags(query, span_map, diags)
    _pattern_interval(query.pattern, query, span_map, diags)
    _scoping_diags(query, span_map, diags)
    _not_diags(query, span_map, diags)
    _kleene_cap_diags(query, span_map, diags)
    _cycle_diags(query, span_map, diags)
    _aggregate_target_diags(query, span_map, diags)
    _subset_diags(query, diags)
    return sort_diagnostics(diags)


def lint_text(text: str, params: Optional[Dict[str, object]] = None,
              registry: AggregateRegistry = DEFAULT_REGISTRY) \
        -> List[Diagnostic]:
    """Lint raw query text; returns diagnostics instead of raising."""
    params = params or {}
    try:
        index = _TokenIndex(tokenize(text))
        parsed = parse(text, params)
    except QuerySyntaxError as err:
        span = Span(err.line, err.column) if err.line else None
        return [Diagnostic("TRX000", Severity.ERROR, str(err), span=span)]
    diags = _lint_parsed(parsed, index, registry)
    if has_errors(diags):
        return sort_diagnostics(diags)
    try:
        query = bind(parsed, params, registry)
    except TRexError as err:
        diags.append(Diagnostic(
            "TRX014", Severity.ERROR, f"query failed to bind: {err}"))
        return sort_diagnostics(diags)
    diags.extend(analyze(query, spans=_spans_from(parsed)))
    return sort_diagnostics(diags)
