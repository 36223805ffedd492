"""Vectorized leaf kernels behind the ``eval`` contract (ROADMAP item 1).

The scalar leaf hot loop (`exec/seggen.py`) pays a Python-level
``EvalContext`` construction and an interpreted expression walk per
candidate ``(start, end)``.  This module compiles the *supported subset*
of condition expressions into numpy evaluators over whole candidate
batches and enumerates the search-space box/diagonal as arrays, so the
per-candidate cost collapses to a few array ops.

Non-negotiable contract (docs/VECTORIZATION.md): for every eligible
plan/series the vector path produces **byte-identical** results to the
scalar path — matches, ``ctx.stats`` counters, per-op EXPLAIN ANALYZE
counters, and error behavior.  Three mechanisms make that hold:

* **Capability gating** — :func:`compile_condition` declines any
  expression whose vector evaluation could diverge (parameters,
  aggregates that do not *declare* an exact batch form — see
  ``Aggregate.batch_lookup``/``batch_kernel`` — such as direct
  ``sum``/``avg``, whose ``np.sum`` accumulates pairwise, ...) and
  reports why; the leaf then runs the scalar loop.  Per-series
  ineligibility (missing or wrongly typed condition columns, interval
  units that fail to convert, kernel arguments the aggregate rejects)
  is caught by :func:`_bind`, so data errors surface from the scalar
  path exactly as before.
* **Suspension-exact counters** — consumers such as ``ProbeNot`` pull a
  single segment and abandon the iterator, so counters must be correct
  at *every* generator suspension point, not just batch boundaries.
  Batch evaluation therefore accumulates per-candidate counter deltas
  and flushes their running (cumulative-sum) totals just before each
  yield; see :func:`_eval_batch`.
* **Short-circuit parity** — ``and``/``or`` evaluate both branches over
  the batch but thread a *live mask* so per-candidate aggregate-call
  counters (``index_lookups``/``direct_agg_evals``) are only charged for
  candidates whose scalar evaluation would have reached the call.

Budget contract: the deadline ticks the scalar loop pays per candidate
are amortized as :meth:`ExecContext.tick_batch` — one deadline check per
batch of at most :data:`BATCH_SIZE` candidates.

Both evaluators are fed by one enumerator, :func:`candidate_runs`, and
:func:`try_eval` picks between them per call from the number of
admissible candidates (:data:`BATCH_CROSSOVER`).
"""

from __future__ import annotations

import functools
import itertools
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Tuple)

import numpy as np

from repro.lang import expr as E
from repro.testing import faults as _faults
from repro.timeseries.segment import Segment

if TYPE_CHECKING:
    from repro.exec.base import Env, ExecContext, PhysicalOperator
    from repro.lang.query import VarDef
    from repro.lang.windows import WindowConjunction
    from repro.plan.search_space import SearchSpace
    from repro.timeseries.series import Series

#: Maximum candidates evaluated (and ticked) per batch.  ``tick_batch``
#: performs one deadline check per batch, so this bounds how far past
#: its deadline a query can run relative to the scalar path's
#: per-candidate ticks (docs/VECTORIZATION.md).
BATCH_SIZE = 4096

#: A leaf call with fewer admissible candidates than this runs the
#: scalar evaluator: the batch path's fixed cost per call (array set-up,
#: counter bookkeeping) is only repaid from here up.  Fitted from the
#: sweep committed in docs/VECTORIZATION.md ("Choosing the strategy").
BATCH_CROSSOVER = 8

#: Candidate run orders: ``(drive, lo, hi)`` fixes the start and ranges
#: over ends, fixes the end and ranges over starts, or ranges over
#: diagonal points ``(i, i)``.
BY_START, BY_END, DIAGONAL = range(3)

#: The all-candidates live mask every batch starts from (sliced, never
#: written: masks derived from it are new arrays).
_LIVE = np.ones(BATCH_SIZE, dtype=bool)
_LIVE.flags.writeable = False


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------
#
# A compiled node is a closure ``fn(state, live) -> value`` where value
# is a float64/bool numpy array over the batch or a (numpy/python)
# scalar broadcastable to it.  ``live`` marks candidates whose scalar
# evaluation would reach this node (short-circuit parity); only
# aggregate-call sites consume it, everything else passes it through.


class _Unsupported(Exception):
    """Raised during compilation for expressions outside the subset."""


class _CompileCtx:
    """Mutable state threaded through one compilation."""

    __slots__ = ("var_name", "is_segment", "provider_kind", "registry",
                 "columns", "texts", "intervals", "kernels")

    def __init__(self, var_name: str, is_segment: bool, provider_kind: str,
                 registry) -> None:
        self.var_name = var_name
        self.is_segment = is_segment
        self.provider_kind = provider_kind  # 'direct' | 'indexed'
        self.registry = registry
        self.columns: set = set()    # must bind as float64
        self.texts: set = set()      # string-equality sites: object dtype
        self.intervals: set = set()
        self.kernels: dict = {}      # direct call key -> aggregate


class _Program:
    """A compiled condition plus everything bind() must validate."""

    __slots__ = ("fn", "kind", "columns", "texts", "intervals", "kernels")

    def __init__(self, fn: Callable, kind: str, cx: _CompileCtx) -> None:
        self.fn = fn
        self.kind = kind  # 'bool' | 'num'
        self.columns = tuple(sorted(cx.columns))
        self.texts = tuple(sorted(cx.texts))
        self.intervals = tuple(sorted(cx.intervals))
        self.kernels = tuple(cx.kernels.items())


def _truthy(kind: str, value: object) -> object:
    """Vector mirror of :func:`repro.lang.expr.truthy` for the two
    compiled value kinds (bools as-is; numbers nonzero-and-not-NaN)."""
    if kind == "bool":
        return value
    return np.logical_and(value != 0, np.logical_not(np.isnan(value)))


def _numify(kind: str, fn: Callable) -> Callable:
    """Wrap ``fn`` so its value matches scalar ``as_number`` semantics."""
    if kind == "num":
        return fn

    def to_num(st: "_EvalState", live: np.ndarray) -> object:
        value = fn(st, live)
        if isinstance(value, np.ndarray):
            return value.astype(np.float64)
        return np.float64(1.0) if value else np.float64(0.0)

    return to_num


def _vdiv(a: object, b: object) -> object:
    """Division with the scalar path's explicit zero-divisor branch.

    Scalar semantics (lang/expr.py): ``a / b`` unless ``b != 0`` is
    false — then ``inf``/``-inf``/``nan`` by the sign of ``a``.  The
    branch keys on ``b == 0``, so ``b = -0.0`` takes the zero branch
    (never ``-inf`` from IEEE division), and a NaN ``a`` yields NaN
    (``inf * 0``).  Registered in EXACT_FLOAT_SITES: the comparison is
    intentionally bitwise, mirroring the scalar branch predicate.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    zero = b == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.true_divide(a, b)
    if not zero.any():
        return quotient
    signed = np.where(a > 0, np.inf, np.where(a < 0, -np.inf, np.nan))
    return np.where(zero, signed, quotient)


_VECTOR_CMP = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "=": np.equal,
    "==": np.equal,
    "!=": np.not_equal,
    "<>": np.not_equal,
}

_VECTOR_ARITH = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
}


def _compile(node: E.Expr, cx: _CompileCtx,
             text: bool = False) -> Tuple[str, Callable]:
    """Compile one expression node; raises :class:`_Unsupported`.

    ``text`` marks the two operands of an ``=``/``!=`` against a string
    literal: the only site where a string, or an object column, is
    admitted (comparison there is Python ``==`` per element).
    """
    if isinstance(node, E.Literal):
        value = node.value
        if isinstance(value, bool):
            return "bool", lambda st, live, v=value: v
        if isinstance(value, (int, float)):
            constant = float(value)
            return "num", lambda st, live, v=constant: v
        if text and isinstance(value, str):
            # 0-d object array: forces numpy's per-element ``==`` loop
            # whatever the other operand holds.
            boxed = np.array(value, dtype=object)
            return "num", lambda st, live, v=boxed: v
        raise _Unsupported("non-numeric literal")
    if isinstance(node, E.Interval):
        key = (node.value, node.unit)
        cx.intervals.add(key)
        return "num", lambda st, live, k=key: st.intervals[k]
    if isinstance(node, (E.ColumnRef, E.PointAccess)):
        # A standalone reference denotes the segment's last value
        # (MATCH_RECOGNIZE "final" semantics, lang/expr.py).
        ref = node.arg if isinstance(node, E.PointAccess) else node
        first = isinstance(node, E.PointAccess) and node.which == "first"
        (cx.texts if text else cx.columns).add(ref.column)
        if ref.variable is None or ref.variable == cx.var_name:
            return "num", (lambda st, live, c=ref.column, f=first:
                           st.cols[c][st.starts if f else st.ends])
        return "num", (lambda st, live, v=ref.variable, c=ref.column,
                       w="first" if first else "last":
                       st.ref_value(v, c, w))
    if isinstance(node, E.AggCall):
        return "num", _compile_agg(node, cx)
    if isinstance(node, E.Unary):
        kind, fn = _compile(node.operand, cx)
        if node.op == "-":
            numeric = _numify(kind, fn)
            return "num", lambda st, live: np.negative(numeric(st, live))
        if node.op == "not":
            return "bool", (lambda st, live:
                            np.logical_not(_truthy(kind, fn(st, live))))
        raise _Unsupported(f"unary {node.op!r}")
    if isinstance(node, E.Binary):
        return _compile_binary(node, cx)
    if isinstance(node, E.Between):
        vk, vf = _compile(node.operand, cx)
        lk, lf = _compile(node.low, cx)
        hk, hf = _compile(node.high, cx)

        def between(st: "_EvalState", live: np.ndarray) -> object:
            value = vf(st, live)
            low = lf(st, live)
            high = hf(st, live)
            return np.logical_and(np.less_equal(low, value),
                                  np.less_equal(value, high))
        return "bool", between
    # WindowCall, Param, and anything not modeled: scalar fallback.  The
    # scalar path raises for WindowCall/Param at evaluation time, and
    # the counter state at that raise must stay scalar-exact.
    raise _Unsupported(type(node).__name__)


def _compile_binary(node: E.Binary, cx: _CompileCtx) -> Tuple[str, Callable]:
    if node.op == "and":
        lk, lf = _compile(node.left, cx)
        rk, rf = _compile(node.right, cx)

        def and_fn(st: "_EvalState", live: np.ndarray) -> object:
            left = _truthy(lk, lf(st, live))
            right = _truthy(rk, rf(st, np.logical_and(live, left)))
            return np.logical_and(left, right)
        return "bool", and_fn
    if node.op == "or":
        lk, lf = _compile(node.left, cx)
        rk, rf = _compile(node.right, cx)

        def or_fn(st: "_EvalState", live: np.ndarray) -> object:
            left = _truthy(lk, lf(st, live))
            right = _truthy(
                rk, rf(st, np.logical_and(live, np.logical_not(left))))
            return np.logical_or(left, right)
        return "bool", or_fn
    if node.op in _VECTOR_CMP:
        op = _VECTOR_CMP[node.op]
        sides = (node.left, node.right)
        text = op in (np.equal, np.not_equal) and any(
            isinstance(a, E.Literal) and isinstance(a.value, str)
            and isinstance(b, (E.ColumnRef, E.PointAccess))
            for a, b in (sides, sides[::-1]))
        lk, lf = _compile(node.left, cx, text)
        rk, rf = _compile(node.right, cx, text)
        return "bool", lambda st, live: op(lf(st, live), rf(st, live))
    if node.op in _VECTOR_ARITH:
        op = _VECTOR_ARITH[node.op]
        lf = _numify(*_compile(node.left, cx))
        rf = _numify(*_compile(node.right, cx))
        return "num", lambda st, live: op(lf(st, live), rf(st, live))
    if node.op == "/":
        lf = _numify(*_compile(node.left, cx))
        rf = _numify(*_compile(node.right, cx))
        return "num", lambda st, live: _vdiv(lf(st, live), rf(st, live))
    raise _Unsupported(f"binary {node.op!r}")


# trex: no-tick(walks one condition's call arguments at compile time)
def _compile_agg(node: E.AggCall, cx: _CompileCtx) -> Callable:
    try:
        agg = cx.registry.get(node.name)
    except Exception as exc:
        raise _Unsupported(str(exc)) from None
    if agg.needs_series_context and cx.is_segment:
        raise _Unsupported("series-context aggregate on a segment variable")
    for ref in node.columns:
        # Cross-segment calls (external refs) always evaluate directly
        # in the scalar path; keep them there.
        if ref.variable is not None and ref.variable != cx.var_name:
            raise _Unsupported("cross-segment aggregate")
        cx.columns.add(ref.column)
    extras: List[float] = []
    for extra_node in node.extra:
        if not isinstance(extra_node, E.Literal) \
                or isinstance(extra_node.value, str) \
                or not isinstance(extra_node.value, (bool, int, float)):
            raise _Unsupported("non-literal aggregate extra")
        extras.append(E.as_number(extra_node.value))
    extra = tuple(extras)
    # The aggregate itself declares its exact batch forms; an undeclared
    # one stays on the scalar loop, so a raising lookup surfaces
    # mid-stream exactly as the scalar path would.
    key = (agg.name, tuple(ref.column for ref in node.columns), extra)
    if cx.provider_kind == "indexed" and agg.supports_index \
            and not agg.needs_series_context:
        if not agg.batch_lookup:
            raise _Unsupported("no exact batch lookup")
        return (lambda st, live, a=agg, call=node, k=key:
                st.indexed_lookup(a, call, k, live))
    # Direct evaluation (SegGenFilter, or an indexed leaf whose
    # aggregate does not support indexing).
    if not agg.has_batch_kernel:
        raise _Unsupported("no exact batch direct evaluation")
    cx.kernels[key] = agg
    return lambda st, live, k=key: st.direct_agg(k, live)


@functools.lru_cache(maxsize=256)
def _compiled(condition: Optional[E.Expr], var_name: str, is_segment: bool,
              provider_kind: str, registry) -> Tuple[Optional[_Program], str]:
    cx = _CompileCtx(var_name, is_segment, provider_kind, registry)
    if condition is None:
        return _Program(lambda st, live: True, "bool", cx), ""
    try:
        kind, fn = _compile(condition, cx)
    except _Unsupported as exc:
        return None, str(exc)
    return _Program(fn, kind, cx), ""


def compile_condition(var: "VarDef", provider_kind: str,
                      registry) -> Tuple[Optional[_Program], str]:
    """``(program, "")``, or ``(None, why)`` when outside the subset.

    Memoised on the (frozen, hashable) condition tree: the planner asks
    for the same verdict at every DP leaf costing, and every series of a
    query binds the same program.
    """
    key = (var.condition, var.name, var.is_segment, provider_kind, registry)
    try:
        return _compiled(*key)
    except TypeError:  # an unhashable literal (a list-valued parameter)
        return _compiled.__wrapped__(*key)


def compiles_statically(var: "VarDef", provider_kind: str,
                        registry) -> bool:
    """Whether the condition is vector-compilable on this provider path.

    Used by the cost model; depends only on the query and registry —
    never on the runtime toggle or the series — so plan choice is
    identical whether or not vectorization is enabled at run time.
    """
    return compile_condition(var, provider_kind, registry)[0] is not None


# ---------------------------------------------------------------------------
# Bind: per-(operator, series) eligibility and state
# ---------------------------------------------------------------------------


class _Bound(NamedTuple):
    """What every evaluation of one condition over one series shares
    (ROADMAP 1b: per ``(op, series)`` work is done once, not per call)."""

    program: _Program
    cols: Dict[str, np.ndarray]                 # resolved condition columns
    intervals: Dict[Tuple[float, str], float]   # in the series' time unit
    kernels: Dict[tuple, Callable]              # direct call key -> kernel


# trex: no-tick(bounded by the program's columns, kernels and window specs)
def _bind(var: "VarDef", window: "WindowConjunction", series: "Series",
          registry, provider_kind: str) -> Optional[_Bound]:
    """Compile and validate per-series assumptions; ``None`` to decline.

    Checks that ``var``'s condition compiles, that every condition
    column (and, for point variables, every time-window column of
    ``window`` the diagonal enumerator reads) exists as a float64 array
    — an object array at string-equality sites — that window bounds and
    interval literals convert to the series' time unit, and that every
    direct aggregate call yields a kernel for its arguments.  Any
    failure falls back to the scalar loop, which raises (or not) exactly
    as it always did.  The leaf binds its operator's window, the
    planner's sampler the variable's own (:func:`count_matches`).
    """
    from repro.timeseries.timeunits import to_base_units
    program = compile_condition(var, provider_kind, registry)[0]
    if program is None:
        return None
    timed = tuple(spec.column or series.order_column
                  for spec in window.specs if spec.kind == "time")
    cols: Dict[str, np.ndarray] = {}
    for names, dtype in ((program.columns + timed, np.float64),
                         (program.texts, np.object_)):
        for name in names:
            if not series.has_column(name) \
                    or series.column(name).dtype != dtype:
                return None
            cols[name] = series.column(name)
    # Window bounds are computed inside the enumerator; a unit that
    # fails to convert, or an argument a kernel chokes on, must surface
    # from the scalar path instead.
    try:
        for spec in window.specs:
            spec.bounds_on(series)
        intervals = {key: to_base_units(key[0], key[1], series.time_unit)
                     for key in program.intervals}
        kernels = {key: agg.batch_kernel([cols[c] for c in key[1]], key[2])
                   for key, agg in program.kernels}
    except Exception:
        return None
    if None in kernels.values():
        return None
    return _Bound(program, cols, intervals, kernels)


# ---------------------------------------------------------------------------
# Batch evaluation state
# ---------------------------------------------------------------------------


class _EvalState:
    """Everything one batch evaluation needs, plus counter deltas."""

    __slots__ = ("ctx", "starts", "ends", "refs", "cols", "intervals",
                 "kernels", "deltas", "pending_builds")

    def __init__(self, ctx: "ExecContext", bound: _Bound, starts: np.ndarray,
                 ends: np.ndarray, refs: "Env") -> None:
        self.ctx = ctx
        self.starts = starts
        self.ends = ends
        self.refs = refs
        self.cols = bound.cols
        self.intervals = bound.intervals
        self.kernels = bound.kernels
        #: counter name -> per-candidate increments (bool mask or int64).
        self.deltas: Dict[str, np.ndarray] = {}
        #: index key -> union of live masks across this batch's call
        #: sites, for indexes built *during* this batch (see
        #: :meth:`settle_builds`).
        self.pending_builds: Dict[tuple, np.ndarray] = {}

    def ref_value(self, variable: str, column: str, which: str) -> object:
        """Constant value of an external reference (same for the batch)."""
        start, end = self.refs[variable]
        return self.ctx.series.value_at(column, start if which == "first"
                                        else end)

    def add_delta(self, name: str, counts: np.ndarray) -> None:
        """Accumulate per-candidate increments (masks are not copied
        until a second site adds to the same counter)."""
        existing = self.deltas.get(name)
        self.deltas[name] = counts if existing is None \
            else existing.astype(np.int64) + counts

    def indexed_lookup(self, agg, call: E.AggCall, key: tuple,
                       live: np.ndarray) -> np.ndarray:
        """Batched index lookups with scalar-exact counter attribution."""
        if not live.any():
            # No candidate's scalar evaluation reaches this call: no
            # lookups, and — crucially — no index build.
            return np.zeros(len(self.starts), dtype=np.float64)
        self.add_delta("index_lookups", live)
        ctx = self.ctx
        builds_before = ctx.stats["index_builds"]
        index = ctx.aggregate_index(agg, call, key[2])
        if ctx.stats["index_builds"] != builds_before:
            # aggregate_index charged the build eagerly, but the scalar
            # path builds at the first *candidate* that reaches any call
            # site for this key — which a later site may reach earlier
            # in the batch.  Revert the eager charge and defer the
            # per-candidate attribution to settle_builds().
            ctx.stats["index_builds"] = builds_before
            self.pending_builds[key] = np.array(live, dtype=bool)
        elif key in self.pending_builds:
            np.logical_or(self.pending_builds[key], live,
                          out=self.pending_builds[key])
        return index.lookup_batch(self.starts, self.ends)

    # trex: no-tick(at most one entry per distinct index key)
    def settle_builds(self) -> None:
        """Charge each deferred index build to the first candidate whose
        scalar evaluation would have reached any call site for its key."""
        for union in self.pending_builds.values():
            one_hot = np.zeros(len(self.starts), dtype=np.int64)
            one_hot[int(np.argmax(union))] = 1
            self.add_delta("index_builds", one_hot)

    def direct_agg(self, key: tuple, live: np.ndarray) -> np.ndarray:
        """The aggregate's own exact direct batch kernel."""
        if not live.any():
            return np.zeros(len(self.starts), dtype=np.float64)
        self.add_delta("direct_agg_evals", live)
        return self.kernels[key](self.starts, self.ends)


# ---------------------------------------------------------------------------
# Candidate enumeration: one enumerator, scalar iteration order
# ---------------------------------------------------------------------------

Run = Tuple[int, int, int]


def candidate_runs(op: "PhysicalOperator", ctx: "ExecContext",
                   sp: "SearchSpace") -> Tuple[int, Iterator[Run]]:
    """``(order, runs)``: the admissible candidates of one leaf call.

    The one enumerator behind both evaluators.  A run ``(drive, lo,
    hi)`` stands for ``hi - lo + 1`` consecutive candidates in the order
    the scalar nested loop visits them (``WindowConjunction.iterate`` /
    ``iterate_by_end`` with their driving-direction rule; the diagonal
    for point variables).  ``sp`` must be clamped and non-empty.
    """
    if not op.var.is_segment:
        return DIAGONAL, _diagonal_runs(op, ctx, sp)
    by_end = (sp.e_hi - sp.e_lo) < (sp.s_hi - sp.s_lo)
    return (BY_END if by_end else BY_START), _box_runs(
        op.window, ctx.series, sp, by_end)


# trex: no-tick(candidates tick in the evaluators; empty drives are free)
def _box_runs(window, series: "Series", sp: "SearchSpace",
              by_end: bool) -> Iterator[Run]:
    if by_end:
        for end in range(sp.e_lo, sp.e_hi + 1):
            lo, hi = window.start_range(series, end)
            lo, hi = max(lo, sp.s_lo), min(hi, sp.s_hi, end)
            if lo <= hi:
                yield end, lo, hi
    else:
        for start in range(sp.s_lo, sp.s_hi + 1):
            lo, hi = window.end_range(series, start)
            lo, hi = max(lo, sp.e_lo, start), min(hi, sp.e_hi)
            if lo <= hi:
                yield start, lo, hi


def _diagonal_runs(op: "PhysicalOperator", ctx: "ExecContext",
                   sp: "SearchSpace") -> Iterator[Run]:
    """Maximal runs of admissible ``(i, i)`` points.

    A diagonal candidate's duration is 0 under every spec, or NaN where
    a time column is not finite — and a NaN duration fails both
    rejection tests of ``WindowConjunction.accepts``, so such a point is
    accepted whatever the bounds.  Every point of the range is ticked,
    rejected ones included, as the scalar diagonal walk always did.
    """
    series = ctx.series
    lo, hi = max(sp.s_lo, sp.e_lo), min(sp.s_hi, sp.e_hi)
    if hi < lo:
        return
    ctx.tick_batch(hi - lo + 1)
    keep = None
    # trex: no-tick(bounded by the window's spec count)
    for spec in op.window.specs:
        b_lo, b_hi = spec.bounds_on(series)
        if not (0 < b_lo or (b_hi is not None and 0 > b_hi)):
            continue
        if spec.kind == "point":
            return
        column = series.float_column(spec.column or series.order_column)
        odd = ~np.isfinite(column[lo:hi + 1])
        keep = odd if keep is None else keep & odd
    if keep is None:
        yield lo, lo, hi
        return
    edges = np.flatnonzero(np.diff(np.concatenate(
        ([False], keep, [False])).astype(np.int8)))
    # trex: no-tick(one step per gap between already-ticked points)
    for first, stop in zip(edges[0::2].tolist(), edges[1::2].tolist()):
        yield lo + first, lo + first, lo + stop - 1


# trex: no-tick(one pair per candidate; the scalar evaluator ticks each)
def pairs(order: int, runs: Iterable[Run]) -> Iterator[Tuple[int, int]]:
    """``(start, end)`` per candidate, for the scalar evaluator."""
    for drive, lo, hi in runs:
        if order == BY_START:
            for end in range(lo, hi + 1):
                yield drive, end
        elif order == BY_END:
            for start in range(lo, hi + 1):
                yield start, drive
        else:
            for point in range(lo, hi + 1):
                yield point, point


# trex: no-charge(buffers candidate index runs, not retained segments)
def _batches(ctx: "ExecContext", order: int, runs: Iterable[Run]
             ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Expand runs into ``(starts, ends)`` batches, ticked per batch."""
    runs = iter(runs)
    while True:
        block: List[Run] = []
        pending = 0
        # trex: no-tick(buffered candidates tick per batch, below)
        for run in runs:
            block.append(run)
            pending += run[2] - run[1] + 1
            if pending >= BATCH_SIZE:
                break
        if not block:
            return
        if len(block) == 1:  # a probe: no per-run bookkeeping arrays
            flat = np.arange(block[0][1], block[0][2] + 1, dtype=np.int64)
            fixed = np.empty(pending, dtype=np.int64)
            fixed.fill(block[0][0])
        else:
            drive, lo, hi = np.array(block, dtype=np.int64).T
            counts = hi - lo + 1
            flat = (np.arange(pending, dtype=np.int64)
                    + np.repeat(lo - (np.cumsum(counts) - counts), counts))
            fixed = np.repeat(drive, counts)
        starts, ends = ((fixed, flat), (flat, fixed), (flat, flat))[order]
        for at in range(0, pending, BATCH_SIZE):
            ctx.tick_batch(min(BATCH_SIZE, pending - at))
            yield starts[at:at + BATCH_SIZE], ends[at:at + BATCH_SIZE]


# ---------------------------------------------------------------------------
# Batch evaluation with suspension-exact counter flushes
# ---------------------------------------------------------------------------


def _evaluate(ctx: "ExecContext", bound: _Bound, starts: np.ndarray,
              ends: np.ndarray, refs: "Env") -> Tuple[_EvalState, np.ndarray]:
    """The bound program over one batch: its per-candidate truth, and
    the state holding the batch's counter deltas."""
    size = len(starts)
    state = _EvalState(ctx, bound, starts, ends, refs)
    program = bound.program
    matched = _truthy(program.kind, program.fn(state, _LIVE[:size]))
    if not isinstance(matched, np.ndarray) or matched.shape != (size,):
        matched = np.broadcast_to(np.asarray(matched, dtype=bool), (size,))
    state.settle_builds()
    return state, matched


def _eval_batch(ctx: "ExecContext", record, bound: _Bound,
                payload_name: Optional[str], starts: np.ndarray,
                ends: np.ndarray, refs: "Env") -> Iterator[Segment]:
    size = len(starts)
    state, matched = _evaluate(ctx, bound, starts, ends, refs)
    stats = ctx.stats
    rec_counters = record.counters if record is not None else None
    hits = matched.nonzero()[0]
    # Counters must be exact at every suspension point: the flush for
    # hit k covers candidates (hits[k-1], hits[k]], the tail follows the
    # last hit.  cum[j] = increments charged by candidates 0..j-1, so a
    # flush over [a, b) is one subtraction; condition_evals charges one
    # per candidate, so its cum is the bounds themselves.  Everything
    # the per-yield loop touches is pre-sliced into plain lists: numpy
    # scalar boxing per emission dominates otherwise.
    names = ["condition_evals", *state.deltas]
    if len(hits):
        bounds = np.concatenate(([0], hits + 1, [size]))
        cums = [bounds] + [np.concatenate(([0], np.cumsum(delta)))[bounds]
                           for delta in state.deltas.values()]
        steps = [(cum[1:] - cum[:-1]).tolist() for cum in cums]
    else:  # the usual probe outcome: one flush, no per-candidate arrays
        steps = [[size]] + [[int(delta.sum())]
                            for delta in state.deltas.values()]
    flushes = list(zip(names, steps))
    hit_starts = starts[hits].tolist()
    hit_ends = ends[hits].tolist()
    last = len(hit_starts)
    # trex: no-tick(bounded by one already-ticked batch)
    for k in range(last + 1):
        # trex: no-tick(a few counter names per emission)
        for name, step in flushes:
            value = step[k]
            if value:
                stats[name] += value
                if rec_counters is not None and name == "condition_evals":
                    rec_counters[name] += value
        if k == last:
            return
        stats["segments_emitted"] += 1
        if rec_counters is not None:
            rec_counters["segments_emitted"] += 1
        start = hit_starts[k]
        end = hit_ends[k]
        if payload_name is not None:
            yield Segment(start, end, {payload_name: (start, end)})
        else:
            yield Segment(start, end)


# trex: no-charge(holds fewer than BATCH_CROSSOVER index runs, no segments)
def try_eval(op: "PhysicalOperator", ctx: "ExecContext", sp: "SearchSpace",
             refs: "Env", record,
             provider_kind: str) -> Optional[Iterator[Segment]]:
    """One leaf eval on the vector path, or ``None`` to run scalar.

    Eligibility: the context's vectorize hook is on, fault injection is
    off (fault points live in the scalar call graph), the condition
    compiles, and the series binds.  ``sp`` must already be clamped and
    non-empty (the caller does both).

    An eligible call still takes the leaf's scalar evaluator when fewer
    than :data:`BATCH_CROSSOVER` candidates are admissible — a function
    of ``sp`` and the window alone, so every executor decides alike.
    """
    if not ctx.vectorize or _faults.ENABLED:
        return None
    bound = ctx.vector_binds.get(op.op_id, False)
    if bound is False:
        bound = ctx.vector_binds[op.op_id] = _bind(
            op.var, op.window, ctx.series, ctx.registry, provider_kind)
    if bound is None:
        return None
    order, runs = candidate_runs(op, ctx, sp)
    head: List[Run] = []
    pending = 0
    # trex: no-tick(stops at the crossover; candidates tick when evaluated)
    for run in runs:
        head.append(run)
        pending += run[2] - run[1] + 1
        if pending >= BATCH_CROSSOVER:
            break
    else:
        return op.scalar(ctx, pairs(order, head), refs, record)
    if record is not None:
        record.batch_calls += 1
    payload_name = op.var.name if op.var.name in op.publish else None
    return itertools.chain.from_iterable(
        _eval_batch(ctx, record, bound, payload_name, starts, ends, refs)
        for starts, ends in _batches(ctx, order,
                                     itertools.chain(head, runs)))


# trex: no-tick(the planner's sampler checks its deadlines per batch)
def count_matches(ctx: "ExecContext", var: "VarDef", provider_kind: str,
                  starts: np.ndarray, ends: np.ndarray) -> Optional[int]:
    """How many ``(starts[i], ends[i])`` satisfy ``var``'s condition
    (no external references), or ``None`` to run the scalar loop: the
    planner's sampler on the leaf's program and kernels, under the
    eligibility of :func:`try_eval`."""
    if not ctx.vectorize or _faults.ENABLED:
        return None
    bound = _bind(var, var.window_conjunction, ctx.series, ctx.registry,
                  provider_kind)
    if bound is None:
        return None
    return sum(int(np.count_nonzero(_evaluate(
        ctx, bound, starts[at:at + BATCH_SIZE], ends[at:at + BATCH_SIZE],
        {})[1])) for at in range(0, len(starts), BATCH_SIZE))
