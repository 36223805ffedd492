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

* **Capability gating** — :func:`compile_condition` returns ``None`` for
  any expression whose vector evaluation could diverge (string literals,
  parameters, non-exact direct aggregates like ``sum``/``avg`` whose
  ``np.sum`` uses pairwise accumulation, aggregates needing series
  context, interval units that fail to convert, ...); the leaf then runs
  the scalar loop.  Per-series ineligibility (missing or non-float64
  condition columns) is caught by :func:`bind`, so data errors surface
  from the scalar path exactly as before.
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
"""

from __future__ import annotations

import weakref
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Tuple)

import numpy as np

from repro.lang import expr as E
from repro.testing import faults as _faults
from repro.timeseries.segment import Segment

if TYPE_CHECKING:
    from repro.exec.base import Env, ExecContext, PhysicalOperator
    from repro.lang.query import VarDef
    from repro.plan.search_space import SearchSpace
    from repro.timeseries.series import Series

#: Maximum candidates evaluated (and ticked) per batch.  ``tick_batch``
#: performs one deadline check per batch, so this bounds how far past
#: its deadline a query can run relative to the scalar path's
#: per-candidate ticks (docs/VECTORIZATION.md).
BATCH_SIZE = 4096

#: Aggregates whose *indexed* lookups have exact batch equivalents
#: (``lookup_batch`` reproduces ``lookup`` bit-for-bit; see
#: aggregates/basic.py).  Other indexable aggregates fall back to the
#: scalar loop so a raising lookup surfaces mid-stream exactly as the
#: scalar path would.
_INDEXED_VECTOR_AGGS = frozenset(
    {"count", "sum", "avg", "min", "max", "stddev"})

#: Aggregates with exact *direct* (unshared) batch evaluation.  ``sum``
#: and ``avg`` are excluded here: ``np.sum`` over a slice uses pairwise
#: accumulation, which a batched left-fold cannot reproduce bit-for-bit.
_DIRECT_VECTOR_AGGS = frozenset({"count", "min", "max"})


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

    __slots__ = ("var_name", "provider_kind", "registry", "columns",
                 "intervals")

    def __init__(self, var_name: str, provider_kind: str, registry) -> None:
        self.var_name = var_name
        self.provider_kind = provider_kind  # 'direct' | 'indexed'
        self.registry = registry
        self.columns: set = set()
        self.intervals: set = set()


class _Program:
    """A compiled condition plus everything bind() must validate."""

    __slots__ = ("fn", "kind", "columns", "intervals")

    def __init__(self, fn: Callable, kind: str, columns: Tuple[str, ...],
                 intervals: Tuple[Tuple[float, str], ...]) -> None:
        self.fn = fn
        self.kind = kind  # 'bool' | 'num'
        self.columns = columns
        self.intervals = intervals


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
        signed = np.where(a > 0, np.inf,
                          np.where(a < 0, -np.inf, np.nan))
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


def _compile(node: E.Expr, cx: _CompileCtx) -> Tuple[str, Callable]:
    """Compile one expression node; raises :class:`_Unsupported`."""
    if isinstance(node, E.Literal):
        value = node.value
        if isinstance(value, bool):
            return "bool", lambda st, live, v=value: v
        if isinstance(value, (int, float)):
            constant = float(value)
            return "num", lambda st, live, v=constant: v
        raise _Unsupported("non-numeric literal")
    if isinstance(node, E.Interval):
        key = (node.value, node.unit)
        cx.intervals.add(key)
        return "num", lambda st, live, k=key: st.intervals[k]
    if isinstance(node, E.ColumnRef):
        cx.columns.add(node.column)
        if node.variable is None or node.variable == cx.var_name:
            # Standalone reference denotes the segment's last value
            # (MATCH_RECOGNIZE "final" semantics, lang/expr.py).
            return "num", (lambda st, live, c=node.column:
                           st.col(c)[st.ends])
        return "num", (lambda st, live, v=node.variable, c=node.column:
                       st.ref_value(v, c, "last"))
    if isinstance(node, E.PointAccess):
        ref = node.arg
        cx.columns.add(ref.column)
        use_start = node.which == "first"
        if ref.variable is None or ref.variable == cx.var_name:
            def point(st: "_EvalState", live: np.ndarray,
                      c: str = ref.column, first: bool = use_start) -> object:
                return st.col(c)[st.starts if first else st.ends]
            return "num", point
        which = "first" if use_start else "last"
        return "num", (lambda st, live, v=ref.variable, c=ref.column,
                       w=which: st.ref_value(v, c, w))
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
        lk, lf = _compile(node.left, cx)
        rk, rf = _compile(node.right, cx)
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
    if getattr(agg, "needs_series_context", False):
        raise _Unsupported("aggregate needs series context")
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
    if cx.provider_kind == "indexed" and agg.supports_index:
        if agg.name not in _INDEXED_VECTOR_AGGS:
            raise _Unsupported("no exact batch lookup")
        return (lambda st, live, a=agg, call=node, e=extra:
                st.indexed_lookup(a, call, e, live))
    # Direct evaluation (SegGenFilter, or an indexed leaf whose
    # aggregate does not support indexing).
    if agg.name not in _DIRECT_VECTOR_AGGS or len(node.columns) != 1:
        raise _Unsupported("no exact batch direct evaluation")
    column = node.columns[0].column
    return (lambda st, live, name=agg.name, c=column:
            st.direct_agg(name, c, live))


def compile_condition(var: "VarDef", provider_kind: str,
                      registry) -> Optional[_Program]:
    """Compile a variable's condition; ``None`` when outside the subset."""
    cx = _CompileCtx(var.name, provider_kind, registry)
    condition = var.condition
    if condition is None:
        kind: str = "bool"
        fn: Callable = lambda st, live: True  # noqa: E731
    else:
        try:
            kind, fn = _compile(condition, cx)
        except _Unsupported:
            return None
    return _Program(fn, kind, tuple(sorted(cx.columns)),
                    tuple(sorted(cx.intervals)))


# ---------------------------------------------------------------------------
# Per-operator program cache
# ---------------------------------------------------------------------------

#: op -> (registry, program-or-None).  Keyed weakly by operator identity
#: so cached plans keep their compiled programs but nothing is ever
#: stored *on* an operator (plans must stay picklable for the process
#: executor).  Instrumented clones get their own (cheap) entries.
_PROGRAM_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _leaf_program(op: "PhysicalOperator", provider_kind: str,
                  registry) -> Optional[_Program]:
    entry = _PROGRAM_CACHE.get(op)
    if entry is not None and entry[0] is registry:
        return entry[1]
    program = compile_condition(op.var, provider_kind, registry)
    _PROGRAM_CACHE[op] = (registry, program)
    return program


def compiles_statically(var: "VarDef", provider_kind: str,
                        registry) -> bool:
    """Whether the condition is vector-compilable on this provider path.

    Used by the cost model; depends only on the query and registry —
    never on the runtime toggle or the series — so plan choice is
    identical whether or not vectorization is enabled at run time.
    """
    return compile_condition(var, provider_kind, registry) is not None


# ---------------------------------------------------------------------------
# Bind: per-series eligibility
# ---------------------------------------------------------------------------


# trex: no-tick(bounded by the program's columns and window specs)
def _bind(program: _Program, op: "PhysicalOperator",
          series: "Series") -> Optional[Dict[Tuple[float, str], float]]:
    """Validate per-series assumptions; interval values or ``None``.

    Checks that every condition column (and, for point variables, every
    time-window column the diagonal enumerator indexes) exists as a
    float64 array, that window bounds convert to the series' time unit,
    and resolves interval literals.  Any failure falls back to the
    scalar loop, which raises (or not) exactly as it always did.
    """
    from repro.timeseries.timeunits import to_base_units
    for name in program.columns:
        if not series.has_column(name) \
                or series.column(name).dtype != np.float64:
            return None
    for spec in op.window.specs:
        if spec.kind != "time":
            continue
        column = spec.column or series.order_column
        if not series.has_column(column) \
                or series.column(column).dtype != np.float64:
            return None
    # Window bounds are computed inside the enumerators; a unit that
    # fails to convert must surface from the scalar path instead.
    try:
        for spec in op.window.specs:
            spec.bounds_on(series)
        intervals = {key: to_base_units(key[0], key[1], series.time_unit)
                     for key in program.intervals}
    except Exception:
        return None
    return intervals


# ---------------------------------------------------------------------------
# Batch evaluation state
# ---------------------------------------------------------------------------


class _EvalState:
    """Everything one batch evaluation needs, plus counter deltas."""

    __slots__ = ("ctx", "series", "starts", "ends", "refs", "intervals",
                 "pads", "deltas", "pending_builds")

    def __init__(self, ctx: "ExecContext", starts: np.ndarray,
                 ends: np.ndarray, refs: "Env",
                 intervals: Dict[Tuple[float, str], float],
                 pads: Dict[str, np.ndarray]) -> None:
        self.ctx = ctx
        self.series = ctx.series
        self.starts = starts
        self.ends = ends
        self.refs = refs
        self.intervals = intervals
        #: Per-eval-call cache of columns padded for reduceat (shared
        #: across this leaf eval's batches).
        self.pads = pads
        #: counter name -> int64 per-candidate increment array.
        self.deltas: Dict[str, np.ndarray] = {}
        #: index key -> union of live masks across this batch's call
        #: sites, for indexes built *during* this batch (see
        #: :meth:`settle_builds`).
        self.pending_builds: Dict[tuple, np.ndarray] = {}

    def col(self, name: str) -> np.ndarray:
        return self.series.float_column(name)

    def ref_value(self, variable: str, column: str, which: str) -> object:
        """Constant value of an external reference (same for the batch)."""
        start, end = self.refs[variable]
        return self.series.value_at(column, start if which == "first"
                                    else end)

    def add_delta(self, name: str, counts: np.ndarray) -> None:
        """Accumulate per-candidate increments (bool mask or int64)."""
        existing = self.deltas.get(name)
        if existing is None:
            self.deltas[name] = counts.astype(np.int64)
        else:
            existing += counts

    def indexed_lookup(self, agg, call: E.AggCall, extra: Tuple[float, ...],
                       live: np.ndarray) -> np.ndarray:
        """Batched index lookups with scalar-exact counter attribution."""
        size = len(self.starts)
        if not bool(np.any(live)):
            # No candidate's scalar evaluation reaches this call: no
            # lookups, and — crucially — no index build.
            return np.zeros(size, dtype=np.float64)
        self.add_delta("index_lookups", live)
        ctx = self.ctx
        key = (agg.name, tuple(c.column for c in call.columns), extra)
        builds_before = ctx.stats["index_builds"]
        index = ctx.aggregate_index(agg, call, extra)
        live = np.asarray(live, dtype=bool)
        if ctx.stats["index_builds"] != builds_before:
            # aggregate_index charged the build eagerly, but the scalar
            # path builds at the first *candidate* that reaches any call
            # site for this key — which a later site may reach earlier
            # in the batch.  Revert the eager charge and defer the
            # per-candidate attribution to settle_builds().
            ctx.stats["index_builds"] = builds_before
            self.pending_builds[key] = live.copy()
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

    def direct_agg(self, name: str, column: str,
                   live: np.ndarray) -> np.ndarray:
        """Exact direct evaluation for count/min/max over the batch."""
        size = len(self.starts)
        if not bool(np.any(live)):
            return np.zeros(size, dtype=np.float64)
        self.add_delta("direct_agg_evals", live)
        if name == "count":
            return (self.ends - self.starts + 1).astype(np.float64)
        padded = self.pads.get(column)
        if padded is None:
            values = self.col(column)
            # One trailing pad element keeps ``ends + 1 == n`` a valid
            # reduceat index; the odd (inter-pair) reductions that could
            # read it are discarded below.
            padded = np.concatenate((values, values[-1:]))
            self.pads[column] = padded
        bounds = np.empty(2 * size, dtype=np.int64)
        bounds[0::2] = self.starts
        bounds[1::2] = self.ends + 1
        reducer = np.minimum if name == "min" else np.maximum
        return reducer.reduceat(padded, bounds)[0::2]


# ---------------------------------------------------------------------------
# Candidate enumeration (scalar iteration order, batched)
# ---------------------------------------------------------------------------


def _runs_to_batches(ctx: "ExecContext", drives: List[int], los: List[int],
                     his: List[int],
                     by_end: bool) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Expand buffered (drive, lo..hi) runs into candidate batches."""
    drive_arr = np.asarray(drives, dtype=np.int64)
    lo_arr = np.asarray(los, dtype=np.int64)
    counts = np.asarray(his, dtype=np.int64) - lo_arr + 1
    total = int(counts.sum())
    run_offsets = np.cumsum(counts) - counts
    flat = (np.arange(total, dtype=np.int64)
            - np.repeat(run_offsets, counts) + np.repeat(lo_arr, counts))
    fixed = np.repeat(drive_arr, counts)
    starts, ends = (flat, fixed) if by_end else (fixed, flat)
    for at in range(0, total, BATCH_SIZE):
        stop = min(at + BATCH_SIZE, total)
        ctx.tick_batch(stop - at)
        yield starts[at:stop], ends[at:stop]


# trex: no-charge(buffers candidate index runs, not retained segments)
def _box_batches(op: "PhysicalOperator", ctx: "ExecContext",
                 sp: "SearchSpace") -> Iterator[Tuple[np.ndarray,
                                                      np.ndarray]]:
    """Admissible boxed candidates in ``iterate_box``'s exact order.

    Mirrors ``WindowConjunction.iterate``/``iterate_by_end`` including
    the driving-direction rule, so scalar and vector paths enumerate
    identical candidate sequences.
    """
    series = ctx.series
    window = op.window
    n = len(series)
    by_end = (sp.e_hi - sp.e_lo) < (sp.s_hi - sp.s_lo)
    if by_end:
        drive_lo, drive_hi = max(sp.e_lo, 0), min(sp.e_hi, n - 1)
    else:
        drive_lo, drive_hi = max(sp.s_lo, 0), min(sp.s_hi, n - 1)
    drives: List[int] = []
    los: List[int] = []
    his: List[int] = []
    pending = 0
    # Buffered candidates are ticked batch-wise in _runs_to_batches;
    # empty drive positions are tick-free in the scalar iterators too.
    # trex: no-tick(buffered candidates tick batched in _runs_to_batches)
    for drive in range(drive_lo, drive_hi + 1):
        if by_end:
            lo, hi = window.start_range(series, drive)
            lo = max(lo, sp.s_lo, 0)
            hi = min(hi, sp.s_hi, drive)
        else:
            lo, hi = window.end_range(series, drive)
            lo = max(lo, sp.e_lo, drive)
            hi = min(hi, sp.e_hi, n - 1)
        if hi < lo:
            continue
        drives.append(drive)
        los.append(lo)
        his.append(hi)
        pending += hi - lo + 1
        if pending >= BATCH_SIZE:
            yield from _runs_to_batches(ctx, drives, los, his, by_end)
            drives, los, his = [], [], []
            pending = 0
    if pending:
        yield from _runs_to_batches(ctx, drives, los, his, by_end)


# trex: no-charge(window-spec bound tuples, not retained segments)
def _diag_batches(op: "PhysicalOperator", ctx: "ExecContext",
                  sp: "SearchSpace") -> Iterator[Tuple[np.ndarray,
                                                       np.ndarray]]:
    """Admissible ``(i, i)`` diagonal candidates for point variables.

    Scalar parity notes: the scalar loop ticks per *candidate* (window
    rejections included), so ``tick_batch`` covers the full chunk; a
    NaN timestamp gives a NaN duration whose comparisons are all false,
    i.e. the point is accepted — the masks reproduce that by rejecting
    on ``d < lo`` / ``d > hi`` rather than accepting on the complement.
    """
    series = ctx.series
    lo = max(sp.s_lo, sp.e_lo)
    hi = min(sp.s_hi, sp.e_hi)
    if hi < lo:
        return
    specs = []
    # trex: no-tick(bounded by the window's spec count)
    for spec in op.window.specs:
        b_lo, b_hi = spec.bounds_on(series)
        column = None if spec.kind == "point" else series.float_column(
            spec.column or series.order_column)
        specs.append((b_lo, b_hi, column))
    for base in range(lo, hi + 1, BATCH_SIZE):
        idx = np.arange(base, min(base + BATCH_SIZE - 1, hi) + 1,
                        dtype=np.int64)
        ctx.tick_batch(len(idx))
        mask = np.ones(len(idx), dtype=bool)
        # trex: no-tick(bounded by the window's spec count)
        for b_lo, b_hi, column in specs:
            if column is None:
                # Point-duration of a diagonal candidate is always 0.
                if 0 < b_lo or (b_hi is not None and 0 > b_hi):
                    mask[:] = False
            else:
                duration = column[idx] - column[idx]
                mask &= np.logical_not(duration < b_lo)
                if b_hi is not None:
                    mask &= np.logical_not(duration > b_hi)
        keep = idx[mask]
        if len(keep):
            yield keep, keep


# ---------------------------------------------------------------------------
# Batch evaluation with suspension-exact counter flushes
# ---------------------------------------------------------------------------


# trex: no-tick(folds a handful of per-counter cumulative arrays)
def _flush_counts(stats, record, cums: Dict[str, np.ndarray],
                  start: int, stop: int) -> None:
    """Fold counter deltas for candidates ``[start, stop)`` into sinks."""
    if stop == start:
        return
    for name, cum in cums.items():
        increment = int(cum[stop] - cum[start])
        if increment:
            stats[name] += increment
            if record is not None and name == "condition_evals":
                record.counters[name] += increment


def _eval_batch(op: "PhysicalOperator", ctx: "ExecContext",
                record, starts: np.ndarray, ends: np.ndarray, refs: "Env",
                program: _Program,
                intervals: Dict[Tuple[float, str], float],
                pads: Dict[str, np.ndarray],
                payload_name: Optional[str]) -> Iterator[Segment]:
    size = len(starts)
    state = _EvalState(ctx, starts, ends, refs, intervals, pads)
    live = np.ones(size, dtype=bool)
    matched = np.broadcast_to(
        np.asarray(_truthy(program.kind, program.fn(state, live)),
                   dtype=bool), (size,))
    state.settle_builds()
    # Cumulative per-counter totals: cums[name][j] = increments charged
    # by candidates 0..j-1, so a flush over [a, b) is one subtraction.
    cums = {"condition_evals": np.arange(size + 1, dtype=np.int64)}
    # trex: no-tick(a few counter delta arrays per batch)
    for name, delta in state.deltas.items():
        cum = np.empty(size + 1, dtype=np.int64)
        cum[0] = 0
        np.cumsum(delta, out=cum[1:])
        cums[name] = cum
    stats = ctx.stats
    hits = np.flatnonzero(matched)
    if len(hits) == 0:
        _flush_counts(stats, record, cums, 0, size)
        return
    # Pre-slice everything the per-yield loop touches into plain Python
    # lists: numpy scalar boxing per emission dominates otherwise.  The
    # flush for hit k covers candidates (hits[k-1], hits[k]], so each
    # suspension point still sees exact counters.
    bounds = np.empty(len(hits) + 1, dtype=np.int64)
    bounds[0] = 0
    np.add(hits, 1, out=bounds[1:])
    # trex: no-tick(a few counter delta arrays per batch)
    increments = [(name, np.diff(cum[bounds]).tolist())
                  for name, cum in cums.items()]
    hit_starts = starts[hits].tolist()
    hit_ends = ends[hits].tolist()
    rec_counters = record.counters if record is not None else None
    # trex: no-tick(bounded by one already-ticked batch)
    for k in range(len(hits)):
        # Counters must be exact at this suspension point: charge every
        # candidate up to and including this one, then emit.
        # trex: no-tick(a few counter names per emission)
        for name, inc in increments:
            value = inc[k]
            if value:
                stats[name] += value
                if rec_counters is not None \
                        and name == "condition_evals":
                    rec_counters[name] += value
        stats["segments_emitted"] += 1
        if rec_counters is not None:
            rec_counters["segments_emitted"] += 1
        start = hit_starts[k]
        end = hit_ends[k]
        if payload_name is not None:
            yield Segment(start, end, {payload_name: (start, end)})
        else:
            yield Segment(start, end)
    _flush_counts(stats, record, cums, int(bounds[-1]), size)


def _run(op: "PhysicalOperator", ctx: "ExecContext", sp: "SearchSpace",
         refs: "Env", record, program: _Program,
         intervals: Dict[Tuple[float, str], float]) -> Iterator[Segment]:
    var = op.var
    payload_name = var.name if var.name in op.publish else None
    pads: Dict[str, np.ndarray] = {}
    if var.is_segment:
        batches = _box_batches(op, ctx, sp)
    else:
        batches = _diag_batches(op, ctx, sp)
    # trex: no-tick(the enumerators tick per candidate batch)
    for starts, ends in batches:
        yield from _eval_batch(op, ctx, record, starts, ends, refs,
                               program, intervals, pads, payload_name)


def try_eval(op: "PhysicalOperator", ctx: "ExecContext", sp: "SearchSpace",
             refs: "Env", record,
             provider_kind: str) -> Optional[Iterator[Segment]]:
    """The vector path for one leaf eval, or ``None`` to run scalar.

    Eligibility: the context's vectorize toggle is on, fault injection
    is off (fault points live in the scalar call graph), the condition
    compiles, and the series binds.  ``sp`` must already be clamped and
    non-empty (the caller does both).
    """
    if not ctx.vectorize or _faults.ENABLED:
        return None
    program = _leaf_program(op, provider_kind, ctx.registry)
    if program is None:
        return None
    binds = ctx.vector_binds
    bound = binds.get(op.op_id, False)
    if bound is False:
        bound = _bind(program, op, ctx.series)
        binds[op.op_id] = bound
    if bound is None:
        return None
    return _run(op, ctx, sp, refs, record, program, bound)
