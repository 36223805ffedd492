"""Physical operator interface and execution context (Section 4.1).

Every physical operator implements ``eval(ctx, sp, refs)`` producing an
iterator of :class:`Segment` objects whose bounds lie inside the search
space ``sp`` and satisfy the operator's embedded window.  ``refs`` carries
referenced segments needed by conditions inside the operator's sub-tree.

The :class:`ExecContext` owns everything shared across one series
evaluation: the series itself, aggregate index caches (computation
sharing), probe-result caches, and run-statistics counters.
"""

from __future__ import annotations

import functools
import itertools
import time
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable,
                    Iterator, List, Optional, Sequence, Set, Tuple)

from repro.aggregates.base import Aggregate, AggregateIndex
from repro.aggregates.registry import DEFAULT_REGISTRY, AggregateRegistry
from repro.errors import ExecutionError, QueryTimeout, ResourceBudgetExceeded
from repro.testing import faults as _faults
from repro.lang import expr as E
from repro.lang.windows import WindowConjunction
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment
from repro.timeseries.series import Series

if TYPE_CHECKING:
    from repro.exec.metrics import RunMetrics

Env = Dict[str, Tuple[int, int]]

#: Canonical hashable payload (``Segment.payload_key``); ``()`` when empty.
PayloadKey = Tuple[Tuple[str, Tuple[int, int]], ...]

#: How the join stage holds a child's segments: start -> payload key ->
#: end positions.  Payload-free segments all share the degenerate key ``()``.
Adjacency = Dict[int, Dict[PayloadKey, Set[int]]]

_op_ids = itertools.count()


class IndexedProvider(E.AggregateProvider):
    """Aggregate provider that uses shared indexes when possible.

    An aggregate call is answered from an index when the aggregate supports
    indexing and all of its column arguments resolve to the *current*
    segment (cross-segment calls like ``corr`` always evaluate directly).
    Indexes are built once per (series, call signature) and resident on
    the series (:meth:`ExecContext.aggregate_index`).
    """

    def __init__(self, ctx: "ExecContext"):
        super().__init__(ctx.registry)
        self._ctx = ctx

    def evaluate(self, agg: Aggregate, call: E.AggCall, ectx: E.EvalContext,
                 segments: Sequence[Tuple[str, int, int]]) -> float:
        same_segment = all(start == ectx.start and end == ectx.end
                           for _, start, end in segments)
        if agg.supports_index and same_segment and not getattr(
                agg, "needs_series_context", False):
            extra = tuple(E.as_number(E.evaluate(e, ectx)) for e in call.extra)
            index = self._ctx.aggregate_index(agg, call, extra)
            self._ctx.stats["index_lookups"] += 1
            value = index.lookup(ectx.start, ectx.end)
            if _faults.ENABLED:
                value = _faults.fire("aggregate.lookup", value)
            return value
        self._ctx.stats["direct_agg_evals"] += 1
        return super().evaluate(agg, call, ectx, segments)


class CountingProvider(E.AggregateProvider):
    """Direct-evaluation provider that counts calls for run statistics."""

    def __init__(self, ctx: "ExecContext"):
        super().__init__(ctx.registry)
        self._ctx = ctx

    def evaluate(self, agg, call, ectx, segments):
        self._ctx.stats["direct_agg_evals"] += 1
        return super().evaluate(agg, call, ectx, segments)


class ExecContext:
    """Shared state for evaluating one physical plan over one series."""

    #: How many tick() calls between deadline checks.
    TICK_STRIDE = 2048

    def __init__(self, series: Series,
                 registry: AggregateRegistry = DEFAULT_REGISTRY,
                 deadline: Optional[float] = None,
                 metrics: Optional["RunMetrics"] = None,
                 segment_budget: Optional[int] = None,
                 vectorize: bool = True):
        self.series = series
        self.registry = registry
        self.stats: Counter = Counter()
        #: The indexes this evaluation has touched, by call signature.
        self._indexes: Dict[tuple, AggregateIndex] = {}
        #: ``aggindex_built`` / ``aggindex_cached``: was a touched index
        #: resident on the series?  The cache, not the work, so kept out
        #: of :attr:`stats` (docs/OBSERVABILITY.md).
        self.index_events: Counter = Counter()
        self._probe_caches: Dict[tuple, List[Segment]] = {}
        self.direct_provider = CountingProvider(self)
        self.indexed_provider = IndexedProvider(self)
        #: Absolute time.perf_counter() deadline, or None for no limit.
        self.deadline = deadline
        self._ticks = 0
        #: Per-operator metric sink (EXPLAIN ANALYZE); None when disabled.
        self.metrics = metrics
        #: Remaining segment/materialization budget, or None for no limit.
        #: Hot loops guard their charge() calls with an
        #: ``is not None`` check so the disabled mode pays nothing.
        self.segment_budget = segment_budget
        #: Segments charged against the budget so far (engine-accounted
        #: across series when the budget is global to a query).
        self.segments_charged = 0
        #: Differential-test hook (``EngineConfig.vectorize``): ``False``
        #: pins every condition leaf to its scalar evaluator; otherwise
        #: eligible leaves choose per call (repro.exec.vector.try_eval).
        self.vectorize = vectorize
        #: Per-plan-op bind cache for the vector path: op_id -> the
        #: leaf's per-(operator, series) state (program, columns,
        #: interval constants, direct kernels), or ``None`` for "fell
        #: back to scalar on this series"; absent means "not probed yet".
        self.vector_binds: Dict[int, object] = {}

    def count(self, op: "PhysicalOperator", name: str, n: int = 1) -> None:
        """Attribute a named event to ``op`` (no-op unless analyzing)."""
        if self.metrics is not None:
            self.metrics.count(op, name, n)

    def tick(self) -> None:
        """Cheap cooperative cancellation point for hot loops.

        Raises :class:`QueryTimeout` when the engine deadline has passed;
        the clock is only consulted every :attr:`TICK_STRIDE` calls.
        """
        if self.deadline is None:
            return
        self._ticks += 1
        if self._ticks % self.TICK_STRIDE == 0 and \
                time.perf_counter() > self.deadline:
            raise QueryTimeout(
                f"query exceeded its deadline after {self._ticks} steps")

    def tick_batch(self, n: int) -> None:
        """Amortized :meth:`tick` for ``n`` candidates at once.

        The vector kernels charge one batch of at most
        ``repro.exec.vector.BATCH_SIZE`` candidates per call, with a
        single deadline check — the batched counterpart of the scalar
        loop's per-candidate ticks (docs/VECTORIZATION.md).
        """
        if self.deadline is None or n <= 0:
            return
        self._ticks += n
        if time.perf_counter() > self.deadline:
            raise QueryTimeout(
                f"query exceeded its deadline after {self._ticks} steps")

    def charge(self, n: int = 1) -> None:
        """Charge ``n`` materialized/retained segments against the budget.

        The budget is a memory-pressure proxy: operators call this
        wherever segments accumulate in collections whose size is not
        bounded a priori (MaterializeNot/MaterializeKleene state, probe
        and sub-pattern caches, the engine's result sink).
        """
        self.segments_charged += n
        if self.segment_budget is not None \
                and self.segments_charged > self.segment_budget:
            raise ResourceBudgetExceeded(
                f"query exceeded max_segments={self.segment_budget} "
                f"({self.segments_charged} segments materialized)")

    def aggregate_index(self, agg: Aggregate, call: E.AggCall,
                        extra: Tuple[float, ...]) -> AggregateIndex:
        """The shared index for one aggregate call signature, resident
        on the series under the aggregate *object* (two registries never
        share one).  ``stats['index_builds']`` counts the indexes this
        evaluation first touched, whether found there or built."""
        key = (agg, tuple(ref.column for ref in call.columns), extra)
        index = self._indexes.get(key)
        if index is None:
            series = self.series
            index, built = series.derived(key, lambda: agg.build_index(
                [series.column(name) for name in key[1]], list(extra)))
            self._indexes[key] = index
            self.stats["index_builds"] += 1
            self.index_events[
                "aggindex_built" if built else "aggindex_cached"] += 1
        return index

    def settle_indexes(self) -> None:
        """Done with the touched indexes: let the series re-read the
        sizes of those that grow on lookup and hold its cap."""
        growing = [key for key, index in self._indexes.items() if index.grows]
        if growing:
            self.series.settle_derived(growing)

    def prebuild_indexes(self, calls: Sequence[E.AggCall]) -> None:
        """Eagerly build indexes for the given calls (baseline sharing)."""
        # trex: no-tick(bounded by the query's distinct aggregate calls)
        for call in calls:
            agg = self.registry.get(call.name)
            if not agg.supports_index or getattr(agg, "needs_series_context",
                                                 False):
                continue
            extra = tuple(
                E.as_number(E.evaluate(e, E.EvalContext(
                    self.series, 0, 0, registry=self.registry)))
                for e in call.extra)
            self.aggregate_index(agg, call, extra).materialize_all()
        self.settle_indexes()

    def probe_cache_get(self, key: tuple) -> Optional[List[Segment]]:
        return self._probe_caches.get(key)

    def probe_cache_put(self, key: tuple, value: List[Segment]) -> None:
        if self.segment_budget is not None:
            self.charge(len(value))
        self._probe_caches[key] = value


def refs_key(refs: Env, needed: FrozenSet[str]) -> tuple:
    """Hashable cache-key projection of ``refs`` to the needed names."""
    return tuple(sorted((name, refs[name]) for name in needed
                        if name in refs))


def _with_fault_point(eval_fn):
    """Wrap an operator class's ``eval`` with its named fault point.

    The wrapper is a plain function (not a generator), so a raising
    fault fires at the ``eval()`` call itself — before any iteration —
    matching where a real construction-time operator bug would surface.
    """
    @functools.wraps(eval_fn)
    def eval(self, ctx, sp, refs):
        if _faults.ENABLED:
            # Resolved from the *instance's* class so operators that
            # inherit eval (e.g. SegGenFilter from _ConditionLeaf) still
            # get their own exec.<OpName>.eval point.
            klass = type(self)
            _faults.fire(
                f"exec.{getattr(klass, 'name', None) or klass.__name__}"
                f".eval")
        return eval_fn(self, ctx, sp, refs)

    eval._fault_wrapped = True  # type: ignore[attr-defined]
    return eval


class PhysicalOperator(ABC):
    """Base physical operator.

    ``window`` is the embedded window the emitted segments must satisfy;
    ``publish`` is the set of variable names whose matched segments must be
    present in emitted payloads (needed by consumers above); ``requires``
    is the set of external references conditions in this sub-tree need.
    """

    #: Human-readable operator name for EXPLAIN output.
    name = "op"

    #: Cost-model key when it differs from ``name`` (see
    #: ``repro.analysis.plan_verify.check_cost_coverage``); ``None`` means
    #: the operator is charged under ``name``.
    cost_key: Optional[str] = None

    def __init__(self, window: WindowConjunction,
                 publish: FrozenSet[str] = frozenset(),
                 requires: FrozenSet[str] = frozenset()):
        self.window = window
        self.publish = publish
        self.requires = requires
        self.op_id = next(_op_ids)

    def __init_subclass__(cls, **kwargs) -> None:
        """Give every concrete operator class a named fault point.

        ``eval`` is wrapped once at class-creation time so chaos tests
        can inject at ``exec.<OpName>.eval`` (see repro.testing.faults);
        disarmed, the wrapper is one module-flag check per eval call.
        """
        super().__init_subclass__(**kwargs)
        eval_fn = cls.__dict__.get("eval")
        if eval_fn is not None and not getattr(eval_fn, "_fault_wrapped",
                                               False):
            cls.eval = _with_fault_point(eval_fn)

    @abstractmethod
    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        """Yield matching segments within ``sp`` given referenced segments."""

    def children(self) -> Tuple["PhysicalOperator", ...]:
        return ()

    def check_refs(self, refs: Env) -> None:
        missing = set(self.requires) - set(refs)
        if missing:
            raise ExecutionError(
                f"{self.name} needs referenced segments {sorted(missing)} "
                f"but they were not provided")

    def emit(self, segment: Segment) -> Segment:
        """Project the payload to what consumers above still need."""
        return segment.project_payload(self.publish)

    def emit_starts(self, ctx: ExecContext, sp: SearchSpace,
                    starts: Iterable[int],
                    reach_of: Callable[[int, int], Dict[PayloadKey, Set[int]]]
                    ) -> Iterator[Segment]:
        """The join stage's emission loop: one step per distinct start.

        ``reach_of(start, e_hi)`` returns payload key -> candidate ends for
        one start.  The embedded window and the search space are applied
        once per start, as an ``[e_lo, e_hi]`` clip (``end_range`` is exact
        for point and time windows); a start whose clip is empty is never
        expanded.  Every ``(start, end, payload)`` is built and yielded
        exactly once, in sorted order, so emission never depends on set
        layout.
        """
        tick, stats, series = ctx.tick, ctx.stats, ctx.series
        end_range = self.window.end_range
        for start in sorted(starts):
            tick()
            if not sp.s_lo <= start <= sp.s_hi:
                continue
            e_lo, e_hi = end_range(series, start)
            e_lo, e_hi = max(e_lo, sp.e_lo), min(e_hi, sp.e_hi)
            if e_lo > e_hi:
                continue
            reach = reach_of(start, e_hi)
            for key in sorted(reach) if len(reach) > 1 else reach:
                payload = dict(key) if key else None
                ends = sorted(reach[key])
                if ends and (ends[0] < e_lo or ends[-1] > e_hi):
                    ends = ends[bisect_left(ends, e_lo):
                                bisect_right(ends, e_hi)]
                for end in ends:
                    tick()
                    stats["segments_emitted"] += 1
                    yield Segment(start, end, payload)

    def emit_fresh(self, ctx: ExecContext,
                   seen: Set[Tuple[int, int, PayloadKey]],
                   found: Set[Tuple[int, int, PayloadKey]]
                   ) -> Iterator[Segment]:
        """Yield the ``(start, end, payload key)`` triples of ``found``
        this operator has not emitted yet, recording them in ``seen``.

        The streaming (probe) operators' counterpart of
        :meth:`emit_starts`: their probe space already enforces window and
        search space, so only cross-probe duplicates remain to drop.
        """
        fresh = found - seen
        seen |= fresh
        for start, end, key in sorted(fresh):
            ctx.tick()
            ctx.stats["segments_emitted"] += 1
            yield Segment(start, end, dict(key))

    def probe(self, ctx: ExecContext, child: "PhysicalOperator",
              space: SearchSpace, refs: Env, anchor: Segment) -> List[Segment]:
        """``child``'s matches in ``space`` given ``anchor``'s bindings,
        memoized per (space, needed refs) on the context."""
        child_refs = dict(refs)
        child_refs.update(anchor.payload)
        key = (child.op_id, space, refs_key(child_refs, child.requires))
        found = ctx.probe_cache_get(key)
        if found is None:
            ctx.stats["probe_calls"] += 1
            ctx.count(self, "probe_cache_misses")
            found = list(child.eval(ctx, space, child_refs))
            ctx.probe_cache_put(key, found)
        else:
            ctx.stats["probe_cache_hits"] += 1
            ctx.count(self, "probe_cache_hits")
        return found

    # trex: no-tick(EXPLAIN rendering is bounded by plan size)
    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        window = "" if self.window.is_wild else f" [{self.window.describe()}]"
        lines = [f"{pad}{self.describe()}{window}"]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return self.name

    def to_dict(self) -> dict:
        """JSON-serializable plan representation (for tooling/EXPLAIN)."""
        node = {"operator": self.describe()}
        if not self.window.is_wild:
            node["window"] = self.window.describe()
        if self.publish:
            node["publish"] = sorted(self.publish)
        if self.requires:
            node["requires"] = sorted(self.requires)
        children = [child.to_dict() for child in self.children()]
        if children:
            node["children"] = children
        return node

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


def projected_key(segment: Segment, keep: FrozenSet[str]) -> PayloadKey:
    """Payload key of ``segment`` restricted to the names in ``keep``."""
    if not segment.payload:
        return ()
    return segment.project_payload(keep).payload_key()


def adjacency(ctx: ExecContext, segments: Iterable[Segment],
              keep: FrozenSet[str], shift: int = 0) -> Adjacency:
    """Drain a child's stream into start -> payload key -> {end + shift}.

    Payloads are projected to ``keep`` first, so segments differing only
    in entries nobody above needs collapse here.  Every segment drained
    is ticked and charged: the result is retained for the whole join.
    """
    groups: Adjacency = {}
    tick, charge = ctx.tick, ctx.segment_budget is not None
    for segment in segments:
        tick()
        if charge:
            ctx.charge()
        key = projected_key(segment, keep) if segment.payload else ()
        start, end = segment.start, segment.end + shift
        by_key = groups.get(start)
        if by_key is None:
            groups[start] = {key: {end}}
        elif key in by_key:
            by_key[key].add(end)
        else:
            by_key[key] = {end}
    return groups


def merged_key(left: PayloadKey, right: PayloadKey) -> PayloadKey:
    """Key of the left payload updated with the right one (right wins)."""
    if not (left and right):
        return left or right
    payload = dict(left)
    payload.update(right)
    return tuple(sorted(payload.items()))
