"""EXPLAIN ANALYZE: per-operator runtime metrics (observability layer).

The engine's ``analyze`` mode wraps every node of a physical plan in a
timing shim (:func:`instrument_plan`) and collects one :class:`OpMetrics`
record per operator on the :class:`~repro.exec.base.ExecContext`, keyed by
``op_id``:

* ``eval_calls`` — how many times the operator's ``eval`` was entered
  (probed operators are entered once per cache miss);
* ``segments_out`` — segments the operator emitted;
* ``segments_in`` — segments pulled from children (derived at
  :meth:`RunMetrics.finalize` as the sum of the children's emissions);
* ``sum_ls``/``sum_le``/``max_ls``/``max_le`` — the incoming search-space
  range sizes ℓ_s and ℓ_e (Table 1's cardinality inputs), so the measured
  reality can be compared against the cost model's assumptions;
* ``time_seconds`` — cumulative wall time spent inside the operator's
  iterator, children included; ``self_seconds`` subtracts the children;
* ``counters`` — operator-reported events (probe-cache hits/misses,
  condition evaluations, sub-pattern cache hits, ...) attributed through
  :meth:`~repro.exec.base.ExecContext.count`;
* ``batch_calls``/``scalar_calls``/``fallback`` — condition leaves only:
  how many eval calls took the batch kernels and how many the scalar
  loop, and why the condition has no batch form (``""`` when it has
  one).  They describe the *strategy*, not the work, so they are the one
  part of a record that may differ between executions that must
  otherwise agree (docs/ENGINE_CONTRACTS.md).

Overhead guarantee: when analyze mode is off the engine evaluates the
*uninstrumented* plan — the shim does not exist — and the only residual
cost is one ``ctx.metrics is None`` check at each operator-reported event
site (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import copy
import math
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

from repro.exec.base import Env, ExecContext, PhysicalOperator
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment


@dataclass
class OpMetrics:
    """Runtime metrics for one physical operator (one ``op_id``)."""

    op_id: int
    label: str
    eval_calls: int = 0
    segments_out: int = 0
    #: Derived: sum of direct children's ``segments_out`` (finalize()).
    segments_in: int = 0
    #: Incoming search-space range sizes, summed over eval calls.
    sum_ls: int = 0
    sum_le: int = 0
    max_ls: int = 0
    max_le: int = 0
    #: Cumulative wall time inside this operator's iterator (children
    #: included); ``self_seconds`` is derived by ``finalize()``.
    time_seconds: float = 0.0
    self_seconds: float = 0.0
    counters: Counter = field(default_factory=Counter)
    #: Condition leaves: eval calls per evaluation strategy, and the
    #: static reason the condition cannot batch (``None``: not a
    #: condition leaf, or its scalar loop never ran).
    batch_calls: int = 0
    scalar_calls: int = 0
    fallback: Optional[str] = None

    def observe_space(self, sp: SearchSpace) -> None:
        ls, le = sp.start_range_size, sp.end_range_size
        self.sum_ls += ls
        self.sum_le += le
        self.max_ls = max(self.max_ls, ls)
        self.max_le = max(self.max_le, le)

    @property
    def avg_ls(self) -> float:
        return self.sum_ls / self.eval_calls if self.eval_calls else 0.0

    @property
    def avg_le(self) -> float:
        return self.sum_le / self.eval_calls if self.eval_calls else 0.0

    def merge(self, other: "OpMetrics") -> None:
        self.eval_calls += other.eval_calls
        self.segments_out += other.segments_out
        self.segments_in += other.segments_in
        self.sum_ls += other.sum_ls
        self.sum_le += other.sum_le
        self.max_ls = max(self.max_ls, other.max_ls)
        self.max_le = max(self.max_le, other.max_le)
        self.time_seconds += other.time_seconds
        self.self_seconds += other.self_seconds
        self.counters.update(other.counters)
        self.batch_calls += other.batch_calls
        self.scalar_calls += other.scalar_calls
        if self.fallback is None:
            self.fallback = other.fallback

    def annotation(self) -> str:
        """One-line metric summary for the annotated EXPLAIN tree."""
        parts = [f"time={self.time_seconds * 1e3:.3f}ms",
                 f"self={self.self_seconds * 1e3:.3f}ms",
                 f"evals={self.eval_calls}",
                 f"in={self.segments_in}",
                 f"out={self.segments_out}",
                 f"ls_avg={self.avg_ls:.1f}",
                 f"le_avg={self.avg_le:.1f}"]
        parts.extend(f"{name}={value}"
                     for name, value in sorted(self.counters.items()))
        if self.batch_calls or self.scalar_calls:
            parts.append(f"batch_calls={self.batch_calls}")
            parts.append(f"scalar_calls={self.scalar_calls}")
        if self.fallback:
            parts.append(f"fallback={self.fallback!r}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        data = {
            "op_id": self.op_id,
            "operator": self.label,
            "eval_calls": self.eval_calls,
            "segments_in": self.segments_in,
            "segments_out": self.segments_out,
            "time_seconds": self.time_seconds,
            "self_seconds": self.self_seconds,
            "search_space": {
                "sum_ls": self.sum_ls, "sum_le": self.sum_le,
                "max_ls": self.max_ls, "max_le": self.max_le,
                "avg_ls": self.avg_ls, "avg_le": self.avg_le,
            },
        }
        if self.counters:
            data["counters"] = dict(self.counters)
        if self.batch_calls or self.scalar_calls:
            data["strategy"] = {"batch_calls": self.batch_calls,
                                "scalar_calls": self.scalar_calls,
                                "fallback": self.fallback or None}
        return data


class RunMetrics:
    """Per-operator metrics for one plan evaluation (or an aggregate)."""

    def __init__(self) -> None:
        self.ops: Dict[int, OpMetrics] = {}

    def for_op(self, op: PhysicalOperator) -> OpMetrics:
        record = self.ops.get(op.op_id)
        if record is None:
            record = OpMetrics(op.op_id, op.describe())
            self.ops[op.op_id] = record
        return record

    def count(self, op: PhysicalOperator, name: str, n: int = 1) -> None:
        self.for_op(op).counters[name] += n

    # trex: no-tick(post-run folding, bounded by operator count)
    def merge(self, other: "RunMetrics") -> None:
        """Fold another run's records into this one (cross-series)."""
        for op_id, theirs in other.ops.items():
            mine = self.ops.get(op_id)
            if mine is None:
                mine = OpMetrics(op_id, theirs.label)
                self.ops[op_id] = mine
            mine.merge(theirs)

    # trex: no-tick(post-run derivation, bounded by plan size)
    def finalize(self, plan: PhysicalOperator) -> None:
        """Derive ``self_seconds`` and ``segments_in`` from the tree."""
        def walk(op: PhysicalOperator) -> None:
            child_time = 0.0
            child_out = 0
            for child in op.children():
                walk(child)
                child_metrics = self.ops.get(child.op_id)
                if child_metrics is not None:
                    # trex: nan-ok(perf_counter deltas are always finite)
                    child_time += child_metrics.time_seconds
                    child_out += child_metrics.segments_out
            record = self.ops.get(op.op_id)
            if record is not None:
                record.self_seconds = max(
                    0.0, record.time_seconds - child_time)
                record.segments_in = child_out
        walk(plan)

    # trex: no-tick(EXPLAIN rendering, bounded by plan size)
    def annotate(self, plan: PhysicalOperator) -> str:
        """The plan's explain tree with one metric line per operator."""
        lines: List[str] = []

        def walk(op: PhysicalOperator, indent: int) -> None:
            pad = "  " * indent
            window = "" if op.window.is_wild \
                else f" [{op.window.describe()}]"
            lines.append(f"{pad}{op.describe()}{window}")
            record = self.ops.get(op.op_id)
            detail = record.annotation() if record is not None \
                else "(never evaluated)"
            lines.append(f"{pad}  `- {detail}")
            for child in op.children():
                walk(child, indent + 1)

        walk(plan, 0)
        return "\n".join(lines)

    def tree_dict(self, plan: PhysicalOperator) -> dict:
        """JSON form: the plan tree with a ``metrics`` entry per node."""
        node: dict = {"operator": plan.describe(), "op_id": plan.op_id}
        if not plan.window.is_wild:
            node["window"] = plan.window.describe()
        record = self.ops.get(plan.op_id)
        if record is not None:
            node["metrics"] = record.to_dict()
        children = [self.tree_dict(child) for child in plan.children()]
        if children:
            node["children"] = children
        return node

    def to_list(self) -> List[dict]:
        """Flat per-operator records, ordered by ``op_id``."""
        return [self.ops[op_id].to_dict() for op_id in sorted(self.ops)]

    @property
    def total_time_seconds(self) -> float:
        return sum(record.self_seconds for record in self.ops.values())


_CHILD_ATTRS = ("child", "left", "right")


def instrument_plan(plan: PhysicalOperator) -> PhysicalOperator:
    """Shallow-copy ``plan`` wrapping every ``eval`` with metric capture.

    The copies share all immutable state (windows, conditions, ``op_id``)
    with the original nodes, so metrics recorded while running the
    instrumented copy can be reported against the original plan tree.
    Only the time spent *inside* each operator's iterator is charged to
    it; consumer-side gaps between ``next()`` calls are not.
    """
    clone = copy.copy(plan)
    # trex: no-tick(iterates the three fixed child attribute names)
    for attr in _CHILD_ATTRS:
        child = getattr(clone, attr, None)
        if isinstance(child, PhysicalOperator):
            setattr(clone, attr, instrument_plan(child))
    inner_eval = type(plan).eval

    def analyzed_eval(ctx: ExecContext, sp: SearchSpace,
                      refs: Env) -> Iterator[Segment]:
        metrics = ctx.metrics
        if metrics is None:
            yield from inner_eval(clone, ctx, sp, refs)
            return
        record = metrics.for_op(clone)
        record.eval_calls += 1
        record.observe_space(sp)
        t0 = time.perf_counter()
        # Timed separately: non-generator evals (SubPatternCache) do
        # their materialization work in the call itself.
        iterator = inner_eval(clone, ctx, sp, refs)
        record.time_seconds += time.perf_counter() - t0
        # trex: no-tick(drains the wrapped operator's ticking iterator)
        while True:
            t0 = time.perf_counter()
            try:
                segment = next(iterator)
            except StopIteration:
                record.time_seconds += time.perf_counter() - t0
                return
            record.time_seconds += time.perf_counter() - t0
            record.segments_out += 1
            yield segment

    # Instance attribute shadows the class method for ``clone`` only.
    clone.eval = analyzed_eval  # type: ignore[method-assign]
    return clone


def merged_metrics(per_series: List[Optional[RunMetrics]]) -> RunMetrics:
    """Aggregate per-series run metrics into one cross-series view."""
    total = RunMetrics()
    for metrics in per_series:
        if metrics is not None:
            total.merge(metrics)
    return total


# ---------------------------------------------------------------------------
# Service-side run accounting (used by repro.service; docs/SERVICE.md)
# ---------------------------------------------------------------------------

def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample.

    ``q`` is in [0, 100].  Nearest-rank (rather than interpolation)
    keeps the reported latency an actually-observed value, which is the
    convention load-testing tools use for pXX figures.
    """
    if not sorted_values:
        return 0.0
    if q <= 0:
        return sorted_values[0]
    rank = int(math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


class LatencyWindow:
    """Bounded, thread-safe latency sample for percentile reporting.

    Keeps the most recent ``max_samples`` observations (enough for
    stable p50/p95/p99 on a serving window without unbounded growth).
    """

    def __init__(self, max_samples: int = 4096):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self._samples: Deque[float] = deque(maxlen=max_samples)
        self._lock = threading.Lock()
        self.count = 0
        self.total_seconds = 0.0

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self.count += 1
            self.total_seconds += seconds

    def snapshot(self) -> dict:
        """Count, mean and p50/p95/p99 over the retained window."""
        with self._lock:
            values = sorted(self._samples)
            count = self.count
            total = self.total_seconds
        return {
            "count": count,
            "mean_seconds": (total / count) if count else 0.0,
            "p50_seconds": percentile(values, 50),
            "p95_seconds": percentile(values, 95),
            "p99_seconds": percentile(values, 99),
        }


class ServiceCounters:
    """Thread-safe named counters for the query service's /stats.

    A tiny wrapper over :class:`collections.Counter` whose increments
    are safe from both asyncio callbacks and executor threads; the
    service layer keys it with its admission/shed/retry/breaker events
    (docs/SERVICE.md lists the stable names).
    """

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._lock = threading.Lock()

    def add(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counts[name] += value

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts[name]

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)
