"""Per-series execution: the one runner and the pool backends
(docs/PARALLELISM.md).

T-ReX queries fan out over independent series partitions: the engine
plans once, then evaluates the same physical plan over every series.
This module supplies the per-series side of that:

* :func:`run_series` — the guarded single-series evaluation, the only
  place an :class:`ExecContext` and a :class:`MatchSink` are built for a
  query.  The engine's settle loop calls it inline (every series under
  ``executor='serial'``, the budget-boundary series under a pool) and
  the pool workers call it with the full budgets;
* :func:`dispatch` — submit one task per non-empty series to a cached
  worker pool and collect :class:`SeriesOutcome` records keyed by series
  index; the ``serial`` backend precomputes nothing;
* :class:`SegmentLedger` — a thread-safe, cross-worker ``max_segments``
  ledger so a globally blown budget interrupts in-flight series early
  (the deterministic settlement happens later, in the engine's settle
  loop, which re-runs the boundary series with the exact remaining
  budget);
* process-backend plumbing: payload pickling (with an automatic
  fall-back to the thread backend when a plan or registry is not
  picklable), deadline re-basing across processes (``perf_counter``
  epochs differ), and re-arming ``TREX_FAULTS`` inside workers.

:func:`run_series` never raises an ``Exception``: every failure is
captured on the outcome and settled by the engine's loop, so the
``on_error`` policy applies at one deterministic point under every
backend.
"""

from __future__ import annotations

import atexit
import logging
import os
import pickle
import threading
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Tuple)

from repro.core.sink import MatchSink
from repro.errors import ResourceBudgetExceeded, TRexError, WorkerCrashed
from repro.exec.base import ExecContext, PhysicalOperator
from repro.exec.metrics import RunMetrics, instrument_plan
from repro.lang.query import Query
from repro.plan.prefilter import PrefilterPlan, evaluate_with_prefilter
from repro.testing import faults as _faults
from repro.timeseries.series import Series

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_logger = logging.getLogger(__name__)

#: Executor backends accepted by ``TRexEngine(executor=...)``.
BACKENDS = ("serial", "thread", "process")


def default_workers() -> int:
    """Worker count when neither ``workers=`` nor ``TREX_WORKERS`` is set."""
    return min(8, os.cpu_count() or 1)


def resolve_workers(workers: Optional[int]) -> int:
    if workers is not None:
        return workers
    env = os.environ.get("TREX_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"TREX_WORKERS must be an integer, got {env!r}")
        if value < 1:
            raise ValueError(f"TREX_WORKERS must be >= 1, got {value}")
        return value
    return default_workers()


class LedgerExhausted(ResourceBudgetExceeded):
    """The cross-worker segment ledger ran dry.

    Distinct from a plain :class:`ResourceBudgetExceeded` so the
    engine's settle loop can tell "this series alone blew its budget"
    from "the *global* ledger was exhausted by concurrent workers" —
    the latter must always be re-settled deterministically.
    """


class SegmentLedger:
    """Thread-safe global ``max_segments`` ledger shared by workers.

    Workers charge optimistically and concurrently, so the ledger's
    raise point is *not* deterministic — it exists to interrupt
    in-flight series as soon as the whole query has provably exceeded
    its budget.  Determinism is restored by the engine's settle loop,
    which walks series in order, maintains the exact remainder, and
    re-runs the boundary series with it (docs/PARALLELISM.md).
    """

    def __init__(self, cap: int):
        self.cap = cap
        self._total = 0
        self._lock = threading.Lock()

    @property
    def total(self) -> int:
        return self._total

    def charge(self, n: int = 1) -> None:
        with self._lock:
            self._total += n
            exhausted = self._total > self.cap
        if exhausted:
            raise LedgerExhausted(
                f"global max_segments={self.cap} budget exhausted across "
                f"concurrent workers ({self._total} segments charged)")


@dataclass
class SeriesOutcome:
    """Everything one :func:`run_series` call produced for one series."""

    index: int
    matches: List[Tuple[int, int]] = field(default_factory=list)
    stats: Counter = field(default_factory=Counter)
    seconds: float = 0.0
    metrics: Optional[RunMetrics] = None
    segments_charged: int = 0
    error: Optional[BaseException] = None
    #: The shared ledger (not this series' own budget) stopped the run.
    ledger_exhausted: bool = False
    #: Prefilter decision counters for this series (``None`` when the
    #: prefilter was off or inert — docs/PREFILTER.md).
    prefilter: Optional[Counter] = None


@dataclass
class SeriesTask:
    """One unit of work: evaluate the plan over one series."""

    index: int
    series: Series
    limit: Optional[int]
    segment_budget: Optional[int]
    deadline: Optional[float]
    analyze: bool
    #: Engine-level vector-kernel toggle, forwarded to the ExecContext
    #: so inline and pool runs take the same leaf path.
    vectorize: Optional[bool] = None
    #: Extracted prefilter plan (plain picklable dataclasses), so every
    #: backend takes the identical skip/narrow/full decision for this
    #: series.
    prefilter: Optional[PrefilterPlan] = None


def run_series(plan: PhysicalOperator, raw_plan: PhysicalOperator,
               query: Query, task: SeriesTask,
               ledger: Optional[SegmentLedger] = None,
               log_unexpected: bool = True) -> SeriesOutcome:
    """Evaluate ``plan`` over one series, capturing any failure.

    ``plan`` may be the instrumented copy (analyze mode); ``raw_plan``
    is the original tree metrics are finalized against.  The sink's
    partial harvest (sorted, duplicate-free — a subset of the clean
    run's matches) is returned alongside a captured failure.  The
    ``data.series`` fault point fires here, so chaos tests exercise the
    same injection sites under every backend.  ``log_unexpected`` is
    off under ``on_error='raise'``, where the engine re-raises the
    failure instead of isolating it.
    """
    sink = MatchSink(task.limit)
    ctx: Optional[ExecContext] = None
    error: Optional[BaseException] = None
    pf_counters: Optional[Counter] = None
    t0 = time.perf_counter()
    try:
        if _faults.ENABLED:
            _faults.fire("data.series")
        ctx = ExecContext(task.series, query.registry,
                          deadline=task.deadline,
                          metrics=RunMetrics() if task.analyze else None,
                          segment_budget=task.segment_budget,
                          ledger=ledger, vectorize=task.vectorize)
        pf_counters = evaluate_with_prefilter(
            plan, task.prefilter, ctx, task.series, sink)
    except Exception as exc:  # noqa: BLE001 — settled by the engine loop
        error = exc
        if log_unexpected and not isinstance(exc, TRexError):
            _logger.exception("series %s failed with a non-library error "
                              "(isolated by the on_error policy)",
                              task.series.key)
    seconds = time.perf_counter() - t0
    metrics = ctx.metrics if ctx is not None else None
    if metrics is not None:
        metrics.finalize(raw_plan)
    return SeriesOutcome(
        index=task.index,
        matches=sink.finish(),
        stats=ctx.stats if ctx is not None else Counter(),
        seconds=seconds,
        metrics=metrics,
        segments_charged=ctx.segments_charged if ctx is not None else 0,
        error=error,
        ledger_exhausted=isinstance(error, LedgerExhausted),
        prefilter=pf_counters)


# ---------------------------------------------------------------------------
# Process backend
# ---------------------------------------------------------------------------

#: The TREX_FAULTS value this worker process last installed; ``None``
#: until the first task, so fork-inherited programmatic faults survive
#: when no environment faults are requested.
_worker_faults_env: Optional[str] = None


def _ensure_worker_faults(env_value: str) -> None:
    """Re-arm ``TREX_FAULTS`` inside a pool worker when it changed.

    Spawned workers re-install from the value shipped with the task;
    forked workers inherit the parent's armed registry and only reset
    it when the environment actually changes between tasks.
    """
    global _worker_faults_env
    if env_value == _worker_faults_env:
        return
    if _worker_faults_env is not None or env_value:
        _faults.disarm_all()
        if env_value:
            _faults.install_from_env(env_value)
    _worker_faults_env = env_value


def _pickle_safe_error(error: Optional[BaseException]) \
        -> Optional[BaseException]:
    """Ensure an exception survives the trip back to the parent."""
    if error is None:
        return None
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 — any pickling failure
        return WorkerCrashed(
            f"worker error could not be serialized: "
            f"{type(error).__name__}: {error}")


def _process_worker(payload: tuple) -> SeriesOutcome:
    """Module-level process-pool entry point (must be picklable)."""
    (plan, query, task, deadline_remaining, faults_env,
     log_unexpected) = payload
    _ensure_worker_faults(faults_env)
    if deadline_remaining is not None:
        # perf_counter epochs are per-process: re-base the deadline on
        # the remaining budget measured at dispatch time.
        task.deadline = time.perf_counter() + deadline_remaining
    exec_plan = instrument_plan(plan) if task.analyze else plan
    outcome = run_series(exec_plan, plan, query, task,
                         log_unexpected=log_unexpected)
    outcome.error = _pickle_safe_error(outcome.error)
    return outcome


# ---------------------------------------------------------------------------
# Pool management
# ---------------------------------------------------------------------------

_pool_lock = threading.Lock()
_thread_pool: Optional[ThreadPoolExecutor] = None
_thread_pool_key: Optional[tuple] = None
_process_pool: Optional[ProcessPoolExecutor] = None
_process_pool_key: Optional[tuple] = None


def _get_thread_pool(workers: int) -> ThreadPoolExecutor:
    global _thread_pool, _thread_pool_key
    with _pool_lock:
        key = (workers,)
        if _thread_pool is None or _thread_pool_key != key:
            if _thread_pool is not None:
                _thread_pool.shutdown(wait=False)
            _thread_pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="trex-worker")
            _thread_pool_key = key
        return _thread_pool


def _get_process_pool(workers: int) -> ProcessPoolExecutor:
    """One cached process pool, keyed by (workers, TREX_FAULTS).

    Keying by the fault environment means chaos runs that change
    ``TREX_FAULTS`` between queries get a fresh pool whose workers pick
    the new faults up; unchanged environments reuse warm workers.
    """
    global _process_pool, _process_pool_key
    with _pool_lock:
        key = (workers, os.environ.get("TREX_FAULTS", ""))
        if _process_pool is None or _process_pool_key != key:
            if _process_pool is not None:
                _process_pool.shutdown(wait=False)
            # Imported here so the default serial path, which shares
            # run_series with the pools, never loads multiprocessing.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            try:
                mp_context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover — non-posix platforms
                mp_context = multiprocessing.get_context()
            _process_pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=mp_context)
            _process_pool_key = key
        return _process_pool


def _discard_process_pool() -> None:
    global _process_pool, _process_pool_key
    with _pool_lock:
        if _process_pool is not None:
            _process_pool.shutdown(wait=False)
        _process_pool = None
        _process_pool_key = None


def warm_pools(executor: str, workers: Optional[int]) -> None:
    """Pre-create the cached worker pool for ``executor``.

    Long-running callers (the query service) call this once at startup
    so the first request does not pay pool spin-up latency; subsequent
    requests reuse the same cached pool (the pools here are
    module-level and keyed by configuration, so cross-request reuse is
    automatic).  A no-op for the serial backend.
    """
    count = resolve_workers(workers)
    if executor == "thread":
        _get_thread_pool(count)
    elif executor == "process":
        _get_process_pool(count)


#: Observer invoked (with a short description) every time the process
#: backend converts a dead worker into a :class:`WorkerCrashed` outcome.
#: The query service registers one to drive its crash-retry accounting
#: (docs/SERVICE.md); ``None`` disables the hook.
_crash_listener: Optional[Callable[[str], None]] = None


def set_crash_listener(listener: Optional[Callable[[str], None]]) -> None:
    """Install (or with ``None`` remove) the worker-crash observer."""
    global _crash_listener
    _crash_listener = listener


def _notify_crash(description: str) -> None:
    listener = _crash_listener
    if listener is not None:
        try:
            listener(description)
        except Exception:  # noqa: BLE001 — observers must not break runs
            _logger.exception("worker-crash listener failed")


def reset_pools() -> None:
    """Shut down every cached worker pool (tests, fault re-arming).

    Programmatic (non-environment) faults reach forked process workers
    only if they are armed *before* the pool is created; call this
    first to force a fresh pool.
    """
    global _thread_pool, _thread_pool_key
    with _pool_lock:
        if _thread_pool is not None:
            _thread_pool.shutdown(wait=False)
        _thread_pool = None
        _thread_pool_key = None
    _discard_process_pool()


atexit.register(reset_pools)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def _plan_is_picklable(plan: PhysicalOperator, query: Query) -> bool:
    try:
        pickle.dumps((plan, query))
        return True
    except Exception:  # noqa: BLE001 — any pickling failure
        return False


def dispatch(backend: str, workers: Optional[int],
             plan: PhysicalOperator, exec_plan: PhysicalOperator,
             query: Query, tasks: Iterable[SeriesTask],
             ledger: Optional[SegmentLedger] = None,
             log_unexpected: bool = True) -> Dict[int, SeriesOutcome]:
    """Run every task on the chosen pool; outcomes keyed by index.

    The ``serial`` backend has no pool and precomputes nothing (``tasks``
    is not even iterated): the engine's settle loop then runs every
    series inline.  The process backend falls back to threads for plans
    or registries that cannot be pickled (e.g. ad-hoc aggregate classes
    defined in a test function) — logged, never fatal.  A worker process
    that dies mid-task surfaces as a
    :class:`~repro.errors.WorkerCrashed` outcome for every task it took
    down, so the ``on_error`` policy still applies per series.
    """
    if backend == "serial":
        return {}
    count = resolve_workers(workers)
    if backend == "process" and not _plan_is_picklable(plan, query):
        _logger.warning(
            "plan or query is not picklable; falling back to the thread "
            "backend for this query (docs/PARALLELISM.md)")
        backend = "thread"

    if backend == "thread":
        pool = _get_thread_pool(count)
        futures = [
            (task, pool.submit(run_series, exec_plan, plan, query, task,
                               ledger, log_unexpected))
            for task in tasks
        ]
        return {task.index: future.result() for task, future in futures}

    if backend != "process":
        raise ValueError(f"unknown parallel backend {backend!r}")

    faults_env = os.environ.get("TREX_FAULTS", "")
    pool = _get_process_pool(count)
    now = time.perf_counter()
    futures: List[Tuple[SeriesTask, Future]] = []
    for task in tasks:
        remaining = None
        if task.deadline is not None:
            remaining = max(0.0, task.deadline - now)
        payload = (plan, query, task, remaining, faults_env, log_unexpected)
        futures.append((task, pool.submit(_process_worker, payload)))
    outcomes: Dict[int, SeriesOutcome] = {}
    broken = False
    for task, future in futures:
        try:
            outcomes[task.index] = future.result()
        except Exception as exc:  # noqa: BLE001 — pool infrastructure died
            broken = True
            crash = WorkerCrashed(
                f"worker process failed while evaluating series "
                f"{task.series.key!r}: {type(exc).__name__}: {exc}")
            _notify_crash(str(crash))
            outcomes[task.index] = SeriesOutcome(
                index=task.index, error=crash)
    if broken:
        _discard_process_pool()
    return outcomes
