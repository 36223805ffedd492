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
* :func:`dispatch` — submit one task per non-empty series to the cached
  process pool and collect :class:`SeriesOutcome` records keyed by
  series index; the ``serial`` backend (and a plan that cannot be
  pickled) precomputes nothing;
* process-backend plumbing: payload pickling, deadline re-basing across
  processes (``perf_counter`` epochs differ), and re-arming
  ``TREX_FAULTS`` inside workers.

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
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Tuple)

from repro.core.config import EngineConfig
from repro.core.sink import MatchSink
from repro.errors import TRexError, WorkerCrashed
from repro.exec.base import ExecContext, PhysicalOperator
from repro.exec.metrics import RunMetrics, instrument_plan
from repro.lang.query import Query
from repro.plan.prefilter import PrefilterPlan, evaluate_with_prefilter
from repro.testing import faults as _faults
from repro.timeseries.series import Series

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_logger = logging.getLogger(__name__)


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
    #: Prefilter decision counters for this series, plus the
    #: ``aggindex_*`` cache events of its evaluation (``None`` when
    #: there were neither — docs/PREFILTER.md).
    prefilter: Optional[Counter] = None


@dataclass
class SeriesTask:
    """One unit of work: evaluate the plan over one series."""

    index: int
    series: Series
    limit: Optional[int]
    segment_budget: Optional[int]
    deadline: Optional[float]
    #: Extracted prefilter plan (plain picklable dataclasses), so every
    #: backend takes the identical skip/narrow/full decision for this
    #: series.
    prefilter: Optional[PrefilterPlan] = None


def run_series(plan: PhysicalOperator, raw_plan: PhysicalOperator,
               query: Query, task: SeriesTask,
               config: EngineConfig) -> SeriesOutcome:
    """Evaluate ``plan`` over one series, capturing any failure.

    ``plan`` may be the instrumented copy (analyze mode); ``raw_plan``
    is the original tree metrics are finalized against.  The sink's
    partial harvest (sorted, duplicate-free — a subset of the clean
    run's matches) is returned alongside a captured failure.  The
    ``data.series`` fault point fires here, so chaos tests exercise the
    same injection sites under every backend.  A non-library failure is
    logged unless ``on_error='raise'``, where the engine re-raises it
    instead of isolating it.
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
                          metrics=RunMetrics() if config.analyze else None,
                          segment_budget=task.segment_budget,
                          vectorize=config.vectorize)
        pf_counters = evaluate_with_prefilter(
            plan, task.prefilter, ctx, task.series, sink)
    except Exception as exc:  # noqa: BLE001 — settled by the engine loop
        error = exc
        if config.on_error != "raise" and not isinstance(exc, TRexError):
            _logger.exception("series %s failed with a non-library error "
                              "(isolated by the on_error policy)",
                              task.series.key)
    if ctx is not None:
        ctx.settle_indexes()
        if ctx.index_events:
            pf_counters = pf_counters or Counter()
            pf_counters.update(ctx.index_events)
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
    plan, query, task, config, deadline_remaining, faults_env = payload
    _ensure_worker_faults(faults_env)
    if deadline_remaining is not None:
        # perf_counter epochs are per-process: re-base the deadline on
        # the remaining budget measured at dispatch time.
        task.deadline = time.perf_counter() + deadline_remaining
    exec_plan = instrument_plan(plan) if config.analyze else plan
    outcome = run_series(exec_plan, plan, query, task, config)
    outcome.error = _pickle_safe_error(outcome.error)
    return outcome


# ---------------------------------------------------------------------------
# Pool management
# ---------------------------------------------------------------------------

_pool_lock = threading.Lock()
_process_pool: Optional[ProcessPoolExecutor] = None
_process_pool_key: Optional[tuple] = None


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


def warm_pools(config: EngineConfig) -> None:
    """Pre-create the cached worker pool ``config`` will use.

    Long-running callers (the query service) call this once at startup
    so the first request does not pay pool spin-up latency; subsequent
    requests reuse the same cached pool (it is module-level and keyed by
    configuration, so cross-request reuse is automatic).  A no-op for
    the serial backend.
    """
    if config.executor == "process":
        _get_process_pool(config.workers)


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
    """Shut down the cached worker pool (tests, fault re-arming).

    Programmatic (non-environment) faults reach forked process workers
    only if they are armed *before* the pool is created; call this
    first to force a fresh pool.
    """
    global _process_pool, _process_pool_key
    with _pool_lock:
        if _process_pool is not None:
            _process_pool.shutdown(wait=False)
        _process_pool = None
        _process_pool_key = None


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


def dispatch(config: EngineConfig, plan: PhysicalOperator,
             query: Query,
             tasks: Iterable[SeriesTask]) -> Dict[int, SeriesOutcome]:
    """Run every task on the process pool; outcomes keyed by index.

    The ``serial`` backend has no pool and precomputes nothing (``tasks``
    is not even iterated): the engine's settle loop then runs every
    series inline.  So does a plan or registry that cannot be pickled
    (e.g. ad-hoc aggregate classes defined in a test function) — logged,
    never fatal.  A worker process that dies mid-task surfaces as a
    :class:`~repro.errors.WorkerCrashed` outcome for every task it took
    down, so the ``on_error`` policy still applies per series.
    """
    if config.executor == "serial":
        return {}
    if not _plan_is_picklable(plan, query):
        _logger.warning(
            "plan or query is not picklable; running every series inline "
            "for this query (docs/PARALLELISM.md)")
        return {}

    faults_env = os.environ.get("TREX_FAULTS", "")
    pool = _get_process_pool(config.workers)
    now = time.perf_counter()
    futures: List[Tuple[SeriesTask, Future]] = []
    for task in tasks:
        remaining = None
        if task.deadline is not None:
            remaining = max(0.0, task.deadline - now)
        payload = (plan, query, task, config, remaining, faults_env)
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
        reset_pools()
    return outcomes
