"""The resilient multi-tenant query service (docs/SERVICE.md).

One :class:`QueryService` wraps a shared
:class:`~repro.core.engine.TRexEngine` configuration behind an asyncio
HTTP/JSON API with a full serving-resilience layer:

* **admission control** — per-tenant token buckets + concurrency
  quotas (:mod:`repro.service.admission`), rejected as structured 429s;
* **bounded queue + load shedding** — requests queue behind a fixed
  number of execution workers; a full queue or a queue whose estimated
  wait already exceeds the request deadline sheds *early* with a 503 +
  ``Retry-After`` instead of doing doomed work;
* **retry with backoff** — transient :class:`WorkerCrashed` failures
  (raised or isolated per series) are re-executed with exponential
  backoff and deterministic jitter (:mod:`repro.service.retry`);
* **circuit breaker** — clustering planner faults trip the
  cost→rule planner fallback service-wide;
* **graceful drain** — SIGTERM stops admission, settles every admitted
  query (partial results per the request's ``on_error`` policy), then
  exits; zero admitted queries are lost.

Request execution itself runs on a thread pool so the event loop only
ever frames bytes and schedules work; the engine below may additionally
fan out per-series work to its own process pool
(docs/PARALLELISM.md), which is warmed at startup and reused across
requests.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.core import parallel as _parallel
from repro.core.config import EngineConfig
from repro.core.engine import TRexEngine
from repro.core.plancache import PlanCache
from repro.core.result import QueryResult
from repro.errors import (AdmissionRejected, PlanError, QueryTimeout,
                          ServiceError, ServiceOverloaded,
                          ServiceUnavailable, TRexError, error_kind,
                          exit_code)
from repro.lang.query import Query
from repro.service import http as _http
from repro.service.admission import AdmissionController, AdmissionTicket
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.retry import (CircuitBreaker, RetryPolicy,
                                 is_transient_error,
                                 transient_series_errors)
from repro.testing import faults as _faults
from repro.timeseries.table import Table

_logger = logging.getLogger(__name__)

#: HTTP status per coarse error kind (repro.errors.error_kind) of an
#: engine error; ``_error_response`` maps every ServiceError itself.
_STATUS_BY_KIND = {
    "bind": 400,
    "plan": 422,
    "data": 400,
    "aggregate": 400,
    "engine-lint": 400,
    "timeout": 408,
    "budget": 408,
    "execution": 500,
    "internal": 500,
}

#: EWMA smoothing for the per-query execution-time estimate that backs
#: deadline-aware shedding.
_EWMA_ALPHA = 0.2


def error_payload(error: BaseException) -> dict:
    """The structured error body every failure path responds with."""
    kind = error_kind(error)
    payload = {
        "type": type(error).__name__,
        "kind": kind,
        "message": " ".join(str(error).split()),
        "exit_code": exit_code(error),
    }
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        payload["retry_after"] = round(float(retry_after), 3)
    return payload


def _request_number(body: dict, key: str, convert, default):
    """``convert(body[key])``, or ``default`` when the key is absent or
    ``null``; a value ``convert`` refuses or would change is the
    client's fault (400): JSON ``true`` is not the number 1, and ``2.9``
    is not the integer 2."""
    value = body.get(key)
    if value is None:
        return default
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        number = convert(value)
        if convert is int and isinstance(value, float) and number != value:
            raise ValueError(value)
        return number
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if convert is int else "a number"
        raise ServiceError(f"{key} must be {kind}, got {value!r}") \
            from None


@dataclass
class _PendingQuery:
    """One admitted query travelling through the service pipeline."""

    request_id: int
    tenant: str
    query: Query
    table: Table
    #: The request's engine: ``config.engine`` with the request's own
    #: fields replaced (``timeout_seconds`` = the clamped deadline).
    engine: EngineConfig
    ticket: AdmissionTicket
    enqueued_at: float
    deadline: float
    future: "asyncio.Future[Tuple[int, dict, Dict[str, str]]]" = None
    attempts: int = 0
    meta: dict = field(default_factory=dict)


class QueryService:
    """See the module docstring; construct, then ``await run()`` (or
    use :func:`repro.service.harness.BackgroundService` from
    synchronous code)."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.config.validate()
        self.tables: Dict[str, Table] = {}
        self.plan_cache = PlanCache()
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(self.config)
        self.retry_policy = RetryPolicy(self.config.retry)
        self.breaker = CircuitBreaker(self.config.breaker,
                                      TRexEngine.FALLBACK_STRATEGY)
        self._request_ids = itertools.count(1)
        self._draining = False
        self._drained = asyncio.Event()
        self._started_at = time.monotonic()
        self._queue: "asyncio.Queue[Optional[_PendingQuery]]" = \
            asyncio.Queue(maxsize=self.config.queue_depth)
        self._in_flight = 0
        self._ewma_exec_seconds: Optional[float] = None
        self._exec_pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="trex-service")
        self._server: Optional[asyncio.base_events.Server] = None
        self._workers: list = []
        #: Actual bound (host, port) once the server is listening.
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle ----------------------------------------------------------

    def load_datasets(self) -> None:
        """Materialize the configured synthetic datasets once."""
        from repro.datasets import load
        for name, num_series, length in self.config.datasets:
            if name not in self.tables:
                self.tables[name] = load(name, num_series=num_series,
                                         length=length)

    def add_table(self, name: str, table: Table) -> None:
        """Serve ``table`` under ``name``.  Tables are immutable and
        their derived state is resident on them (docs/SERVICE.md): new
        data is a new ``Table`` registered over the old name."""
        self.tables[name] = table

    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the execution workers."""
        self.load_datasets()
        _parallel.warm_pools(self.config.engine)
        _parallel.set_crash_listener(
            lambda _desc: self.metrics.counters.add("worker_crashes"))
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        loop = asyncio.get_running_loop()
        self._workers = [
            loop.create_task(self._worker_loop(index))
            for index in range(self.config.workers)
        ]
        _logger.info("query service listening on %s:%d", *self.address)
        return self.address

    async def run(self, install_signal_handlers: bool = True) -> None:
        """Start, serve until drained (SIGTERM/SIGINT), then exit."""
        if self._server is None:
            await self.start()
        if install_signal_handlers:
            import signal
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        sig, lambda: asyncio.ensure_future(self.drain()))
                except NotImplementedError:  # pragma: no cover — win32
                    pass
        await self._drained.wait()

    async def drain(self) -> None:
        """Graceful shutdown: stop admitting, settle, then stop.

        Queries already admitted (queued or executing) run to
        completion under their own error policies — partial results
        flush exactly as they would have without the shutdown — so an
        orderly redeploy loses nothing that was accepted.
        """
        if self._draining:
            return
        self._draining = True
        _logger.info("drain: admission stopped; settling in-flight queries")
        deadline = time.monotonic() + self.config.drain_timeout_seconds
        while (self._queue.qsize() or self._in_flight) \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for _ in self._workers:
            # Sentinels wake every worker so the loop tasks exit cleanly.
            try:
                self._queue.put_nowait(None)
            except asyncio.QueueFull:  # pragma: no cover — drained above
                break
        await asyncio.gather(*self._workers, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._exec_pool.shutdown(wait=True)
        _parallel.set_crash_listener(None)
        self._drained.set()
        _logger.info("drain complete")

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _http.read_request(reader)
                except _http.HttpProtocolError as exc:
                    writer.write(_http.response_bytes(
                        400, {"error": {"type": "HttpProtocolError",
                                        "kind": "protocol",
                                        "message": str(exc)}},
                        keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                status, payload, headers = await self._route(request)
                keep = request.keep_alive and not self._draining
                writer.write(_http.response_bytes(
                    status, payload, extra_headers=headers, keep_alive=keep))
                await writer.drain()
                if not keep:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # peer went away mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _route(self, request: _http.Request) \
            -> Tuple[int, dict, Dict[str, str]]:
        path = request.path.split("?", 1)[0]
        if path == "/healthz" and request.method == "GET":
            return 200, {"status": "ok",
                         "uptime_seconds": round(
                             time.monotonic() - self._started_at, 3)}, {}
        if path == "/readyz" and request.method == "GET":
            if self._draining:
                return 503, {"ready": False, "reason": "draining"}, {}
            return 200, {"ready": True}, {}
        if path == "/stats" and request.method == "GET":
            return 200, self.stats(), {}
        if path == "/query":
            if request.method != "POST":
                return 405, {"error": {"type": "MethodNotAllowed",
                                       "kind": "protocol",
                                       "message": "POST /query"}}, {}
            return await self._handle_query(request)
        return 404, {"error": {"type": "NotFound", "kind": "protocol",
                               "message": f"no route {path!r}"}}, {}

    # -- the query pipeline -------------------------------------------------

    async def _handle_query(self, request: _http.Request) \
            -> Tuple[int, dict, Dict[str, str]]:
        self.metrics.counters.add("requests")
        try:
            body = request.json()
        except _http.HttpProtocolError as exc:
            self.metrics.counters.add("failed")
            return 400, {"error": {"type": "HttpProtocolError",
                                   "kind": "protocol",
                                   "message": str(exc)}}, {}
        try:
            item = self._admit_and_build(body)
        except TRexError as exc:
            return self._error_response(exc)
        try:
            self._enqueue(item)
        except TRexError as exc:
            item.ticket.release()
            return self._error_response(exc)
        try:
            return await item.future
        finally:
            self.metrics.queue_depth(self._queue.qsize())

    def _error_response(self, error: BaseException) \
            -> Tuple[int, dict, Dict[str, str]]:
        kind = error_kind(error)
        self.metrics.record_error_kind(kind)
        self.metrics.counters.add("failed")
        headers: Dict[str, str] = {}
        retry_after = getattr(error, "retry_after", None)
        if retry_after is not None:
            headers["Retry-After"] = f"{max(retry_after, 0.001):.3f}"
        if isinstance(error, (ServiceOverloaded, ServiceUnavailable)):
            status = 503
        elif isinstance(error, AdmissionRejected):
            status = 429
        elif isinstance(error, ServiceError):
            # Anything else service-level is a malformed request
            # (unknown dataset/template, bad knobs) — the client's
            # fault, not the service's.
            status = 400
        else:
            status = _STATUS_BY_KIND.get(kind, 500)
        return status, {"error": error_payload(error)}, headers

    def _admit_and_build(self, body: dict) -> _PendingQuery:
        """Admission + request validation; raises structured errors."""
        if self._draining:
            self.metrics.counters.add("rejected_draining")
            raise ServiceUnavailable("service is draining; not admitting "
                                     "new queries")
        # A ``null`` field means "not given" throughout.
        tenant = body.get("tenant")
        tenant_name = "default" if tenant is None else str(tenant)
        ticket = self.admission.admit(tenant_name)
        self.metrics.counters.add("admitted")
        try:
            query, table = self._bind_request(body)
            tenant_config = self.admission.tenant(tenant_name).config
            defaults = self.config.engine
            max_segments = _request_number(body, "max_segments", int,
                                           tenant_config.max_segments)
            if max_segments is not None and \
                    tenant_config.max_segments is not None:
                max_segments = min(max_segments, tenant_config.max_segments)
            timeout = _request_number(body, "timeout_seconds", float,
                                      defaults.timeout_seconds)
            on_error = body.get("on_error")
            try:
                # EngineConfig validates the request's knobs exactly as
                # it validates everyone else's; out here that is the
                # client's fault (400), not a planning failure.  NaN
                # passes min() and is rejected there.
                engine = replace(
                    defaults,
                    timeout_seconds=min(timeout,
                                        tenant_config.max_timeout_seconds),
                    max_matches=_request_number(body, "limit", int, None),
                    on_error=(defaults.on_error if on_error is None
                              else str(on_error)),
                    max_segments=max_segments)
            except PlanError as exc:
                # Name the request's key, not the engine field behind it.
                raise ServiceError(
                    str(exc).replace("max_matches", "limit")) from None
            now = time.monotonic()
            loop = asyncio.get_running_loop()
            item = _PendingQuery(
                request_id=next(self._request_ids),
                tenant=tenant_name, query=query, table=table,
                engine=engine, ticket=ticket, enqueued_at=now,
                deadline=now + engine.timeout_seconds)
            item.future = loop.create_future()
            return item
        except BaseException:
            ticket.release()
            raise

    def _bind_request(self, body: dict) -> Tuple[Query, Table]:
        dataset = body.get("dataset")
        template_name = body.get("template")
        text = body.get("query")
        params = body.get("params") or {}
        if not isinstance(params, dict):
            raise ServiceError("params must be a JSON object")
        if template_name is not None:
            from repro.queries import get_template
            template = get_template(str(template_name))
            text = template.text
            dataset = dataset or template.dataset
            if not params:
                # Bare template requests get its first grid point — the
                # canonical instance the bench harness also runs first.
                params = template.param_sets()[0]
        if text is None:
            raise ServiceError("request needs 'query' text or a "
                               "'template' name")
        if dataset is None:
            raise ServiceError("request needs a 'dataset' name")
        table = self.tables.get(str(dataset))
        if table is None:
            raise ServiceError(f"unknown dataset {dataset!r}; served: "
                               f"{sorted(self.tables)}")
        # Compile through the shared cache: repeated template bindings
        # skip parse+bind entirely (hits surface in /stats).
        query = self.plan_cache.compile(str(text), params)
        return query, table

    def _enqueue(self, item: _PendingQuery) -> None:
        """Deadline-aware bounded enqueue; sheds instead of waiting."""
        estimate = self._ewma_exec_seconds
        if estimate is not None:
            queued_ahead = self._queue.qsize() + self._in_flight
            est_wait = estimate * (queued_ahead / self.config.workers)
            if time.monotonic() + est_wait > item.deadline:
                self.metrics.counters.add("shed_deadline")
                raise ServiceOverloaded(
                    f"estimated queue wait {est_wait:.3f}s exceeds the "
                    f"request deadline; retry later",
                    reason="deadline", retry_after=max(est_wait, 0.01))
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.metrics.counters.add("shed_queue_full")
            retry_after = (estimate or 0.05) * \
                (self.config.queue_depth / self.config.workers)
            raise ServiceOverloaded(
                f"request queue is full "
                f"(queue_depth={self.config.queue_depth})",
                reason="queue_full",
                retry_after=max(retry_after, 0.01)) from None
        self.metrics.queue_depth(self._queue.qsize())

    async def _worker_loop(self, index: int) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                return
            self._in_flight += 1
            try:
                response = await self._settle(item)
                if not item.future.done():
                    item.future.set_result(response)
            except Exception as exc:  # noqa: BLE001 — last-resort guard
                _logger.exception("worker %d: unhandled failure", index)
                if not item.future.done():
                    item.future.set_result(self._error_response(exc))
            finally:
                self._in_flight -= 1
                item.ticket.release()
                if self._draining:
                    self.metrics.counters.add("drained")

    async def _settle(self, item: _PendingQuery) \
            -> Tuple[int, dict, Dict[str, str]]:
        """Run one admitted query to a response, retrying transients."""
        loop = asyncio.get_running_loop()
        delays = self.retry_policy.delays(item.request_id)
        last_error: Optional[BaseException] = None
        retried = False
        for attempt in range(1, self.config.retry.max_attempts + 1):
            item.attempts = attempt
            try:
                result, planner = await loop.run_in_executor(
                    self._exec_pool, self._execute_attempt, item)
            except TRexError as exc:
                last_error = exc
                if is_transient_error(exc) and attempt <= len(delays):
                    self.metrics.counters.add("retries")
                    retried = True
                    await asyncio.sleep(delays[attempt - 1])
                    continue
                if is_transient_error(exc):
                    self.metrics.counters.add("retry_exhausted")
                return self._error_response(exc)
            transient = transient_series_errors(result)
            if transient and attempt <= len(delays):
                self.metrics.counters.add("retries")
                retried = True
                await asyncio.sleep(delays[attempt - 1])
                continue
            if transient:
                self.metrics.counters.add("retry_exhausted")
            elif retried:
                self.metrics.counters.add("retry_success")
            self.metrics.counters.add("completed")
            self.metrics.latency.observe(
                time.monotonic() - item.enqueued_at)
            return 200, self._result_payload(item, result, planner,
                                             retried), {}
        # All attempts raised transiently.
        assert last_error is not None
        self.metrics.counters.add("retry_exhausted")
        return self._error_response(last_error)

    def _execute_attempt(self, item: _PendingQuery) \
            -> Tuple[QueryResult, str]:
        """One engine execution on the thread pool (blocking)."""
        if _faults.ENABLED:
            _faults.fire("service.worker")
        remaining = item.deadline - time.monotonic()
        if remaining <= 0:
            raise QueryTimeout(
                f"deadline expired after {item.engine.timeout_seconds:.3f}s "
                f"(queued too long)")
        override = self.breaker.planner_override()
        planner = override or item.engine.optimizer
        engine = TRexEngine(
            replace(item.engine, optimizer=planner,
                    timeout_seconds=remaining),
            plan_cache=self.plan_cache)
        result = engine.execute_query(item.query, item.table)
        if result.prefilter:
            for key in ("series_examined", "series_skipped",
                        "series_narrowed", "series_full",
                        "aggindex_built", "aggindex_cached"):
                self.metrics.counters.add(f"prefilter_{key}",
                                          int(result.prefilter[key]))
        exec_seconds = result.planning_seconds + \
            result.execution_wall_seconds
        self._observe_exec_seconds(exec_seconds)
        if override is None:
            if result.planner_fallback:
                self.breaker.record_fallback()
            else:
                self.breaker.record_success(
                    self.config.engine.optimizer in ("cost", "batch"))
        return result, planner

    def _observe_exec_seconds(self, seconds: float) -> None:
        previous = self._ewma_exec_seconds
        if previous is None:
            self._ewma_exec_seconds = seconds
        else:
            self._ewma_exec_seconds = (
                _EWMA_ALPHA * seconds + (1.0 - _EWMA_ALPHA) * previous)

    def _result_payload(self, item: _PendingQuery, result: QueryResult,
                        planner: str, retried: bool) -> dict:
        matches = {}
        for entry in result.per_series:
            label = "/".join(str(part) for part in entry.key) or "-"
            matches[label] = [[start, end]
                              for start, end in entry.matches]
        payload = {
            "tenant": item.tenant,
            "total_matches": result.total_matches,
            "matches": matches,
            "summary": result.summary(),
            "interrupted": result.interrupted,
            "meta": {
                "request_id": item.request_id,
                "attempts": item.attempts,
                "retried": retried,
                "planner": planner,
                "breaker_state": self.breaker.state,
                "planning_seconds": round(result.planning_seconds, 6),
                "execution_seconds": round(
                    result.execution_wall_seconds, 6),
                "queue_to_response_seconds": round(
                    time.monotonic() - item.enqueued_at, 6),
            },
        }
        if result.errors:
            payload["errors"] = [error.to_dict()
                                 for error in result.errors]
        if result.degradation is not None:
            payload["degradation"] = result.degradation
        if result.planner_fallback is not None:
            payload["planner_fallback"] = result.planner_fallback
        if result.plan_cache is not None:
            payload["plan_cache"] = dict(result.plan_cache)
        return payload

    # -- reporting ----------------------------------------------------------

    def stats(self) -> dict:
        """The /stats body: service, tenants, breaker, caches, engine."""
        breaker = self.breaker.snapshot()
        data = self.metrics.snapshot()
        data["counters"]["breaker_trips"] = self.breaker.trips
        return {
            "service": data,
            "tenants": self.admission.snapshot(),
            "breaker": breaker,
            "plan_cache": self.plan_cache.counters(),
            "datasets": sorted(self.tables),
            "in_flight": self._in_flight,
            "queue_depth": self._queue.qsize(),
            "draining": self._draining,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "config": self.config.to_dict(),
        }


async def serve(config: Optional[ServiceConfig] = None,
                install_signal_handlers: bool = True) -> None:
    """Run a :class:`QueryService` until it drains (signal-driven)."""
    service = QueryService(config)
    await service.run(install_signal_handlers=install_signal_handlers)
