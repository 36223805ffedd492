"""Service-level metrics: counters, latency percentiles, /stats body.

Counter names are stable (docs/SERVICE.md) — the load generator, the
CI ``service-chaos`` gate and the chaos sweep all key on them:

=========================  ================================================
counter                    meaning
=========================  ================================================
``requests``               query requests received (before admission)
``admitted``               passed admission control
``completed``              settled with a 200 (possibly degraded)
``failed``                 settled with a structured error response
``shed_queue_full``        rejected: bounded queue at capacity
``shed_deadline``          rejected: queue wait would blow the deadline
``rejected_rate``          admission: token bucket dry
``rejected_concurrency``   admission: tenant concurrency quota
``rejected_draining``      rejected: service draining
``retries``                re-executions after a transient failure
``retry_success``          queries that settled cleanly after >=1 retry
``retry_exhausted``        transient failures surviving every attempt
``breaker_trips``          circuit-breaker closed->open transitions
``worker_crashes``         pool-level crashes observed (parallel hook)
``drained``                admitted queries settled during drain
``prefilter_*``            totals over requests: ``series_examined``,
                           ``series_skipped``, ``series_narrowed``,
                           ``series_full`` (docs/PREFILTER.md), and
                           ``aggindex_cached`` / ``aggindex_built``:
                           indexes found resident on the table / built
=========================  ================================================
"""

from __future__ import annotations

import threading

from repro.exec.metrics import LatencyWindow, ServiceCounters


class ServiceMetrics:
    """All live service metrics behind one snapshot call."""

    def __init__(self) -> None:
        self.counters = ServiceCounters()
        self.latency = LatencyWindow()
        self._lock = threading.Lock()
        self._queue_depth = 0
        self._queue_depth_max = 0
        self._errors_by_kind = ServiceCounters()

    # -- queue gauge --------------------------------------------------------

    def queue_depth(self, depth: int) -> None:
        with self._lock:
            self._queue_depth = depth
            self._queue_depth_max = max(self._queue_depth_max, depth)

    # -- error taxonomy -----------------------------------------------------

    def record_error_kind(self, kind: str) -> None:
        self._errors_by_kind.add(kind)

    def snapshot(self) -> dict:
        with self._lock:
            queue = {"depth": self._queue_depth,
                     "depth_max": self._queue_depth_max}
        counters = self.counters.snapshot()
        shed = (counters.get("shed_queue_full", 0)
                + counters.get("shed_deadline", 0))
        requests = counters.get("requests", 0)
        return {
            "counters": counters,
            "queue": queue,
            "latency": self.latency.snapshot(),
            "errors_by_kind": self._errors_by_kind.snapshot(),
            "shed_rate": (shed / requests) if requests else 0.0,
        }
