"""Per-tenant admission control: token buckets + concurrency quotas.

The first gate a request meets (docs/SERVICE.md).  Each tenant gets a
token bucket (sustained rate + burst) and a concurrent-query quota; a
request that clears both holds an :class:`AdmissionTicket` until its
query settles, so quota release is exception-safe by construction
(``with controller.admit(tenant):``).

Rejections raise :class:`~repro.errors.AdmissionRejected` carrying a
``retry_after`` hint — the time until the bucket refills one token —
which the HTTP layer surfaces as a 429 with a ``Retry-After`` header.

The ``service.admission`` fault point fires inside :meth:`admit`; any
injected fault is converted into a deterministic rejection so chaos
runs exercise the full structured 429 path
(``TREX_FAULTS="service.admission:raise"``).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.errors import AdmissionRejected
from repro.exec.metrics import ServiceCounters
from repro.service.config import ServiceConfig, TenantConfig
from repro.testing import faults as _faults

Clock = Callable[[], float]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Thread-safe; refill happens lazily on acquisition, so an idle
    bucket costs nothing.  ``try_acquire`` never blocks — admission
    control *rejects* rather than queues, pushing wait to the client
    where it belongs (the request queue behind admission handles
    short-term smoothing).
    """

    def __init__(self, rate: float, burst: int,
                 clock: Clock = time.monotonic):
        if not (rate > 0 and burst >= 1):  # NaN fails both
            raise ValueError("rate must be positive and burst >= 1")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(float(self.burst),
                               self._tokens + elapsed * self.rate)
            self._updated = now

    def try_acquire(self) -> Tuple[bool, float]:
        """(acquired, retry_after_seconds)."""
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True, 0.0
            deficit = 1.0 - self._tokens
            return False, deficit / self.rate

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class TenantState:
    """One tenant's live admission state and counters."""

    def __init__(self, name: str, config: TenantConfig, clock: Clock):
        self.name = name
        self.config = config
        self.bucket = TokenBucket(config.rate, config.burst, clock)
        self.in_flight = 0
        self.counters = ServiceCounters()

    def snapshot(self) -> dict:
        data = self.counters.snapshot()
        data["in_flight"] = self.in_flight
        data["rate"] = self.config.rate
        data["burst"] = self.config.burst
        data["max_concurrent"] = self.config.max_concurrent
        return data


class AdmissionTicket:
    """Context manager holding one admitted request's concurrency slot."""

    def __init__(self, controller: "AdmissionController", state: TenantState):
        self._controller = controller
        self.tenant = state
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release(self.tenant)

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class AdmissionController:
    """Admit or reject requests per tenant (rate + concurrency)."""

    def __init__(self, config: ServiceConfig, clock: Clock = time.monotonic):
        self._config = config
        self._clock = clock
        self._tenants: Dict[str, TenantState] = {}
        self._lock = threading.Lock()

    def tenant(self, name: str) -> TenantState:
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                state = TenantState(name, self._config.tenant(name),
                                    self._clock)
                self._tenants[name] = state
            return state

    def admit(self, tenant_name: str) -> AdmissionTicket:
        """Admit one request for ``tenant_name`` or raise.

        Raises :class:`~repro.errors.AdmissionRejected` with
        ``reason='rate'`` or ``'concurrency'``; the caller must release
        the returned ticket (use it as a context manager).
        """
        state = self.tenant(tenant_name)
        if _faults.ENABLED:
            try:
                _faults.fire("service.admission")
            except Exception as exc:  # noqa: BLE001 — injected faults
                state.counters.add("rejected_injected")
                raise AdmissionRejected(
                    f"admission rejected by injected fault: {exc}",
                    reason="injected", retry_after=0.1) from exc
        acquired, retry_after = state.bucket.try_acquire()
        if not acquired:
            state.counters.add("rejected_rate")
            raise AdmissionRejected(
                f"tenant {tenant_name!r} exceeded its query rate "
                f"({state.config.rate:g}/s, burst {state.config.burst})",
                reason="rate", retry_after=max(retry_after, 0.001))
        with self._lock:
            if state.in_flight >= state.config.max_concurrent:
                state.counters.add("rejected_concurrency")
                raise AdmissionRejected(
                    f"tenant {tenant_name!r} has "
                    f"{state.in_flight} queries in flight "
                    f"(quota {state.config.max_concurrent})",
                    reason="concurrency", retry_after=0.05)
            state.in_flight += 1
        state.counters.add("admitted")
        return AdmissionTicket(self, state)

    def _release(self, state: TenantState) -> None:
        with self._lock:
            state.in_flight = max(0, state.in_flight - 1)

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            tenants = dict(self._tenants)
        return {name: state.snapshot() for name, state in sorted(
            tenants.items())}
