"""Configuration for the multi-tenant query service (docs/SERVICE.md).

Everything the service tunes lives here as plain dataclasses so the CLI
(``repro serve``), the load generator's self-hosting mode and the tests
construct services the same way.  The engine's options are not
re-declared: :attr:`ServiceConfig.engine` *is* an
:class:`~repro.core.config.EngineConfig`, and a tenant quota is just a
cap on what a request may ask the engine for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.config import EngineConfig
from repro.errors import ServiceError


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant admission and budget limits.

    ``rate``/``burst`` parameterize the token bucket (sustained
    queries/second and instantaneous burst); ``max_concurrent`` caps
    in-flight queries.  ``max_timeout_seconds``/``max_segments`` bound
    what a request may ask for — a request above the cap is *clamped*,
    not rejected, so a misconfigured client degrades instead of
    failing.
    """

    rate: float = 50.0
    burst: int = 100
    max_concurrent: int = 16
    max_timeout_seconds: float = 30.0
    max_segments: Optional[int] = None

    # ``not value > 0`` rather than ``value <= 0``: NaN fails every
    # comparison, so only the negated form rejects it.
    def validate(self) -> None:
        if not self.rate > 0:
            raise ServiceError("tenant rate must be positive")
        if self.burst < 1:
            raise ServiceError("tenant burst must be >= 1")
        if self.max_concurrent < 1:
            raise ServiceError("tenant max_concurrent must be >= 1")
        if not self.max_timeout_seconds > 0:
            raise ServiceError("tenant max_timeout_seconds must be positive")
        if self.max_segments is not None and self.max_segments < 1:
            raise ServiceError("tenant max_segments must be >= 1")


@dataclass(frozen=True)
class RetryConfig:
    """Bounded retry with exponential backoff + deterministic jitter.

    Only *transient* failures are retried — :class:`WorkerCrashed`
    surfacing either as a raised exception or as per-series error
    records (docs/PARALLELISM.md).  Jitter is derived from ``seed`` and
    the per-request attempt counter, so a seeded chaos run replays the
    exact same backoff schedule.
    """

    max_attempts: int = 3
    base_delay_seconds: float = 0.05
    max_delay_seconds: float = 1.0
    jitter_ratio: float = 0.25
    seed: int = 0

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ServiceError("retry max_attempts must be >= 1")
        if not (self.base_delay_seconds >= 0
                and self.max_delay_seconds >= 0):
            raise ServiceError("retry delays must be non-negative")
        if not 0 <= self.jitter_ratio <= 1:
            raise ServiceError("retry jitter_ratio must be in [0, 1]")


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit breaker over the cost-planner → rule-planner fallback.

    The engine already falls back per query when the cost planner
    fails; the breaker makes that *service-wide*: once
    ``fallback_threshold`` planner fallbacks cluster within
    ``window_seconds``, every query is planned with the rule strategy
    directly for ``cooldown_seconds`` (skipping the doomed cost-planner
    attempt), then one probe query is allowed through (half-open) to
    decide whether to close again.
    """

    fallback_threshold: int = 3
    window_seconds: float = 10.0
    cooldown_seconds: float = 5.0

    def validate(self) -> None:
        if self.fallback_threshold < 1:
            raise ServiceError("breaker fallback_threshold must be >= 1")
        if not (self.window_seconds > 0 and self.cooldown_seconds > 0):
            raise ServiceError("breaker windows must be positive")


def default_engine() -> EngineConfig:
    """The service's engine unless configured otherwise.

    Pins ``executor='serial'`` (``TREX_EXECUTOR`` is *not* consulted):
    the service's parallelism is request-level, one engine per
    in-flight request.  Requests default to a 10 s deadline and keep
    what a failing series found (docs/SERVICE.md).
    """
    return EngineConfig(executor="serial", timeout_seconds=10.0,
                        on_error="partial")


@dataclass
class ServiceConfig:
    """Everything one :class:`~repro.service.app.QueryService` needs."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Synthetic datasets served by name (loaded once at startup);
    #: each entry is (dataset name, num_series, length).
    datasets: Tuple[Tuple[str, int, int], ...] = (
        ("sp500", 4, 120),
        ("weather", 4, 120),
    )
    #: The engine every request runs on, as given except for the four
    #: options a request carries: ``timeout_seconds`` and ``on_error``
    #: are the defaults for requests that do not send their own, while
    #: ``max_matches``/``max_segments`` are always replaced per request
    #: (body ``limit``; body or tenant ``max_segments``).
    engine: EngineConfig = field(default_factory=default_engine)
    #: Service concurrency: how many queries execute at once (each on
    #: its own thread so the asyncio loop stays responsive).
    workers: int = 4
    #: Bounded request queue; a full queue sheds with HTTP 503.
    queue_depth: int = 64
    default_tenant: TenantConfig = field(default_factory=TenantConfig)
    tenants: Dict[str, TenantConfig] = field(default_factory=dict)
    retry: RetryConfig = field(default_factory=RetryConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: How long graceful drain waits for in-flight queries on shutdown.
    drain_timeout_seconds: float = 30.0

    def validate(self) -> None:
        if self.workers < 1:
            raise ServiceError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ServiceError("queue_depth must be >= 1")
        if self.engine.timeout_seconds is None:
            raise ServiceError("engine.timeout_seconds (the default "
                               "request deadline) must be set")
        if not self.drain_timeout_seconds > 0:
            raise ServiceError("drain_timeout_seconds must be positive")
        self.default_tenant.validate()
        for tenant in self.tenants.values():
            tenant.validate()
        self.retry.validate()
        self.breaker.validate()

    def tenant(self, name: str) -> TenantConfig:
        """The limits for ``name`` (the default config if unknown)."""
        return self.tenants.get(name, self.default_tenant)

    def to_dict(self) -> dict:
        """JSON-ready summary for /stats and the BENCH artifact."""
        return {
            "host": self.host,
            "port": self.port,
            "datasets": [list(entry) for entry in self.datasets],
            "engine": self.engine.to_dict(),
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "default_tenant": {
                "rate": self.default_tenant.rate,
                "burst": self.default_tenant.burst,
                "max_concurrent": self.default_tenant.max_concurrent,
            },
            "retry": {
                "max_attempts": self.retry.max_attempts,
                "base_delay_seconds": self.retry.base_delay_seconds,
                "max_delay_seconds": self.retry.max_delay_seconds,
            },
            "breaker": {
                "fallback_threshold": self.breaker.fallback_threshold,
                "window_seconds": self.breaker.window_seconds,
                "cooldown_seconds": self.breaker.cooldown_seconds,
            },
        }
