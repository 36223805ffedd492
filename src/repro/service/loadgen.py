"""Chaos-load harness: drive the query service with a mixed workload.

Runs ``clients`` concurrent keep-alive connections, each issuing a
deterministic (seeded) stream of template queries across tenants, and
reports shed rate, retries and a structured error-family breakdown.
:func:`run_self_hosted` self-hosts a
:class:`~repro.service.harness.BackgroundService`, optionally with
``TREX_FAULTS`` set, so the whole resilience stack (admission,
shedding, retry, breaker, drain) is exercised in one process.
Latency and throughput are trex_bench's job (its ``serve_closed``
workload), not this harness's.

The report (``CHAOS_service_load.json``) is a gate:
:func:`check_report` checks that every failure is a *structured* error
family, the books balance (``requests == completed + failed``), and
under fault injection retried transients actually settle.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.service.http import HttpClient

#: Default template mix — only templates whose datasets the default
#: service config serves (sp500, weather).
DEFAULT_TEMPLATES = ("v_shape", "head_shldr", "outlier", "cld_wave",
                     "limit_sell")
DEFAULT_TENANTS = ("alpha", "beta")


@dataclass
class LoadgenConfig:
    """Workload shape for one load-generation run."""

    host: str = "127.0.0.1"
    port: int = 8080
    clients: int = 8
    requests_per_client: int = 25
    templates: Tuple[str, ...] = DEFAULT_TEMPLATES
    tenants: Tuple[str, ...] = DEFAULT_TENANTS
    timeout_seconds: float = 10.0
    on_error: str = "partial"
    limit: Optional[int] = 200
    seed: int = 0


@dataclass
class _Observation:
    """One request/response pair as the client saw it."""

    family: str  # "ok", an error kind, or "unstructured"
    attempts: int = 1
    retried: bool = False


@dataclass
class LoadReport:
    """Aggregated run outcome (serialized to CHAOS_service_load.json)."""

    config: dict
    requests: int
    ok: int
    errors_by_family: Dict[str, int]
    unstructured_errors: int
    shed: int
    shed_rate: float
    retried_requests: int
    total_attempts: int
    stats: Optional[dict] = None
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "requests": self.requests,
            "ok": self.ok,
            "errors_by_family": dict(sorted(
                self.errors_by_family.items())),
            "unstructured_errors": self.unstructured_errors,
            "shed": self.shed,
            "shed_rate": round(self.shed_rate, 4),
            "retried_requests": self.retried_requests,
            "total_attempts": self.total_attempts,
            "stats": self.stats,
            "notes": self.notes,
        }


def _classify(status: int, body: dict) -> str:
    """Map one response to a family: ok / structured kind / unstructured."""
    if status == 200:
        return "ok"
    error = body.get("error")
    if isinstance(error, dict) and error.get("kind") and error.get("type"):
        return str(error["kind"])
    return "unstructured"


async def _client_loop(config: LoadgenConfig, index: int,
                       observations: List[_Observation]) -> None:
    rng = random.Random(f"{config.seed}:{index}")
    client = HttpClient(config.host, config.port)
    try:
        for _ in range(config.requests_per_client):
            template = rng.choice(config.templates)
            tenant = config.tenants[index % len(config.tenants)]
            payload = {
                "tenant": tenant,
                "template": template,
                "timeout_seconds": config.timeout_seconds,
                "on_error": config.on_error,
            }
            if config.limit is not None:
                payload["limit"] = config.limit
            try:
                status, body, _headers = await client.request(
                    "POST", "/query", payload)
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError) as exc:
                observations.append(_Observation(
                    f"transport:{type(exc).__name__}"))
                continue
            meta = body.get("meta") or {}
            observations.append(_Observation(
                _classify(status, body),
                attempts=int(meta.get("attempts", 1)),
                retried=bool(meta.get("retried", False))))
    finally:
        await client.close()


async def _run_async(config: LoadgenConfig) \
        -> Tuple[List[_Observation], Optional[dict]]:
    observations: List[_Observation] = []
    await asyncio.gather(*(
        _client_loop(config, index, observations)
        for index in range(config.clients)))
    stats_client = HttpClient(config.host, config.port)
    try:
        _status, stats, _headers = await stats_client.request(
            "GET", "/stats")
    except (ConnectionError, OSError):
        stats = None
    finally:
        await stats_client.close()
    return observations, stats


def run_load(config: LoadgenConfig) -> LoadReport:
    """Run the workload against a live service and aggregate."""
    observations, stats = asyncio.run(_run_async(config))
    families: Dict[str, int] = {}
    for obs in observations:
        families[obs.family] = families.get(obs.family, 0) + 1
    ok = families.get("ok", 0)
    unstructured = sum(count for family, count in families.items()
                       if family == "unstructured"
                       or family.startswith("transport:"))
    shed = families.get("overload", 0) + families.get("service", 0)
    requests = len(observations)
    return LoadReport(
        config={
            "clients": config.clients,
            "requests_per_client": config.requests_per_client,
            "templates": list(config.templates),
            "tenants": list(config.tenants),
            "timeout_seconds": config.timeout_seconds,
            "on_error": config.on_error,
            "limit": config.limit,
            "seed": config.seed,
        },
        requests=requests,
        ok=ok,
        errors_by_family=families,
        unstructured_errors=unstructured,
        shed=shed,
        shed_rate=(shed / requests) if requests else 0.0,
        retried_requests=sum(1 for o in observations if o.retried),
        total_attempts=sum(o.attempts for o in observations),
        stats=stats,
    )


def run_self_hosted(config: LoadgenConfig, service_config=None,
                    faults: Optional[str] = None) -> LoadReport:
    """Spin up a BackgroundService, drive it, drain it, report.

    ``faults`` optionally sets ``TREX_FAULTS`` for the run (restored
    afterwards) so chaos load tests are one call.
    """
    import os

    from repro.service.config import ServiceConfig
    from repro.service.harness import BackgroundService
    from repro.testing import faults as _faults

    service_config = service_config or ServiceConfig(
        port=0, datasets=(("sp500", 4, 120), ("weather", 4, 120)))
    previous = os.environ.get("TREX_FAULTS")
    try:
        if faults is not None:
            os.environ["TREX_FAULTS"] = faults
            _faults.disarm_all()
            _faults.install_from_env()
        with BackgroundService(service_config) as service:
            host, port = service.address
            run_config = LoadgenConfig(**{
                **config.__dict__, "host": host, "port": port})
            report = run_load(run_config)
            report.notes.append(f"self-hosted at {service.url}"
                                + (f" with TREX_FAULTS={faults!r}"
                                   if faults else ""))
        # The service has drained; the /stats snapshot taken over HTTP
        # predates the drain, so fold the final counters in.
        report.stats = service.service.stats()
        return report
    finally:
        if faults is not None:
            if previous is None:
                os.environ.pop("TREX_FAULTS", None)
            else:
                os.environ["TREX_FAULTS"] = previous
            _faults.disarm_all()
            _faults.install_from_env()


def check_report(report: LoadReport,
                 expect_retries: bool = False) -> List[str]:
    """The CI gate: empty list means the run is acceptable."""
    problems: List[str] = []
    if report.requests == 0:
        problems.append("no requests were issued")
    if report.unstructured_errors:
        problems.append(f"{report.unstructured_errors} non-structured "
                        f"errors (transport failures or bodies without "
                        f"an error family)")
    if report.ok == 0:
        problems.append("no request succeeded")
    if expect_retries and report.retried_requests == 0 \
            and report.total_attempts <= report.requests:
        problems.append("fault injection was on but no request was "
                        "retried")
    stats = report.stats or {}
    counters = (stats.get("service") or {}).get("counters") or {}
    if counters:
        requests = counters.get("requests", 0)
        settled = counters.get("completed", 0) + counters.get("failed", 0)
        if requests != settled:
            problems.append(f"counter books do not balance: "
                            f"requests={requests} != completed+failed="
                            f"{settled}")
    return problems
