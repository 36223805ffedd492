"""The multi-tenant query service: units + end-to-end over real HTTP.

Unit tests drive the admission/retry/breaker primitives with fake
clocks; the end-to-end tests run a real :class:`BackgroundService` on a
loopback port and speak HTTP to it, so framing, routing, admission,
queueing, execution and drain are all exercised together.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import TRexEngine
from repro.datasets import load
from repro.errors import AdmissionRejected, ServiceError, exit_code
from repro.queries import get_template
from repro.service import (AdmissionController, BackgroundService,
                           BreakerConfig, CircuitBreaker, LoadgenConfig,
                           RetryConfig, RetryPolicy, ServiceConfig,
                           TenantConfig, TokenBucket, check_report,
                           run_load)
from repro.service.retry import transient_series_errors


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_reject(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3, clock=clock)
        assert [bucket.try_acquire()[0] for _ in range(3)] == [True] * 3
        ok, retry_after = bucket.try_acquire()
        assert not ok
        assert retry_after == pytest.approx(1.0)

    def test_refill_is_lazy_and_capped(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.try_acquire()[0]
        assert bucket.try_acquire()[0]
        clock.advance(0.5)  # one token back at 2/s
        assert bucket.try_acquire()[0]
        assert not bucket.try_acquire()[0]
        clock.advance(100.0)  # refill caps at burst
        assert bucket.tokens == pytest.approx(2.0)

    def test_rejection_does_not_consume(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1, clock=clock)
        assert bucket.try_acquire()[0]
        for _ in range(5):
            bucket.try_acquire()
        clock.advance(1.0)
        assert bucket.try_acquire()[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


# ---------------------------------------------------------------------------
# Admission controller
# ---------------------------------------------------------------------------

def _controller(clock, **tenant_kwargs) -> AdmissionController:
    config = ServiceConfig(
        default_tenant=TenantConfig(**tenant_kwargs))
    return AdmissionController(config, clock=clock)


class TestAdmission:
    def test_rate_rejection_carries_retry_after(self):
        clock = FakeClock()
        controller = _controller(clock, rate=1.0, burst=1)
        controller.admit("t").release()
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit("t")
        assert excinfo.value.reason == "rate"
        assert excinfo.value.retry_after > 0
        assert exit_code(excinfo.value) == 11

    def test_concurrency_quota_and_release(self):
        clock = FakeClock()
        controller = _controller(clock, rate=1000.0, burst=1000,
                                 max_concurrent=2)
        first = controller.admit("t")
        controller.admit("t")
        with pytest.raises(AdmissionRejected) as excinfo:
            controller.admit("t")
        assert excinfo.value.reason == "concurrency"
        first.release()
        first.release()  # idempotent
        controller.admit("t")  # slot freed exactly once

    def test_tenants_are_isolated(self):
        clock = FakeClock()
        controller = _controller(clock, rate=1.0, burst=1)
        controller.admit("a").release()
        controller.admit("b").release()  # b has its own bucket
        snapshot = controller.snapshot()
        assert snapshot["a"]["admitted"] == 1
        assert snapshot["b"]["admitted"] == 1

    def test_ticket_as_context_manager(self):
        clock = FakeClock()
        controller = _controller(clock, max_concurrent=1)
        with controller.admit("t"):
            pass
        with controller.admit("t"):
            pass


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_deterministic_and_bounded(self):
        policy = RetryPolicy(RetryConfig(max_attempts=4,
                                         base_delay_seconds=0.1,
                                         max_delay_seconds=0.3,
                                         jitter_ratio=0.25, seed=1))
        first = policy.delays(request_id=7)
        assert first == policy.delays(request_id=7)
        assert len(first) == 3
        for index, delay in enumerate(first):
            base = min(0.3, 0.1 * 2 ** index)
            assert base * 0.75 <= delay <= base * 1.25

    def test_distinct_requests_decorrelate(self):
        policy = RetryPolicy(RetryConfig(max_attempts=3))
        assert policy.delays(1) != policy.delays(2)

    def test_single_attempt_means_no_delays(self):
        policy = RetryPolicy(RetryConfig(max_attempts=1))
        assert policy.delays(1) == []


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def _breaker(self, clock, threshold=3, window=10.0, cooldown=5.0):
        return CircuitBreaker(
            BreakerConfig(fallback_threshold=threshold,
                          window_seconds=window,
                          cooldown_seconds=cooldown),
            fallback_planner="pr_left", clock=clock)

    def test_trips_after_clustered_fallbacks(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(2):
            breaker.record_fallback()
        assert breaker.state == "closed"
        breaker.record_fallback()
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert breaker.planner_override() == "pr_left"

    def test_window_expiry_prevents_trip(self):
        clock = FakeClock()
        breaker = self._breaker(clock, threshold=2, window=1.0)
        breaker.record_fallback()
        clock.advance(2.0)  # first fallback ages out of the window
        breaker.record_fallback()
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = self._breaker(clock, threshold=1, cooldown=5.0)
        breaker.record_fallback()
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.state == "half-open"
        # Exactly one probe gets the cost planner; others stay on rules.
        assert breaker.planner_override() is None
        assert breaker.planner_override() == "pr_left"
        breaker.record_success(used_cost_planner=True)
        assert breaker.state == "closed"

    def test_half_open_reopens_on_fallback(self):
        clock = FakeClock()
        breaker = self._breaker(clock, threshold=1, cooldown=1.0)
        breaker.record_fallback()
        clock.advance(1.0)
        assert breaker.planner_override() is None  # probe
        breaker.record_fallback()
        assert breaker.state == "open"
        assert breaker.trips == 2


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

class TestServiceConfig:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"queue_depth": 0},
        {"engine": EngineConfig(timeout_seconds=None)},
        {"default_tenant": TenantConfig(rate=-1)},
        {"retry": RetryConfig(max_attempts=0)},
        {"breaker": BreakerConfig(fallback_threshold=0)},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ServiceError):
            ServiceConfig(**kwargs).validate()

    def test_unknown_tenant_gets_default(self):
        config = ServiceConfig(
            tenants={"vip": TenantConfig(rate=999.0)})
        assert config.tenant("vip").rate == 999.0
        assert config.tenant("anon").rate == config.default_tenant.rate


# ---------------------------------------------------------------------------
# End-to-end over real HTTP
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def service():
    config = ServiceConfig(port=0, datasets=(("sp500", 3, 80),),
                           workers=2, queue_depth=8)
    with BackgroundService(config) as live:
        yield live


@pytest.fixture(scope="module")
def client(service):
    return service.client()


class TestServiceEndToEnd:
    def test_health_and_ready(self, client):
        status, body = client.get("/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body = client.get("/readyz")
        assert status == 200 and body["ready"] is True

    def test_unknown_route_is_404(self, client):
        status, body = client.get("/nope")
        assert status == 404
        assert body["error"]["type"] == "NotFound"

    def test_query_matches_direct_engine(self, client):
        template = get_template("v_shape")
        params = template.param_sets()[0]
        status, body = client.post("/query", {"template": "v_shape",
                                              "params": params})
        assert status == 200
        table = load("sp500", num_series=3, length=80)
        query = template.compile(params)
        engine = TRexEngine(optimizer="cost", on_error="partial")
        expected = engine.execute_query(
            query, table.partition(query.partition_by, query.order_by))
        served = {key: [tuple(span) for span in spans]
                  for key, spans in body["matches"].items()}
        direct = {"/".join(str(part) for part in entry.key) or "-":
                  list(entry.matches)
                  for entry in expected.per_series}
        assert served == direct
        assert body["total_matches"] == expected.total_matches

    def test_plan_cache_shared_across_requests(self, client):
        payload = {"template": "head_shldr"}
        status, first = client.post("/query", payload)
        assert status == 200
        status, second = client.post("/query", payload)
        assert status == 200
        assert second["plan_cache"]["plan"] == "hit"
        status, stats = client.get("/stats")
        assert stats["plan_cache"]["plan_hits"] >= 1
        assert stats["plan_cache"]["compile_hits"] >= 1

    def test_malformed_json_is_structured_400(self, client):
        import socket as socketlib
        host, port = client.host, client.port
        raw = (b"POST /query HTTP/1.1\r\nHost: x\r\n"
               b"Content-Length: 9\r\nConnection: close\r\n\r\nnot json!")
        with socketlib.create_connection((host, port), timeout=10) as sock:
            sock.sendall(raw)
            data = sock.recv(65536)
        assert b"400" in data.split(b"\r\n", 1)[0]
        assert b"HttpProtocolError" in data

    def test_unknown_dataset_is_structured_400(self, client):
        status, body = client.post(
            "/query", {"dataset": "missing", "query": "x"})
        assert status == 400
        assert body["error"]["kind"] == "service"
        assert body["error"]["exit_code"] == 13

    def test_bad_query_is_bind_error(self, client):
        status, body = client.post(
            "/query", {"dataset": "sp500", "template": "v_shape",
                       "params": {"down_r2_max": "oops"}})
        assert status in (400, 422)
        assert body["error"]["kind"] in ("bind", "plan")

    def test_stats_counters_balance(self, client):
        status, stats = client.get("/stats")
        assert status == 200
        counters = stats["service"]["counters"]
        settled = counters.get("completed", 0) + counters.get("failed", 0)
        assert counters["requests"] == settled
        assert stats["breaker"]["state"] == "closed"

    def test_request_knob_validation(self, client):
        for payload in ({"template": "v_shape", "timeout_seconds": -1},
                        {"template": "v_shape", "on_error": "explode"},
                        {"template": "v_shape", "limit": 0},
                        {"template": "v_shape", "params": [1, 2]}):
            status, body = client.post("/query", payload)
            assert status == 400
            assert body["error"]["kind"] == "service"
            # The message names the key the client sent.
            assert list(payload)[1] in body["error"]["message"]
            assert "max_matches" not in body["error"]["message"]


class TestAdmissionOverHttp:
    def test_rate_limit_yields_429_with_retry_after(self):
        config = ServiceConfig(
            port=0, datasets=(("sp500", 2, 40),),
            default_tenant=TenantConfig(rate=0.001, burst=1))
        with BackgroundService(config) as live:
            client = live.client()
            status, _, _ = client.request(
                "POST", "/query", {"template": "v_shape"})
            assert status == 200
            status, body, headers = client.request(
                "POST", "/query", {"template": "v_shape"})
            assert status == 429
            assert body["error"]["type"] == "AdmissionRejected"
            assert body["error"]["exit_code"] == 11
            assert float(headers["retry-after"]) > 0
            stats = live.service.stats()
            assert stats["tenants"]["default"]["rejected_rate"] == 1

    def test_concurrency_quota_over_http(self):
        config = ServiceConfig(
            port=0, datasets=(("sp500", 2, 40),), workers=1,
            default_tenant=TenantConfig(rate=1000.0, burst=1000,
                                        max_concurrent=1))
        with BackgroundService(config) as live:
            client = live.client()
            results = []

            def one():
                results.append(client.post(
                    "/query", {"template": "v_shape"})[0])

            threads = [threading.Thread(target=one) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert 200 in results
            assert 429 in results  # the quota held under contention


class TestLoadShedding:
    def test_full_queue_sheds_with_503(self):
        # One worker, a one-slot queue and slow-ish queries: a burst
        # must shed deterministically rather than queue without bound.
        config = ServiceConfig(port=0, datasets=(("sp500", 3, 120),),
                               workers=1, queue_depth=1)
        with BackgroundService(config) as live:
            client = live.client()
            statuses = []

            def one():
                statuses.append(client.post(
                    "/query", {"template": "v_shape"})[0])

            threads = [threading.Thread(target=one) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert 200 in statuses
            assert 503 in statuses
            stats = live.service.stats()
            counters = stats["service"]["counters"]
            shed = counters.get("shed_queue_full", 0) + \
                counters.get("shed_deadline", 0)
            assert shed >= 1
            assert stats["service"]["shed_rate"] > 0


class TestGracefulDrain:
    def test_drain_settles_all_admitted_queries(self):
        config = ServiceConfig(port=0, datasets=(("sp500", 3, 100),),
                               workers=2, queue_depth=16)
        live = BackgroundService(config).start()
        client = live.client()
        statuses = []

        def one():
            statuses.append(client.post(
                "/query", {"template": "v_shape"})[0])

        threads = [threading.Thread(target=one) for _ in range(6)]
        for thread in threads:
            thread.start()
        live.stop()  # drain races the in-flight queries
        for thread in threads:
            thread.join()
        # Every request either settled with a real response (admitted
        # work is never dropped) or was rejected *before* admission
        # with a structured 503 — drain loses nothing it accepted.
        assert statuses and all(code in (200, 503) for code in statuses)
        counters = live.service.stats()["service"]["counters"]
        admitted = counters.get("admitted", 0)
        assert counters.get("completed", 0) >= admitted - \
            counters.get("failed", 0)
        assert counters["requests"] == counters.get("completed", 0) + \
            counters.get("failed", 0)

    def test_readyz_flips_during_drain(self):
        config = ServiceConfig(port=0, datasets=(("sp500", 2, 40),))
        live = BackgroundService(config).start()
        client = live.client()
        assert client.get("/readyz")[0] == 200
        live.stop()
        assert live.service.draining


class TestLoadgen:
    def test_clean_burst_report(self):
        config = ServiceConfig(port=0, datasets=(("sp500", 2, 60),),
                               workers=2)
        with BackgroundService(config) as live:
            host, port = live.address
            report = run_load(LoadgenConfig(
                host=host, port=port, clients=4, requests_per_client=2,
                templates=("v_shape",), seed=3))
        assert report.requests == 8
        assert report.ok == 8
        assert report.unstructured_errors == 0
        assert report.latency["p50_seconds"] > 0
        assert check_report(report) == []

    def test_check_flags_unstructured(self):
        from repro.service.loadgen import LoadReport
        bad = LoadReport(config={}, requests=4, ok=3,
                         errors_by_family={"ok": 3, "unstructured": 1},
                         unstructured_errors=1, shed=0, shed_rate=0.0,
                         retried_requests=0, total_attempts=4,
                         latency={}, wall_seconds=1.0,
                         throughput_rps=4.0)
        problems = check_report(bad)
        assert any("non-structured" in p for p in problems)


def test_transient_series_error_detection():
    from repro.core.result import QueryResult, SeriesError, SeriesMatches
    result = QueryResult()
    result.per_series.append(SeriesMatches(("a",), []))
    result.per_series.append(SeriesMatches(
        ("b",), [], error=SeriesError(
            key=("b",), error="WorkerCrashed", message="pool died",
            kind="execution")))
    assert transient_series_errors(result) == ["pool died"]
