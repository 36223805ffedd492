"""Chaos behaviour of the service + the satellite robustness paths.

Covers the fault-injected service flows (worker-crash-then-retry,
admission faults, breaker trips under planner fault storms, a small
in-process chaos-load burst), the hardened CSV loader, and the CLI
KeyboardInterrupt contract (exit code 130 with settled partial
results).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import TRexEngine
from repro.datasets.loader import load_csv
from repro.errors import EXIT_INTERRUPTED, DataError
from repro.lang.query import compile_query
from repro.service import (BackgroundService, BreakerConfig, LoadgenConfig,
                           RetryConfig, ServiceConfig, check_report,
                           run_self_hosted)
from repro.testing import faults
from repro.timeseries.table import Table


@pytest.fixture(autouse=True)
def clean_faults():
    faults.disarm_all()
    yield
    faults.disarm_all()


def _service_config(**kwargs) -> ServiceConfig:
    defaults = dict(port=0, datasets=(("sp500", 3, 80),), workers=2)
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


# ---------------------------------------------------------------------------
# Transient worker crashes: retried, byte-identical
# ---------------------------------------------------------------------------

class TestWorkerCrashRetry:
    def test_retry_succeeds_byte_identically(self):
        with BackgroundService(_service_config()) as live:
            _, clean = live.client().post(
                "/query", {"template": "v_shape"})
        faults.install_from_env("service.worker:worker*1")
        with BackgroundService(_service_config()) as live:
            status, crashed = live.client().post(
                "/query", {"template": "v_shape"})
            stats = live.service.stats()
        assert status == 200
        assert crashed["meta"]["attempts"] == 2
        assert crashed["meta"]["retried"] is True
        assert crashed["matches"] == clean["matches"]
        assert crashed["total_matches"] == clean["total_matches"]
        counters = stats["service"]["counters"]
        assert counters["retries"] == 1
        assert counters["retry_success"] == 1

    def test_exhausted_retries_surface_structured(self):
        # Every attempt crashes: the final response is still a
        # structured execution error, not a hung or dropped request.
        faults.install_from_env("service.worker:worker")
        config = _service_config(retry=RetryConfig(
            max_attempts=2, base_delay_seconds=0.01))
        with BackgroundService(config) as live:
            status, body = live.client().post(
                "/query", {"template": "v_shape"})
            stats = live.service.stats()
        assert status == 500
        assert body["error"]["type"] == "WorkerCrashed"
        assert body["error"]["kind"] == "execution"
        assert stats["service"]["counters"]["retry_exhausted"] == 1

    def test_retry_counts_against_deadline(self):
        # The per-request deadline spans all attempts: a crash-looped
        # request with a tiny deadline times out instead of spinning.
        faults.install_from_env("service.worker:worker")
        config = _service_config(retry=RetryConfig(
            max_attempts=3, base_delay_seconds=0.2))
        with BackgroundService(config) as live:
            status, body = live.client().post(
                "/query", {"template": "v_shape",
                           "timeout_seconds": 0.05})
        assert status in (408, 500)
        assert body["error"]["kind"] in ("timeout", "execution")


class TestAdmissionFault:
    def test_injected_admission_fault_is_structured_429(self):
        faults.install_from_env("service.admission:raise@1*2")
        with BackgroundService(_service_config()) as live:
            client = live.client()
            first = client.post("/query", {"template": "v_shape"})
            second = client.post("/query", {"template": "v_shape"})
            third = client.post("/query", {"template": "v_shape"})
            stats = live.service.stats()
        assert first[0] == 429 and second[0] == 429
        assert first[1]["error"]["type"] == "AdmissionRejected"
        assert third[0] == 200  # *2 cap: fault clears, service recovers
        assert stats["tenants"]["default"]["rejected_injected"] == 2


class TestBreakerUnderPlannerStorm:
    def test_planner_fault_storm_trips_breaker(self):
        faults.install_from_env("planner.dp:raise")
        config = _service_config(breaker=BreakerConfig(
            fallback_threshold=3, window_seconds=60.0,
            cooldown_seconds=60.0))
        with BackgroundService(config) as live:
            client = live.client()
            responses = [client.post("/query", {"template": "v_shape",
                                                "params": {}})
                         for _ in range(5)]
            stats = live.service.stats()
        assert all(status == 200 for status, _ in responses)
        assert stats["breaker"]["state"] == "open"
        assert stats["breaker"]["trips"] == 1
        assert stats["breaker"]["forced_planner"] == "pr_left"
        assert stats["service"]["counters"]["breaker_trips"] == 1
        # Once open, queries plan directly with the rule strategy and
        # stop reporting fallbacks.
        late = [body["meta"]["planner"] for _, body in responses[-2:]]
        assert late == ["pr_left", "pr_left"]


class TestChaosLoadBurst:
    def test_fault_injected_burst_has_only_structured_errors(self):
        report = run_self_hosted(
            LoadgenConfig(clients=8, requests_per_client=3,
                          templates=("v_shape",), seed=11),
            faults="service.worker:worker@3*2")
        assert report.requests == 24
        assert report.unstructured_errors == 0
        assert report.retried_requests >= 1
        assert check_report(report, expect_retries=True) == []
        counters = report.stats["service"]["counters"]
        assert counters["requests"] == counters.get("completed", 0) + \
            counters.get("failed", 0)


# ---------------------------------------------------------------------------
# Satellite: hardened CSV loader
# ---------------------------------------------------------------------------

class TestLoaderHardening:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return str(path)

    def test_mixed_column_reports_file_and_row(self, tmp_path):
        path = self._write(tmp_path,
                           "tstamp,ticker,price\n"
                           "1,A,10\n2,A,oops\n3,A,12\n")
        with pytest.raises(DataError) as excinfo:
            load_csv(path)
        message = str(excinfo.value)
        assert f"{path}:3" in message
        assert "price" in message and "oops" in message
        assert excinfo.value.row == 3
        assert excinfo.value.source == path

    def test_ragged_row_too_few_cells(self, tmp_path):
        path = self._write(tmp_path, "a,b,c\n1,2,3\n4,5\n")
        with pytest.raises(DataError, match=r"expected 3 cells, got 2"):
            load_csv(path)

    def test_ragged_row_too_many_cells(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n3,4,5\n")
        with pytest.raises(DataError, match=r"expected 2 cells, got 3"):
            load_csv(path)

    def test_duplicate_timestamp_with_grouping(self, tmp_path):
        path = self._write(tmp_path,
                           "tstamp,ticker,price\n"
                           "1,A,10\n2,A,11\n2,A,12\n")
        with pytest.raises(DataError) as excinfo:
            load_csv(path, time_column="tstamp", group_by=["ticker"])
        assert "duplicate timestamp" in str(excinfo.value)
        assert excinfo.value.row == 4

    def test_non_monotonic_timestamp(self, tmp_path):
        path = self._write(tmp_path,
                           "tstamp,ticker,price\n"
                           "5,A,10\n3,A,11\n")
        with pytest.raises(DataError) as excinfo:
            load_csv(path, time_column="tstamp", group_by=["ticker"])
        assert "non-monotonic" in str(excinfo.value)

    def test_duplicates_across_groups_are_fine(self, tmp_path):
        path = self._write(tmp_path,
                           "tstamp,ticker,price\n"
                           "1,A,10\n2,A,11\n1,B,5\n2,B,6\n")
        table = load_csv(path, time_column="tstamp", group_by=["ticker"])
        assert len(table.partition(["ticker"], "tstamp")) == 2

    def test_missing_timestamp_cell(self, tmp_path):
        path = self._write(tmp_path,
                           "tstamp,ticker,price\n"
                           "1,A,10\n,A,11\n")
        with pytest.raises(DataError) as excinfo:
            load_csv(path, time_column="tstamp", group_by=["ticker"])
        assert "missing" in str(excinfo.value).lower()

    def test_empty_numeric_cells_stay_nan(self, tmp_path):
        path = self._write(tmp_path,
                           "tstamp,ticker,price\n"
                           "1,A,10\n2,A,\n3,A,12\n")
        table = load_csv(path)
        price = table.column("price")
        assert np.isnan(price[1])
        assert price[0] == 10.0

    def test_clean_csv_still_loads(self, tmp_path):
        path = self._write(tmp_path,
                           "tstamp,ticker,price\n"
                           "1,A,10\n2,A,11\n3,A,12\n")
        table = load_csv(path, time_column="tstamp", group_by=["ticker"])
        assert len(table.column("price")) == 3


# ---------------------------------------------------------------------------
# Satellite: KeyboardInterrupt settlement + exit code 130
# ---------------------------------------------------------------------------

QUERY = ("PARTITION BY t ORDER BY ts PATTERN (DN UP) & WIN DEFINE "
         "SEGMENT DN AS last(DN.v) < first(DN.v), "
         "SEGMENT UP AS last(UP.v) > first(UP.v), "
         "SEGMENT WIN AS window(2, 6)")


def _two_series_table() -> Table:
    return Table({
        "ts": np.array(list(range(10)) * 2, dtype=float),
        "t": np.array(["A"] * 10 + ["B"] * 10),
        "v": np.array([10, 12, 11, 9, 8, 10, 12, 13, 11, 10] * 2,
                      dtype=float),
    })


def _arm_interrupt(on_hit: int) -> None:
    def boom(value):
        raise KeyboardInterrupt
    faults.arm(faults.FaultSpec(point="data.series", action="corrupt",
                                on_hit=on_hit, corrupt=boom))


class TestKeyboardInterrupt:
    @pytest.fixture(autouse=True)
    def serial_executor(self, monkeypatch):
        # The armed interrupt is process-local and its ``@N`` hit count
        # indexes the serial firing order; "completed series keep their
        # matches" is the serial-only guarantee (a SIGINT under a pool
        # backend settles with no completed series, docs/PARALLELISM.md).
        monkeypatch.delenv("TREX_EXECUTOR", raising=False)

    def test_engine_settles_partial_on_interrupt(self):
        query = compile_query(QUERY)
        table = _two_series_table()
        clean = TRexEngine(on_error="partial").execute_query(
            query, table.partition(query.partition_by, query.order_by))
        _arm_interrupt(on_hit=2)
        result = TRexEngine(on_error="partial").execute_query(
            query, table.partition(query.partition_by, query.order_by))
        assert result.interrupted
        assert "KeyboardInterrupt" in result.degradation
        # Every series has a settled (possibly empty) entry, and the
        # settled prefix matches the clean run exactly.
        assert len(result.per_series) == len(clean.per_series)
        assert result.per_series[0].matches == clean.per_series[0].matches
        assert result.total_matches <= clean.total_matches

    def test_engine_reraises_under_raise_policy(self):
        query = compile_query(QUERY)
        table = _two_series_table()
        _arm_interrupt(on_hit=1)
        with pytest.raises(KeyboardInterrupt):
            TRexEngine(on_error="raise").execute_query(
                query, table.partition(query.partition_by,
                                       query.order_by))

    def test_cli_exits_130_with_partial_output(self, tmp_path, capsys):
        from repro.cli import main
        csv_path = tmp_path / "prices.csv"
        csv_path.write_text("ts,t,v\n" + "".join(
            f"{i},{t},{v}\n" for t in ("A", "B")
            for i, v in enumerate([10, 12, 11, 9, 8, 10, 12, 13])))
        _arm_interrupt(on_hit=2)
        code = main(["query", "--csv", str(csv_path), "--query", QUERY,
                     "--on-error", "partial"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERRUPTED == 130
        assert "interrupted: KeyboardInterrupt" in captured.err
        assert "matches over" in captured.out  # summary still printed

    def test_cli_exits_130_when_interrupt_escapes(self, tmp_path, capsys):
        from repro.cli import main
        csv_path = tmp_path / "prices.csv"
        csv_path.write_text("ts,t,v\n" + "".join(
            f"{i},A,{v}\n"
            for i, v in enumerate([10, 12, 11, 9, 8, 10])))
        _arm_interrupt(on_hit=1)
        code = main(["query", "--csv", str(csv_path), "--query", QUERY,
                     "--on-error", "raise"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERRUPTED
        assert "interrupted (SIGINT)" in captured.err
