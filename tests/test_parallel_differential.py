"""Determinism harness: the process backend must equal serial, always.

The pool executor (docs/PARALLELISM.md) promises a *byte-identical*
``QueryResult``: same matches per series, same truncation under global
budgets, same error records, same interruption point.  This suite pins
that promise with a template × backend × worker-count sweep, budget
boundary cases, analyze-mode metric equality and a hypothesis fuzz over
random workloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig, default_workers
from repro.core.engine import TRexEngine
from repro.core.parallel import reset_pools
from repro.errors import PlanError
from repro.lang.query import compile_query

from tests.conftest import make_series
from tests.test_differential import QUERY_BANK

EXECUTORS = ("process",)
WORKER_COUNTS = (1, 2, 4)

#: A representative subset of the differential bank: one query per
#: operator family (the full bank runs under every backend in the CI
#: ``TREX_EXECUTOR`` matrix legs).
SWEEP_QUERIES = ("v_shape", "not", "kleene", "or", "point_kleene")


@pytest.fixture(autouse=True)
def no_executor_env(monkeypatch):
    # The sweep compares explicit executors; the surrounding environment
    # (e.g. a CI matrix leg) must not redefine what "serial" means.
    monkeypatch.delenv("TREX_EXECUTOR", raising=False)
    monkeypatch.delenv("TREX_WORKERS", raising=False)


def workload(num_series=8, n=26, seed=100):
    return [make_series(
        np.cumsum(np.random.default_rng(seed + i).normal(0, 1.2, n)) + 50,
        key=(f"s{i}",)) for i in range(num_series)]


def signature(result):
    """Everything observable about a result except wall-clock times."""
    return {
        "per_series": [
            (entry.key, tuple(entry.matches), dict(entry.stats),
             entry.error.to_dict() if entry.error is not None else None)
            for entry in result.per_series
        ],
        "interrupted": result.interrupted,
        "degradation": result.degradation,
        "planner_fallback": result.planner_fallback,
    }


def run(query_text, series_list, **engine_kwargs):
    engine = TRexEngine(**engine_kwargs)
    return engine.execute_query(compile_query(query_text), series_list)


class TestBackendEqualsSerial:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("name", SWEEP_QUERIES)
    def test_clean_run_identical(self, name, executor, workers):
        series_list = workload()
        expected = signature(run(QUERY_BANK[name], series_list))
        got = signature(run(QUERY_BANK[name], series_list,
                            executor=executor, workers=workers))
        assert got == expected

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("max_matches", (1, 5, 23, 1000))
    def test_global_match_limit_truncates_identically(self, executor,
                                                      max_matches):
        series_list = workload()
        expected = signature(run(QUERY_BANK["kleene"], series_list,
                                 max_matches=max_matches))
        got = signature(run(QUERY_BANK["kleene"], series_list,
                            executor=executor, workers=4,
                            max_matches=max_matches))
        assert got == expected

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize(
        "max_segments, boundary",
        ((5, 0), (60, 0), (140, 0), (600, 3), (1300, 7), (100_000, None)))
    def test_global_segment_budget_identical(self, executor, max_segments,
                                             boundary):
        # The budget boundary falls on the first series (the full budget
        # *is* the exact remainder, so a pool outcome may stand), mid-way,
        # on the last series (every earlier pool outcome accepted, only
        # the last re-run) or nowhere.  Every backend must interrupt at
        # the same series with the same partial harvest, degradation text
        # and SeriesError as the serial walk.
        series_list = workload()
        serial = run(QUERY_BANK["kleene"], series_list,
                     max_segments=max_segments, on_error="partial")
        assert serial.interrupted == (boundary is not None)
        assert [index for index, entry in enumerate(serial.per_series)
                if entry.error is not None] == \
            ([] if boundary is None else [boundary])
        got = run(QUERY_BANK["kleene"], series_list, executor=executor,
                  workers=4, max_segments=max_segments, on_error="partial")
        assert signature(got) == signature(serial)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_empty_series_and_tables(self, executor):
        series_list = [make_series([], key=("empty",)),
                       *workload(num_series=2)]
        expected = signature(run(QUERY_BANK["or"], series_list))
        got = signature(run(QUERY_BANK["or"], series_list,
                            executor=executor, workers=2))
        assert got == expected
        empty = run(QUERY_BANK["or"], [make_series([], key=("e",))],
                    executor=executor)
        assert [len(e) for e in empty.per_series] == [0]


class TestAnalyzeMode:
    def metric_signature(self, result):
        # op_id values are plan-instance-specific (a global counter at
        # construction); compare positionally within to_list() order.
        return [(m["operator"], m["eval_calls"], m["segments_in"],
                 m["segments_out"], m.get("counters"))
                for m in result.op_metrics.to_list()]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_op_metrics_identical(self, executor):
        series_list = workload()
        serial = run(QUERY_BANK["v_shape"], series_list, analyze=True)
        parallel = run(QUERY_BANK["v_shape"], series_list, analyze=True,
                       executor=executor, workers=4)
        assert self.metric_signature(parallel) == \
            self.metric_signature(serial)
        assert parallel.plan_analyze

    def test_wall_seconds_reported(self):
        series_list = workload()
        serial = run(QUERY_BANK["or"], series_list)
        # Serially the wall clock covers exactly the per-series loop, so
        # the two accountings agree up to loop overhead.
        assert serial.execution_wall_seconds >= serial.execution_seconds
        assert serial.execution_wall_seconds == pytest.approx(
            serial.execution_seconds, abs=0.05)
        parallel = run(QUERY_BANK["or"], series_list,
                       executor="process", workers=4)
        assert parallel.execution_wall_seconds > 0
        assert parallel.execution_seconds > 0
        metrics = parallel.metrics_dict()
        assert metrics["execution_wall_seconds"] == \
            parallel.execution_wall_seconds
        assert metrics["execution_seconds"] == parallel.execution_seconds


class TestConfiguration:
    def test_invalid_executor_rejected(self):
        with pytest.raises(PlanError):
            TRexEngine(executor="gpu")
        with pytest.raises(PlanError):
            TRexEngine(workers=0)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("TREX_EXECUTOR", "process")
        assert TRexEngine().config.executor == "process"
        # An explicit argument beats the environment.
        assert TRexEngine(executor="serial").config.executor == "serial"
        monkeypatch.delenv("TREX_EXECUTOR")
        assert TRexEngine().config.executor == "serial"
        # The deleted backend is an error like any unknown name, not a
        # silent serial run.
        monkeypatch.setenv("TREX_EXECUTOR", "thread")
        with pytest.raises(PlanError, match="executor"):
            TRexEngine()

    def test_env_workers(self, monkeypatch):
        monkeypatch.setenv("TREX_WORKERS", "3")
        assert EngineConfig().workers == 3
        assert EngineConfig(workers=5).workers == 5
        monkeypatch.delenv("TREX_WORKERS")
        assert EngineConfig().workers == default_workers()

    @pytest.mark.parametrize("executor", ("serial", "process"))
    @pytest.mark.parametrize("value", ("abc", "0", "-2"))
    def test_bad_env_workers_is_a_plan_error_at_construction(
            self, monkeypatch, executor, value):
        # Under every executor, before any planning — not a ValueError
        # from inside dispatch() and only when a pool is selected.
        monkeypatch.setenv("TREX_WORKERS", value)
        with pytest.raises(PlanError, match="TREX_WORKERS"):
            TRexEngine(executor=executor)
        with pytest.raises(PlanError, match="TREX_WORKERS"):
            EngineConfig(executor=executor)

    def test_reset_pools_is_safe(self):
        series_list = workload(num_series=2)
        run(QUERY_BANK["or"], series_list, executor="process", workers=2)
        reset_pools()
        got = run(QUERY_BANK["or"], series_list,
                  executor="process", workers=2)
        assert signature(got) == signature(run(QUERY_BANK["or"],
                                               series_list))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000),
       name=st.sampled_from(["kleene", "or", "point_kleene"]),
       num_series=st.integers(2, 6),
       max_matches=st.one_of(st.none(), st.integers(1, 40)))
def test_fuzz_process_backend_equals_serial(seed, name, num_series,
                                            max_matches):
    series_list = workload(num_series=num_series, n=18, seed=seed)
    expected = signature(run(QUERY_BANK[name], series_list,
                             max_matches=max_matches))
    got = signature(run(QUERY_BANK[name], series_list,
                        executor="process", workers=3,
                        max_matches=max_matches))
    assert got == expected
