"""Chaos under concurrency: faults inside parallel workers.

The serial chaos suite (tests/test_chaos.py) pins exact per-series
outcomes because serial firing order is deterministic.  Under a worker
pool the *order* series hit a fault point is scheduling-dependent, so
this suite asserts the guarantees that survive concurrency
(docs/PARALLELISM.md):

* a fault that fires on every hit fails every series, under every
  backend and policy, without leaking across series;
* partial harvests are always a sorted, duplicate-free subset of the
  clean run's matches;
* a blown global budget produces the exact serial result (settlement +
  replay);
* the process backend re-arms ``TREX_FAULTS`` inside pool workers and
  degrades cleanly (inline run, ``WorkerCrashed``) when plans or
  errors cannot cross the process boundary.
"""

import contextlib
import logging
import pickle

import numpy as np
import pytest

from repro.core import parallel
from repro.core.engine import TRexEngine
from repro.core.parallel import reset_pools
from repro.errors import WorkerCrashed, error_kind
from repro.lang.query import compile_query
from repro.testing import faults

from tests.conftest import make_series
from tests.test_chaos import FAMILY_QUERIES, plan_operator_names


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    monkeypatch.delenv("TREX_EXECUTOR", raising=False)
    monkeypatch.delenv("TREX_WORKERS", raising=False)
    monkeypatch.delenv("TREX_FAULTS", raising=False)
    faults.disarm_all()
    yield
    faults.disarm_all()
    reset_pools()


def workload(num_series=4, n=24, seed=55):
    return [make_series(
        np.cumsum(np.random.default_rng(seed + i).normal(0, 1.2, n)) + 50,
        key=(f"s{i}",)) for i in range(num_series)]


def clean_result(query_text, series_list):
    return TRexEngine().execute_query(compile_query(query_text),
                                      series_list)


def signature(result):
    return ([(e.key, tuple(e.matches),
              e.error.to_dict() if e.error is not None else None)
             for e in result.per_series],
            result.interrupted, result.degradation)


@contextlib.contextmanager
def armed_in_workers(point, **kwargs):
    """``faults.inject`` that reaches forked pool workers: programmatic
    faults are process-local, so the pool must be created after arming —
    and must not outlive the fault it inherited."""
    reset_pools()
    try:
        with faults.inject(point, **kwargs):
            yield
    finally:
        reset_pools()


class TestOperatorFaultsInWorkers:
    """Programmatic faults fire inside forked process workers."""

    @pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
    def test_every_series_fails_under_each_policy(self, family):
        query = compile_query(FAMILY_QUERIES[family])
        series_list = workload()
        op_name = plan_operator_names(query, series_list)[0]
        point = f"exec.{op_name}.eval"
        # raise: the first (series-order) worker failure propagates.
        with armed_in_workers(point):
            with pytest.raises(faults.InjectedFault):
                TRexEngine(executor="process", workers=2).execute_query(
                    query, series_list)
            # skip: every series hits the fault; all isolated, no matches.
            result = TRexEngine(executor="process", workers=2,
                                on_error="skip").execute_query(
                query, series_list)
        assert [e.key for e in result.errors] == \
            [s.key for s in series_list]
        assert all(e.kind == "execution" for e in result.errors)
        assert result.total_matches == 0
        assert not result.interrupted

    @pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
    def test_partial_harvests_are_clean_subsets(self, family):
        """Whichever series a late-firing fault lands on, each kept
        harvest is a sorted duplicate-free subset of the clean run."""
        query = compile_query(FAMILY_QUERIES[family])
        series_list = workload()
        clean = TRexEngine().execute_query(query, series_list)
        reference = {e.key: e.matches for e in clean.per_series}
        op_name = plan_operator_names(query, series_list)[0]
        # Fires from the 3rd hit on: some series complete clean, the
        # rest stop mid-harvest — which ones is scheduling-dependent.
        with armed_in_workers(f"exec.{op_name}.eval", on_hit=3):
            result = TRexEngine(executor="process", workers=2,
                                on_error="partial").execute_query(
                query, series_list)
        for entry in result.per_series:
            assert entry.matches == sorted(set(entry.matches))
            assert set(entry.matches) <= set(reference[entry.key])
            if entry.error is None:
                assert entry.matches == reference[entry.key]

    def test_crash_faults_isolated_as_internal(self):
        query = compile_query(FAMILY_QUERIES["and"])
        series_list = workload()
        op_name = plan_operator_names(query, series_list)[0]
        with armed_in_workers(f"exec.{op_name}.eval", action="crash"):
            result = TRexEngine(executor="process", workers=2,
                                on_error="skip").execute_query(
                query, series_list)
        assert len(result.errors) == len(series_list)
        assert all(e.kind == "internal" for e in result.errors)


class TestGlobalBudgetUnderConcurrency:
    @pytest.mark.parametrize("max_segments", (10, 80, 300))
    def test_blown_budget_equals_serial_exactly(self, max_segments):
        """Workers blow their (full) budgets in any order; the settled
        result must still be the serial engine's, bit for bit."""
        series_list = workload(num_series=6)
        query_text = FAMILY_QUERIES["kleene"]
        serial = TRexEngine(max_segments=max_segments,
                            on_error="partial").execute_query(
            compile_query(query_text), series_list)
        got = TRexEngine(executor="process", workers=4,
                         max_segments=max_segments,
                         on_error="partial").execute_query(
            compile_query(query_text), series_list)
        assert signature(got) == signature(serial)

    def test_interrupted_subset_of_clean(self):
        series_list = workload(num_series=6)
        query_text = FAMILY_QUERIES["kleene"]
        clean = clean_result(query_text, series_list)
        reference = {e.key: e.matches for e in clean.per_series}
        result = TRexEngine(executor="process", workers=4, max_segments=40,
                            on_error="partial").execute_query(
            compile_query(query_text), series_list)
        assert result.interrupted
        assert result.degradation.startswith("budget")
        for entry in result.per_series:
            assert entry.matches == sorted(set(entry.matches))
            assert set(entry.matches) <= set(reference[entry.key])


class TestProcessBackendChaos:
    def test_env_faults_rearmed_inside_workers(self, monkeypatch):
        """TREX_FAULTS reaches forked pool workers even though the
        parent armed nothing programmatically."""
        monkeypatch.setenv("TREX_FAULTS", "data.series:data")
        reset_pools()
        query = compile_query(FAMILY_QUERIES["or"])
        series_list = workload()
        result = TRexEngine(executor="process", workers=2,
                            on_error="skip").execute_query(
            query, series_list)
        assert [e.key for e in result.errors] == \
            [s.key for s in series_list]
        assert all(e.kind == "data" for e in result.errors)
        # The parent process never armed the fault registry itself.
        assert not faults.ENABLED

    def test_unpicklable_plan_runs_inline_and_equals_serial(
            self, monkeypatch, caplog):
        monkeypatch.setattr(parallel, "_plan_is_picklable",
                            lambda plan, query: False)
        monkeypatch.setattr(
            parallel, "_get_process_pool",
            lambda workers: pytest.fail("no pool for an unpicklable plan"))
        query_text = FAMILY_QUERIES["or"]
        series_list = workload()
        serial = clean_result(query_text, series_list)
        caplog.set_level(logging.WARNING, logger=parallel.__name__)
        got = TRexEngine(executor="process", workers=2).execute_query(
            compile_query(query_text), series_list)
        assert signature(got) == signature(serial)
        assert [r.getMessage() for r in caplog.records
                if "not picklable" in r.getMessage()
                and "inline" in r.getMessage()]

    def test_unpicklable_worker_error_becomes_worker_crashed(self):
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("not today")

        wrapped = parallel._pickle_safe_error(Unpicklable("boom"))
        assert isinstance(wrapped, WorkerCrashed)
        assert "Unpicklable" in str(wrapped)
        assert error_kind(wrapped) == "execution"
        pickle.loads(pickle.dumps(wrapped))  # must round-trip
        passthrough = parallel._pickle_safe_error(ValueError("fine"))
        assert isinstance(passthrough, ValueError)
        assert parallel._pickle_safe_error(None) is None

    def test_worker_crashed_isolated_by_policy(self, monkeypatch):
        """A crashed pool maps to per-series WorkerCrashed outcomes."""
        class BrokenFuture:
            def result(self):
                raise RuntimeError("worker died")

        class BrokenPool:
            def submit(self, fn, *args):
                return BrokenFuture()

        monkeypatch.setattr(parallel, "_get_process_pool",
                            lambda workers: BrokenPool())
        query = compile_query(FAMILY_QUERIES["or"])
        series_list = workload(num_series=2)
        result = TRexEngine(executor="process", workers=2,
                            on_error="skip").execute_query(
            query, series_list)
        assert len(result.errors) == 2
        assert all(e.error == "WorkerCrashed" for e in result.errors)
        assert all(e.kind == "execution" for e in result.errors)
