"""The engine's one settle loop, at the seams the unification created.

Every executor feeds ``TRexEngine``'s single ordered walk from one
per-series runner (``parallel.run_series``), which *captures* failures;
under ``on_error='raise'`` the walk re-raises the captured object.  This
suite pins what that must not change:

* the serial ``raise`` path surfaces the original exception object with
  its traceback intact down to the raising frame;
* no backend logs a "non-library error" record under ``raise`` (nothing
  was isolated — the error propagates), while ``skip`` still logs one
  per failing series.
"""

import logging
import traceback
from concurrent.futures import Future

import pytest

from repro.core import parallel
from repro.core.engine import TRexEngine
from repro.lang.query import compile_query
from repro.testing import faults

from tests.test_chaos import FAMILY_QUERIES, plan_operator_names, two_series


@pytest.fixture(autouse=True)
def clean_state(monkeypatch):
    monkeypatch.delenv("TREX_EXECUTOR", raising=False)
    monkeypatch.delenv("TREX_WORKERS", raising=False)
    monkeypatch.delenv("TREX_FAULTS", raising=False)
    faults.disarm_all()
    yield
    faults.disarm_all()
    parallel.reset_pools()


def first_operator_point(query, series_list):
    return f"exec.{plan_operator_names(query, series_list)[0]}.eval"


class TestRaiseKeepsTheOriginalException:
    @pytest.mark.parametrize("site", ("data.series", "operator"))
    def test_same_object_and_traceback_ends_at_raising_frame(self, site):
        query = compile_query(FAMILY_QUERIES["concat"])
        series_list = two_series()
        point = site if site == "data.series" \
            else first_operator_point(query, series_list)
        original = RuntimeError("boom")

        def raising_frame(value):
            raise original

        with faults.inject(point, action="corrupt", corrupt=raising_frame):
            with pytest.raises(RuntimeError) as info:
                TRexEngine(executor="serial", on_error="raise") \
                    .execute_query(query, series_list)
        assert info.value is original
        frames = [frame.name for frame in
                  traceback.extract_tb(info.value.__traceback__)]
        assert frames[-1] == "raising_frame"
        if site == "operator":
            assert "eval" in frames


class InlinePool:
    """Stands in for the process pool: runs ``_process_worker`` in this
    process so ``caplog`` sees what a worker would have logged."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 — mirror a real pool
            future.set_exception(exc)
        return future


def non_library_records(caplog):
    return [record for record in caplog.records
            if "non-library error" in record.getMessage()]


class TestLogUnexpected:
    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_raise_logs_nothing_and_skip_logs_each_series(
            self, executor, caplog, monkeypatch):
        if executor == "process":
            monkeypatch.setattr(parallel, "_get_process_pool",
                                lambda workers: InlinePool())
            # _process_worker records the fault environment it last saw.
            monkeypatch.setattr(parallel, "_worker_faults_env", None)
        query = compile_query(FAMILY_QUERIES["concat"])
        series_list = two_series()
        caplog.set_level(logging.ERROR)
        with faults.inject("data.series", action="crash"):
            with pytest.raises(RuntimeError):
                TRexEngine(executor=executor, workers=2, on_error="raise") \
                    .execute_query(query, series_list)
            assert non_library_records(caplog) == []
            result = TRexEngine(executor=executor, workers=2,
                                on_error="skip") \
                .execute_query(query, series_list)
        assert len(result.errors) == len(series_list)
        assert len(non_library_records(caplog)) == len(series_list)
