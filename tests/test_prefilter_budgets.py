"""Prefilter resource-governance tests: deadline ticks inside index
probing, ``max_segments`` accounting around materialized candidate ranges,
and the ``index.probe`` fault point under every error policy
(docs/PREFILTER.md, docs/ROBUSTNESS.md)."""

import time
from collections import Counter

import numpy as np
import pytest

from repro.core.engine import TRexEngine
from repro.errors import QueryTimeout, ResourceBudgetExceeded
from repro.exec.base import ExecContext
from repro.index.summary import build_summary
from repro.lang.query import compile_query
from repro.plan.logical import build_logical_plan
from repro.plan.prefilter import decide, extract_prefilter
from repro.testing import faults
from repro.testing.faults import InjectedFault

from tests.conftest import make_series


@pytest.fixture(autouse=True)
def _clean():
    faults.disarm_all()
    yield
    faults.disarm_all()


@pytest.fixture
def serial_executor(monkeypatch):
    # Programmatic fault hit-counts (``@N``) index the *serial*
    # cross-series firing order, and armed faults are process-local;
    # under a pool backend the order (and, for processes, the counter
    # itself) is per-worker.  Concurrent fault semantics are covered by
    # tests/test_parallel_chaos.py.
    monkeypatch.delenv("TREX_EXECUTOR", raising=False)


SPIKE_TEXT = """
ORDER BY tstamp
PATTERN (A & W)
DEFINE
  SEGMENT A AS min(A.val) >= 90,
  SEGMENT W AS window(2, 8)
"""


def spike_plan():
    query = compile_query(SPIKE_TEXT)
    return query, extract_prefilter(query, build_logical_plan(query))


def spiky_series(num_spikes=3, length=600, seed=11, key=("s",)):
    rng = np.random.default_rng(seed)
    values = rng.uniform(10.0, 60.0, length)
    for k in range(num_spikes):
        at = 40 + k * (length // (num_spikes + 1))
        values[at:at + 4] = 100.0 + k
    return make_series(values, key=key)


class TestDeadlineTicks:
    def test_probe_ticks_against_expired_deadline(self):
        _, pfplan = spike_plan()
        series = spiky_series()
        ctx = ExecContext(series, deadline=time.perf_counter() - 1.0)
        with pytest.raises(QueryTimeout):
            decide(pfplan, series, ctx, Counter())

    def test_probe_does_not_tick_without_deadline(self):
        _, pfplan = spike_plan()
        series = spiky_series()
        ctx = ExecContext(series, deadline=None)
        kind, ranges = decide(pfplan, series, ctx, Counter())
        assert kind == "narrow" and ranges


class TestSegmentCharging:
    def test_narrowed_ranges_charged_under_budget(self):
        query, _ = spike_plan()
        series = [spiky_series()]
        # Wide-open budget: runs fine and the report counts the
        # materialized ranges.
        result = TRexEngine(prefilter=True, max_segments=100_000) \
            .execute_query(query, series)
        assert result.prefilter["ranges_materialized"] >= 1

    def test_ranges_are_not_charged_to_the_budget(self):
        # Three spikes materialize three candidate ranges.  They are
        # range tuples, not segments: the smallest budget a narrowed run
        # fits in is never above the full scan's, so no default-config
        # budget boundary depends on the toggle.
        query, _ = spike_plan()
        series = [spiky_series()]

        def smallest_budget(prefilter):
            lo, hi = 1, 1 << 16
            while lo < hi:
                mid = (lo + hi) // 2
                try:
                    TRexEngine(prefilter=prefilter, max_segments=mid,
                               on_error="raise").execute_query(query, series)
                    hi = mid
                except ResourceBudgetExceeded:
                    lo = mid + 1
            return lo

        on, off = smallest_budget(True), smallest_budget(False)
        assert 1 < on <= off

    def test_skip_decision_charges_nothing(self):
        query, _ = spike_plan()
        calm = [make_series(np.zeros(600) + 5.0)]
        result = TRexEngine(prefilter=True, max_segments=1) \
            .execute_query(query, calm)
        assert result.prefilter["series_skipped"] == 1
        assert result.total_matches == 0


@pytest.mark.usefixtures("serial_executor")
class TestIndexProbeFaults:
    def test_raise_propagates_under_on_error_raise(self):
        query, _ = spike_plan()
        with faults.inject("index.probe"):
            with pytest.raises(InjectedFault):
                TRexEngine(prefilter=True, on_error="raise") \
                    .execute_query(query, [spiky_series()])

    @pytest.mark.parametrize("policy", ["partial", "skip"])
    def test_raise_recorded_under_degrading_policies(self, policy):
        query, _ = spike_plan()
        with faults.inject("index.probe"):
            result = TRexEngine(prefilter=True, on_error=policy) \
                .execute_query(query, [spiky_series()])
        assert len(result.errors) == 1
        assert "index.probe" in result.errors[0].format()

    def test_corrupt_summary_fails_open_to_full_scan(self):
        query, _ = spike_plan()
        series = [spiky_series()]
        baseline = TRexEngine(prefilter=False).execute_query(query,
                                                             series)
        with faults.inject("index.probe", action="corrupt",
                           corrupt=lambda s: object()):
            result = TRexEngine(prefilter=True).execute_query(query,
                                                              series)
        assert result.matches_by_key() == baseline.matches_by_key()
        assert result.prefilter["index_invalid"] == 1
        assert result.prefilter["series_full"] == 1

    def test_stale_summary_fails_open(self):
        # A summary built for a different length models a stale index
        # entry: the integrity probe rejects it and the series runs the
        # full scan with identical results.
        query, _ = spike_plan()
        series = [spiky_series()]
        stale = build_summary(make_series(np.zeros(10)))
        baseline = TRexEngine(prefilter=False).execute_query(query,
                                                             series)
        with faults.inject("index.probe", action="corrupt",
                           corrupt=lambda s: stale):
            result = TRexEngine(prefilter=True).execute_query(query,
                                                              series)
        assert result.matches_by_key() == baseline.matches_by_key()
        assert result.prefilter["index_invalid"] == 1

    def test_transient_fault_only_hits_once(self):
        query, _ = spike_plan()
        series = [spiky_series(seed=1, key=("a",)),
                  spiky_series(seed=2, key=("b",)),
                  spiky_series(seed=3, key=("c",))]
        with faults.inject("index.probe", times=1):
            result = TRexEngine(prefilter=True, on_error="skip") \
                .execute_query(query, series)
        assert len(result.errors) == 1
        assert result.errors[0].key == ("a",)
        # The failed series' counters are discarded with its partial
        # work; the two clean series were examined and pruned normally.
        assert result.prefilter["series_examined"] == 2

    def test_data_action_models_corrupt_store(self):
        query, _ = spike_plan()
        with faults.inject("index.probe", action="data"):
            result = TRexEngine(prefilter=True, on_error="partial") \
                .execute_query(query, [spiky_series()])
        assert len(result.errors) == 1
        assert result.errors[0].error == "DataError"


@pytest.mark.usefixtures("serial_executor")
class TestChaosParity:
    def test_chaos_sweep_keeps_no_false_dismissal(self):
        """Chaos case: every index.probe action that the policies can
        absorb leaves the surviving series' matches identical to the
        prefilter-off run."""
        query, _ = spike_plan()
        series = [spiky_series(seed=s, key=(f"s{s}",)) for s in range(4)]
        baseline = TRexEngine(prefilter=False, on_error="partial") \
            .execute_query(query, series)
        base_by_key = baseline.matches_by_key()
        for action in ("raise", "timeout", "data", "corrupt"):
            kwargs = {"action": action, "on_hit": 2, "times": 1}
            if action == "corrupt":
                kwargs["corrupt"] = lambda s: None
            with faults.inject("index.probe", **kwargs):
                result = TRexEngine(prefilter=True, on_error="partial") \
                    .execute_query(query, series)
            by_key = result.matches_by_key()
            if action == "corrupt":
                # Fail-open: no errors, identical matches everywhere.
                assert not result.errors, action
                assert by_key == base_by_key, action
            elif action == "timeout":
                # A deadline fault ends the whole query: series before
                # the fault keep parity, the rest never ran.
                assert result.interrupted, action
                assert by_key[("s0",)] == base_by_key[("s0",)], action
            else:
                # Exactly the faulted series surfaces an error record;
                # every other series keeps byte-identical matches.
                assert [e.key for e in result.errors] == [("s1",)], action
                for key, matches in by_key.items():
                    if key != ("s1",):
                        assert matches == base_by_key[key], action
