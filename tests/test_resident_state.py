"""Resident derived state (ISSUE 24): partitions, summaries and aggregate
indexes live on the ``Table`` / ``Series`` they are a pure function of.

The contract is that residency changes what is *built*, never what a
query observes: the N-th ``QueryResult`` over a shared ``Table`` equals
the one from a freshly constructed equal ``Table``.
"""

import pickle
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.summary as summary_module
import repro.timeseries.series as series_module
from repro.aggregates.base import Aggregate, AggregateIndex
from repro.aggregates.registry import DEFAULT_REGISTRY, AggregateRegistry
from repro.core import parallel
from repro.core.engine import TRexEngine
from repro.core.plancache import PlanCache, stats_fingerprint
from repro.datasets import load
from repro.errors import QueryTimeout
from repro.exec.base import ExecContext
from repro.lang.query import compile_query
from repro.queries import get_template
from repro.queries.templates import ALL_TEMPLATES
from repro.testing import faults
from repro.testing.fuzz import _result_snapshot
from repro.timeseries.table import Table

from tests.conftest import make_series
from tests.test_engine_config import CapturingPool

#: The sp500 templates: six different queries over one table.
SP500 = ("v_shape", "head_shldr", "outlier", "limit_sell", "AFA_Q1",
         "AFA_Q2")


def small_table(dataset):
    return load(dataset, num_series=2, length=40)


def bound(name):
    template = get_template(name)
    return template.compile(template.param_sets()[0])


#: Over the weather table: an active prefilter plan (``max`` yields a
#: witness atom, so summaries are probed) and two kinds of index (prefix
#: sums behind ``avg``, the growing Mann-Kendall table).
PRUNED_AND_INDEXED = compile_query(
    "PARTITION BY city\nORDER BY tstamp\nPATTERN A\n"
    "DEFINE SEGMENT A AS max(A.temp) >= -50 AND avg(A.temp) >= -50 "
    "AND mann_kendall_test(A.temp) >= 1.5 AND window(6, 12)")


def run(table, query, **options):
    """One analyzed, error-isolating execution, as a contract snapshot:
    matches, per-series stats, plan_explain, error records and EXPLAIN
    ANALYZE counters minus ``fuzz.SNAPSHOT_EXCLUDED``."""
    options = {"analyze": True, "on_error": "partial",
               "executor": "serial", **options}
    return _result_snapshot(TRexEngine(**options).execute_query(query, table))


@pytest.fixture
def build_calls(monkeypatch):
    """Counts every ``build_index`` / ``build_summary`` / partition
    build made while the fixture is live."""
    calls = Counter()

    def counting(target, attr, label):
        real = getattr(target, attr)

        def wrapper(*args, **kwargs):
            calls[label] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(target, attr, wrapper)

    for klass in {type(DEFAULT_REGISTRY.get(name))
                  for name in DEFAULT_REGISTRY.names()}:
        if "build_index" in klass.__dict__:
            counting(klass, "build_index", "build_index")
    counting(summary_module, "build_summary", "build_summary")
    counting(Table, "_build_partitions", "partition")
    return calls


# ---------------------------------------------------------------------------
# Cold vs warm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", [t.name for t in ALL_TEMPLATES])
def test_nth_execution_equals_a_fresh_table(name, build_calls):
    template = get_template(name)
    query = bound(name)
    fresh = run(small_table(template.dataset), query)
    shared = small_table(template.dataset)
    assert run(shared, query) == fresh
    cold = Counter(build_calls)
    assert cold["partition"] == 2
    # Warm: the same work, nothing built.
    for _ in range(2):
        assert run(shared, query) == fresh
    assert build_calls == cold


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.lists(st.sampled_from(range(len(SP500))), min_size=3, max_size=7)
       .filter(lambda order: len(set(order)) >= 3))
def test_interleaved_queries_over_one_table(order):
    queries = [bound(name) for name in SP500]
    fresh = {}
    shared = small_table("sp500")
    for index in order:
        if index not in fresh:
            fresh[index] = run(small_table("sp500"), queries[index])
        assert run(shared, queries[index]) == fresh[index], SP500[index]


def test_warm_table_equals_fresh_under_the_process_backend():
    # Workers unpickle their series without resident state, so every
    # process run is cold; the settled result is the serial one anyway.
    query = bound("v_shape")
    fresh = run(small_table("sp500"), query)
    shared = small_table("sp500")
    try:
        for _ in range(2):
            assert run(shared, query, executor="process", workers=2) == fresh
            assert run(shared, query) == fresh
    finally:
        parallel.reset_pools()


def test_prefilter_report_separates_cold_from_warm():
    table = small_table("weather")
    engine = TRexEngine(optimizer="pr_left", analyze=True,
                        executor="serial")
    cold, warm = (engine.execute_query(PRUNED_AND_INDEXED, table)
                  for _ in range(2))
    built = cold.prefilter["aggindex_built"]
    assert built > 0 and cold.prefilter["aggindex_cached"] == 0
    assert (warm.prefilter["aggindex_built"],
            warm.prefilter["aggindex_cached"]) == (0, built)
    assert (cold.prefilter["index_built"], cold.prefilter["index_cached"],
            warm.prefilter["index_built"], warm.prefilter["index_cached"]) \
        == (2, 0, 0, 2)
    assert f"aggindex built=0 cached={built})" \
        in warm.plan_analyze.splitlines()[0]
    assert cold.stats == warm.stats and warm.stats["index_builds"] == built


# ---------------------------------------------------------------------------
# Keys: the aggregate object, not its name
# ---------------------------------------------------------------------------

class _ScaledSum(Aggregate):
    """``scaled(col, k)``: k times the segment sum, with an index."""

    name = "scaled"
    num_extra = 1
    index_cost_shape = "L"
    lookup_cost_shape = "C"

    def __init__(self, factor=1.0):
        self.factor = factor

    def evaluate(self, arrays, extra):
        return self.factor * extra[0] * float(np.sum(arrays[0]))

    def build_index(self, columns, extra):
        return _ScaledIndex(columns[0], self.factor * extra[0])


class _ScaledIndex(AggregateIndex):
    def __init__(self, values, scale):
        self.sums = np.concatenate(([0.0], np.cumsum(values)))
        self.scale = scale

    def lookup(self, start, end):
        return self.scale * float(self.sums[end + 1] - self.sums[start])


def scaled_query(registry, threshold=30, k=1):
    return compile_query(
        "ORDER BY tstamp\nPATTERN A\nDEFINE SEGMENT A AS "
        f"scaled(A.val, {k}) >= {threshold} AND window(2, 6)",
        registry=registry)


def test_two_registries_never_share_an_index():
    registries = []
    for factor in (1.0, 2.0):
        registry = AggregateRegistry()
        registry.register(_ScaledSum(factor))
        registries.append(registry)
    values = np.arange(40.0) % 9
    shared = [make_series(values)]
    snaps = [run(shared, scaled_query(registry), sharing="on")
             for registry in registries]
    assert snaps[0] != snaps[1]
    for registry, snap in zip(registries, snaps):
        assert run([make_series(values)], scaled_query(registry),
                   sharing="on") == snap
        assert run(shared, scaled_query(registry), sharing="on") == snap


# ---------------------------------------------------------------------------
# Nothing half-built
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("point", ["aggregate.lookup", "index.probe"])
@pytest.mark.parametrize("action", ["raise", "timeout"])
def test_a_fault_leaves_nothing_half_built(point, action):
    query = PRUNED_AND_INDEXED
    fresh = run(small_table("weather"), query)
    shared = small_table("weather")
    try:
        with faults.inject(point, action=action, on_hit=2):
            faulted = run(shared, query)
    finally:
        faults.disarm_all()
    assert faulted != fresh
    assert run(shared, query) == fresh


def test_a_timeout_mid_build_stores_nothing(monkeypatch):
    query = bound("v_shape")
    fresh = run(small_table("sp500"), query, optimizer="pr_left")
    shared = small_table("sp500")
    klass = type(DEFAULT_REGISTRY.get("linear_regression_r2_signed"))
    real = klass.build_index

    def expiring(self, columns, extra):
        real(self, columns, extra)
        raise QueryTimeout("deadline passed while the index was building")

    monkeypatch.setattr(klass, "build_index", expiring)
    interrupted = TRexEngine(optimizer="pr_left", on_error="partial",
                             executor="serial").execute_query(query, shared)
    assert interrupted.interrupted
    series_list = shared.partition(query.partition_by, query.order_by)
    assert not any(isinstance(key, tuple) for series in series_list
                   for key in series._derived)
    monkeypatch.setattr(klass, "build_index", real)
    assert run(shared, query, optimizer="pr_left") == fresh


def test_a_deadline_mid_evaluation_leaves_usable_indexes():
    # Mann-Kendall rows grow while the query runs; an expired deadline
    # stops the growth between whole rows.
    query = bound("cld_wave")
    table = load("weather", num_series=2, length=160)
    fresh = run(load("weather", num_series=2, length=160), query)
    cut_short = TRexEngine(timeout_seconds=0.02, on_error="partial",
                           executor="serial").execute_query(query, table)
    assert cut_short.interrupted
    assert run(table, query) == fresh


# ---------------------------------------------------------------------------
# Immutability and payload size
# ---------------------------------------------------------------------------

def test_table_columns_are_read_only_views():
    mine = np.arange(6.0)
    table = Table({"tstamp": np.arange(6.0), "val": mine})
    with pytest.raises(ValueError):
        table.column("val")[0] = 1.0
    mine[0] = 7.0                      # the caller's array is untouched
    assert mine.flags.writeable
    (series,) = table.partition(None, "tstamp")
    with pytest.raises(ValueError):
        series.column("val")[0] = 1.0


def test_partition_returns_a_new_list_of_the_same_series():
    table = small_table("sp500")
    first = table.partition(["ticker"], "tstamp")
    second = table.partition(["ticker"], "tstamp")
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    first.reverse()
    assert table.partition(["ticker"], "tstamp") == second
    # The memo is per (partition_by, order_by, time_unit, nan_policy).
    table.time_unit = "HOUR"
    assert table.partition(["ticker"], "tstamp")[0] is not second[0]


def test_pickles_and_worker_payloads_do_not_grow(monkeypatch):
    table = small_table("weather")
    queries = [bound("cld_wave"), PRUNED_AND_INDEXED]
    series_list = table.partition(["city"], "tstamp")
    before = [len(pickle.dumps(series)) for series in series_list]

    def payload_sizes():
        pool = CapturingPool()
        monkeypatch.setattr(parallel, "_get_process_pool",
                            lambda workers: pool)
        TRexEngine(executor="process", workers=2, on_error="partial") \
            .execute_query(queries[0], table)
        monkeypatch.undo()
        return [len(pickle.dumps(payload)) for payload in pool.payloads]

    cold = payload_sizes()
    for query in queries:
        TRexEngine(sharing="on", executor="serial") \
            .execute_query(query, table)
    kinds = {type(entry[0]).__name__ for series in series_list
             for entry in series._derived.values()}
    assert {"_MannKendallIndex", "_AvgIndex", "SeriesSummary"} <= kinds
    # ... and the planner's drawn samples.
    assert all(any(isinstance(key, tuple) and key[0] == "stats.sample"
                   for key in series._derived) for series in series_list)
    assert [len(pickle.dumps(series)) for series in series_list] == before
    assert payload_sizes() == cold
    clone = pickle.loads(pickle.dumps(series_list[0]))
    assert not clone._derived and clone.derived("k", lambda: 1) == (1, True)


# ---------------------------------------------------------------------------
# The store: bound and thread safety
# ---------------------------------------------------------------------------

def test_the_store_is_bounded_and_eviction_is_invisible(monkeypatch):
    cap = 64 << 10
    monkeypatch.setattr(series_module, "DERIVED_BYTES_CAP", cap)
    registry = AggregateRegistry()
    registry.register(_ScaledSum())
    registry.register(DEFAULT_REGISTRY.get("mann_kendall_test"))
    registry.register(DEFAULT_REGISTRY.get("zscore_outlier"))
    rng = np.random.default_rng(7)
    values = np.cumsum(rng.normal(0, 1.0, 160))
    shared, fresh = make_series(values), make_series(values)
    # A materialised Mann-Kendall index (~100 KiB on 160 points) is over
    # the cap on its own: it serves its context and is not kept.
    mk = compile_query(
        "ORDER BY tstamp\nPATTERN A\nDEFINE SEGMENT A AS "
        "mann_kendall_test(A.val) >= 2.5 AND window(20, 40)",
        registry=registry)
    ctx = ExecContext(shared, registry)
    ctx.prebuild_indexes([call for var in mk.variables.values()
                          for call in var.aggregate_calls()])
    assert shared._derived_bytes <= cap
    # 200 distinct extra arguments (each its own ~1.3 KiB index), and 200
    # zscore_outlier contexts, which have no index and store nothing.
    for k in range(1, 201):
        query = scaled_query(registry, threshold=25 * k, k=k)
        assert run([shared], query, optimizer="pr_left") == \
            run([fresh], query, optimizer="pr_left")
        fresh.drop_derived()
        run([shared], compile_query(
            "ORDER BY tstamp\nPATTERN A\nDEFINE A AS "
            f"zscore_outlier(A.val, {k + 1}) > 2", registry=registry),
            optimizer="pr_left")
        assert shared._derived_bytes <= cap
    assert 0 < len(shared._derived) < 200          # evictions happened
    assert shared._derived_bytes == sum(
        series_module.resident_bytes(value)
        + series_module.DERIVED_ENTRY_BYTES
        for value, _ in shared._derived.values())
    assert run([shared], mk) == run([make_series(values)], mk)
    assert shared._derived_bytes <= cap


def test_growth_after_insertion_is_re_read():
    series = make_series(np.sin(np.arange(300.0)))
    agg = DEFAULT_REGISTRY.get("mann_kendall_test")
    ctx = ExecContext(series)
    call = compile_query(
        "ORDER BY tstamp\nPATTERN A\nDEFINE SEGMENT A AS "
        "mann_kendall_test(A.val) >= 3").variables["A"].aggregate_calls()[0]
    index = ctx.aggregate_index(agg, call, ())
    empty = series._derived_bytes
    index.lookup(0, 299)
    assert series._derived_bytes == empty      # not yet re-read
    ctx.settle_indexes()
    assert series._derived_bytes >= empty + 300 * 8


def test_racing_builders_publish_one_value():
    series = make_series(np.arange(10.0))
    barrier = threading.Barrier(4)
    got = []

    def build():
        barrier.wait(timeout=10)
        return object()

    threads = [threading.Thread(
        target=lambda: got.append(series.derived("k", build)))
        for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len({id(value) for value, _ in got}) == 1
    assert all(built for _, built in got)


def test_four_threads_hammer_one_table():
    table = load("weather", num_series=3, length=120)
    sp500 = small_table("sp500")
    jobs = [(table, bound("cld_wave")), (sp500, bound("v_shape"))]
    expected = [run(load("weather", num_series=3, length=120), jobs[0][1]),
                run(small_table("sp500"), jobs[1][1])]
    failures, done = [], []     # list.append is atomic; Counter += is not

    def worker(offset):
        for step in range(6):
            which = (offset + step) % 2
            snap = run(*jobs[which])
            done.append(which)
            if snap != expected[which]:
                failures.append((offset, step, which))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert len(done) == 24


# ---------------------------------------------------------------------------
# The service's plan-cache key
# ---------------------------------------------------------------------------

def test_plan_key_stops_re_reading_the_data(monkeypatch):
    table = small_table("sp500")
    query = bound("v_shape")
    series_list = table.partition(query.partition_by, query.order_by)
    first = stats_fingerprint(series_list)
    assert first == stats_fingerprint(
        small_table("sp500").partition(query.partition_by, query.order_by))
    sums = Counter()
    real = np.ndarray.sum

    class Watched(np.ndarray):
        def sum(self, *args, **kwargs):
            sums["sum"] += 1
            return real(self, *args, **kwargs)

    for series in series_list:
        for name, column in series._columns.items():
            series._columns[name] = column.view(Watched)
    assert stats_fingerprint(series_list) == first
    assert not sums
    cache = PlanCache()
    engine = TRexEngine(plan_cache=cache, executor="serial")
    for _ in range(3):
        engine.execute_query(query, table)
    assert (cache.plan_misses, cache.plan_hits) == (1, 2)


def test_served_tables_are_resident_and_the_books_balance():
    from repro.service import BackgroundService, ServiceConfig

    config = ServiceConfig(port=0, datasets=(("sp500", 3, 60),), workers=2)
    with BackgroundService(config) as live:
        client = live.client()
        bodies = [client.post("/query", {"template": "v_shape"})
                  for _ in range(3)]
        assert [status for status, _ in bodies] == [200, 200, 200]
        assert [body["plan_cache"]["plan"] for _, body in bodies] == \
            ["miss", "hit", "hit"]
        assert bodies[0][1]["matches"] == bodies[2][1]["matches"]
        _, stats = client.get("/stats")
    counters = stats["service"]["counters"]
    # One index per series, built by the first request that touched it
    # (its planner's sampling or its evaluation) and found by the rest.
    assert counters["prefilter_aggindex_built"] <= 3
    assert counters["prefilter_aggindex_cached"] >= 6
    assert counters["requests"] == counters["admitted"] == \
        counters["completed"] == 3
    assert stats["plan_cache"]["plan_hits"] == 2
