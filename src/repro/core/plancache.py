"""Keyed compile/plan cache for repeated (templated) queries.

Planning a T-ReX query is not free: the cost-based optimizer samples
statistics and runs a dynamic program over the pattern (Section 5).
Query *templates* make the same shape arrive over and over with
different parameter bindings, and dashboards re-issue identical queries
against slowly-changing data — so :class:`PlanCache` memoizes both
stages:

* ``compile`` — ``(query_text, params, registry)`` → bound
  :class:`~repro.lang.query.Query`;
* ``plan`` — ``(bound query fingerprint,
  EngineConfig.plan_fingerprint() = planner, sharing,
  data-stats fingerprint)`` → ``(physical plan, planner_fallback
  reason, extracted prefilter plan)``.

Keying rules (the guard rails):

* The *bound* query fingerprint includes every substituted parameter
  literal, so two bindings of one template can never share a plan — the
  same cross-binding trap as the probe-cache ``refs_key`` bug.
* The data-stats fingerprint digests each series' key, length and
  per-column content summary, so the cost-based planner re-plans when
  the data it would sample has changed.
* The planner label and sharing mode are part of the key: a ``'cost'``
  plan is never served to a ``'batch'`` or rule-based engine.

Hit/miss counters are surfaced per query in
``QueryResult.metrics_dict()["plan_cache"]`` and in the EXPLAIN ANALYZE
banner (docs/OBSERVABILITY.md).  The cache is thread-safe and bounded
(LRU eviction).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.aggregates.registry import DEFAULT_REGISTRY, AggregateRegistry
from repro.core.config import EngineConfig
from repro.exec.base import PhysicalOperator
from repro.lang.query import Query, compile_query
from repro.timeseries.series import Series

#: A cached plan entry: the physical plan, the planner-fallback reason
#: recorded when it was built (re-reported on every hit so a cached
#: fallback plan stays visible as one), and the extracted prefilter
#: plan (:class:`repro.plan.prefilter.PrefilterPlan`).
PlanEntry = Tuple[PhysicalOperator, Optional[str], object]


def params_fingerprint(params: Optional[dict]) -> tuple:
    """Order-independent, hashable digest of a parameter binding."""
    if not params:
        return ()
    return tuple(sorted((name, repr(value)) for name, value in
                        params.items()))


def series_fingerprint(series: Series) -> tuple:
    """Cheap content digest of one series for the plan-cache key.

    Captures the partition key, length and, per column, the endpoints
    plus a sum (numeric) or the endpoint reprs (object columns).  Any
    change the cost model's sampled statistics could observe shifts at
    least one of these with overwhelming probability; false sharing
    would require crafting two different series with identical digests.
    A series is immutable, so the digest is computed once and kept on it
    (a served table's key costs no pass over its data per request).
    """
    return series.derived(series_fingerprint, lambda: _digest(series))[0]


def _digest(series: Series) -> tuple:
    parts: list = [series.key, len(series), series.time_unit]
    for name in series.column_names:
        arr = series.column(name)
        if len(arr) == 0:
            parts.append((name, 0))
        elif arr.dtype.kind == "f":
            parts.append((name, float(arr[0]), float(arr[-1]),
                          float(arr.sum())))
        else:
            parts.append((name, repr(arr[0]), repr(arr[-1])))
    return tuple(parts)


def stats_fingerprint(series_list: Sequence[Series]) -> tuple:
    """Digest of everything the planner's stats sampling can see."""
    return tuple(series_fingerprint(series) for series in series_list)


class PlanCache:
    """Bounded, thread-safe compile + plan cache.

    Share one instance across engines to pool their cache::

        cache = PlanCache()
        engine_a = TRexEngine(plan_cache=cache)
        engine_b = TRexEngine(executor="process", plan_cache=cache)

    or pass ``plan_cache=True`` for an engine-private cache.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._compiled: OrderedDict = OrderedDict()
        self._plans: OrderedDict = OrderedDict()
        self.compile_hits = 0
        self.compile_misses = 0
        self.plan_hits = 0
        self.plan_misses = 0

    # -- compile stage ------------------------------------------------------

    def compile(self, text: str, params: Optional[dict] = None,
                registry: AggregateRegistry = DEFAULT_REGISTRY) -> Query:
        """Memoized :func:`~repro.lang.query.compile_query`."""
        key = (text, params_fingerprint(params), id(registry))
        with self._lock:
            query = self._compiled.get(key)
            if query is not None:
                self.compile_hits += 1
                self._compiled.move_to_end(key)
                return query
            self.compile_misses += 1
        query = compile_query(text, params, registry)
        with self._lock:
            self._compiled[key] = query
            self._compiled.move_to_end(key)
            while len(self._compiled) > self.max_entries:
                self._compiled.popitem(last=False)
        return query

    # -- plan stage ---------------------------------------------------------

    @staticmethod
    def plan_key(query: Query, config: EngineConfig,
                 series_list: Sequence[Series]) -> tuple:
        """Cache key for one (bound query, engine options, data)
        combination.
        """
        return (query.describe(), id(query.registry),
                *config.plan_fingerprint(), stats_fingerprint(series_list))

    def get_plan(self, key: tuple) -> Optional[PlanEntry]:
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None:
                self.plan_hits += 1
                self._plans.move_to_end(key)
            else:
                self.plan_misses += 1
            return entry

    def put_plan(self, key: tuple, entry: PlanEntry) -> None:
        with self._lock:
            self._plans[key] = entry
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)

    # -- reporting ----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "compile_hits": self.compile_hits,
            "compile_misses": self.compile_misses,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
        }

    def clear(self) -> None:
        with self._lock:
            self._compiled.clear()
            self._plans.clear()
