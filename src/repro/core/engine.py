"""The T-ReX engine: parse → rewrite → plan → execute (Section 3).

:class:`TRexEngine` is the library's main entry point::

    engine = TRexEngine()
    result = engine.execute(table, query_text, params={...})

Planner selection:

* ``optimizer='cost'`` (default) — the cost-based dynamic-programming
  optimizer of Section 5;
* ``optimizer='batch'`` — cost-based but with probe operators disabled
  (the "T-ReX Batch" baseline of Section 6.3);
* a :class:`RuleStrategy` or its label (``'pr_left'``, ``'sm_right_pnot'``,
  ...) — the rule-based baselines of Section 6.2.

Computation sharing (``sharing=``): ``'auto'`` lets the optimizer choose
per leaf, ``'on'`` always prefers indexed leaves, ``'off'`` disables
indexes entirely.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple, Union

from repro.core import parallel as par
from repro.core.config import EngineConfig, PlannerSpec
from repro.core.plancache import PlanCache
from repro.core.result import QueryResult, SeriesError, SeriesMatches
from repro.core.sink import truncate_matches
from repro.errors import (PlanError, QueryLintError, QueryTimeout,
                          error_kind)
from repro.exec.base import PhysicalOperator
from repro.exec.metrics import RunMetrics, instrument_plan
from repro.lang.query import Query, compile_query
from repro.plan.logical import LogicalNode, build_logical_plan
from repro.plan.prefilter import (PrefilterPlan, extract_prefilter,
                                  prefilter_report)
from repro.timeseries.series import Series
from repro.timeseries.table import Table

_logger = logging.getLogger(__name__)


def _resolve_rule_strategy(label: str):
    from repro.optimizer.rulebased import (BASELINE_STRATEGIES_WITH_NOT,
                                           RuleStrategy)
    for strategy in BASELINE_STRATEGIES_WITH_NOT:
        if strategy.label == label:
            return strategy
    raise PlanError(f"unknown planner {label!r}; expected 'cost', 'batch' or "
                    f"one of "
                    f"{[s.label for s in BASELINE_STRATEGIES_WITH_NOT]}")


class TRexEngine:
    """Pattern-search engine over historical time series."""

    def __init__(self, config: Optional[EngineConfig] = None, *,
                 plan_cache: Union[bool, PlanCache, None] = None,
                 **options: object):
        if config is None:
            config = EngineConfig(**options)
        elif options:
            raise TypeError("pass an EngineConfig or keyword options, "
                            "not both")
        #: Every option of this engine (:class:`EngineConfig` documents
        #: and validates them); the engine keeps no second copy.
        self.config = config
        #: Keyed compile/plan cache (:mod:`repro.core.plancache`):
        #: ``True`` builds an engine-private cache, or pass a shared
        #: :class:`PlanCache`.  A resource, not an option, so it is not
        #: part of the (frozen, picklable) config.
        if plan_cache is True:
            plan_cache = PlanCache()
        elif plan_cache is False:
            plan_cache = None
        self.plan_cache: Optional[PlanCache] = plan_cache
        #: Reason string for the most recent build_plan() fallback, or
        #: None when the requested planner was used.
        self.last_planner_fallback: Optional[str] = None

    def _lint_query(self, query: Query) -> None:
        from repro.analysis import analyze
        diags = analyze(query)
        errors = [d for d in diags if d.is_error]
        if errors:
            summary = "; ".join(d.format() for d in errors)
            raise QueryLintError(
                f"query rejected by static analysis: {summary}",
                diagnostics=diags)
        for diag in diags:
            _logger.warning("query lint: %s", diag.format())

    # -- planning -------------------------------------------------------------

    #: Rule strategy used when the cost-based planner fails (a safe,
    #: data-independent left-deep probe plan).
    FALLBACK_STRATEGY = "pr_left"

    def build_plan(self, query: Query, logical: LogicalNode,
                   series_list: List[Series],
                   deadline: Optional[float] = None,
                   planning_deadline: Optional[float] = None) \
            -> PhysicalOperator:
        """Build the physical plan used for every series of the query.

        Rule-based strategies are data-independent; the cost-based planner
        samples statistics from ``series_list`` (Appendix D.3) under the
        given time budgets.  If the cost-based planner raises anything
        but a :class:`QueryTimeout` (a planner bug, an injected fault, a
        blown planning budget), the engine falls back to the
        :attr:`FALLBACK_STRATEGY` rule plan and records the reason in
        :attr:`last_planner_fallback`.
        """
        from repro.optimizer.rulebased import RuleBasedPlanner, RuleStrategy

        self.last_planner_fallback = None
        sharing = self.config.sharing
        optimizer = self.config.optimizer
        leaf_sharing = "off" if sharing == "off" else "on"
        if isinstance(optimizer, RuleStrategy) or (
                isinstance(optimizer, str)
                and optimizer not in ("cost", "batch")):
            strategy = optimizer if isinstance(optimizer, RuleStrategy) \
                else _resolve_rule_strategy(optimizer)
            return RuleBasedPlanner(strategy, sharing=leaf_sharing).plan(
                query, logical)
        from repro.optimizer.planner import CostBasedPlanner
        planner = CostBasedPlanner(
            allow_probes=(optimizer != "batch"), sharing=sharing,
            vectorize=self.config.vectorize)
        try:
            return planner.plan(query, logical, series_list,
                                deadline=deadline,
                                planning_deadline=planning_deadline)
        except QueryTimeout:
            # The whole query is out of time; a fallback plan could not
            # execute anyway.  Handled by the engine's error policy.
            raise
        except Exception as exc:
            reason = (f"cost-based planner failed "
                      f"({type(exc).__name__}: {exc}); "
                      f"fell back to rule strategy "
                      f"{self.FALLBACK_STRATEGY!r}")
            _logger.warning("planner fallback: %s", reason)
            strategy = _resolve_rule_strategy(self.FALLBACK_STRATEGY)
            try:
                plan = RuleBasedPlanner(strategy, sharing=leaf_sharing).plan(
                    query, logical)
            except Exception:
                # Both planners reject the query: surface the original
                # cost-planner error, which names the root cause.
                raise exc
            self.last_planner_fallback = reason
            return plan

    # -- execution -----------------------------------------------------------

    def execute(self, table: Table, query_text: str,
                params: Optional[Dict[str, object]] = None) -> QueryResult:
        """Parse, plan and execute a query over a table."""
        if self.plan_cache is not None:
            query = self.plan_cache.compile(query_text, params)
        else:
            query = compile_query(query_text, params)
        return self.execute_query(query, table)

    def _plan_with_cache(self, query: Query, logical: LogicalNode,
                         non_empty: List[Series],
                         deadline: Optional[float],
                         planning_deadline: Optional[float]) \
            -> Tuple[PhysicalOperator, Optional[str],
                     PrefilterPlan]:
        """build_plan() through the plan cache; returns (plan, status,
        prefilter plan).

        ``status`` is ``'hit'``/``'miss'`` when a cache is configured,
        None otherwise.  Cached entries carry the planner-fallback
        reason recorded at build time, so a cached fallback plan is
        still reported as one on every reuse — and the extracted
        :class:`PrefilterPlan` (extraction is deterministic per bound
        query, so caching it is free and keeps repeat queries from
        re-walking the condition ASTs).
        """
        cache = self.plan_cache
        if cache is not None:
            key = cache.plan_key(query, self.config, non_empty)
            entry = cache.get_plan(key)
            if entry is not None:
                plan, self.last_planner_fallback, pfplan = entry
                return plan, "hit", pfplan
        plan = self.build_plan(query, logical, non_empty,
                               deadline=deadline,
                               planning_deadline=planning_deadline)
        pfplan = extract_prefilter(query, logical)
        if cache is None:
            return plan, None, pfplan
        cache.put_plan(key, (plan, self.last_planner_fallback, pfplan))
        return plan, "miss", pfplan

    def execute_query(self, query: Query,
                      table: Union[Table, List[Series]]) -> QueryResult:
        """Plan and execute a bound query."""
        config = self.config
        if config.lint:
            self._lint_query(query)
        if isinstance(table, Table):
            series_list = table.partition(query.partition_by, query.order_by)
        else:
            series_list = list(table)
        logical = build_logical_plan(query)

        result = QueryResult()
        non_empty = [series for series in series_list if len(series)]
        if not non_empty:
            result.per_series = [SeriesMatches(series.key, [])
                                 for series in series_list]
            return result
        # The deadline starts *before* planning so pathological planning
        # (and the DP/sampling inside it) cannot blow the query budget.
        t0 = time.perf_counter()
        deadline = None
        if config.timeout_seconds is not None:
            deadline = t0 + config.timeout_seconds
        planning_deadline = None
        if config.planning_timeout_seconds is not None:
            planning_deadline = t0 + config.planning_timeout_seconds
        try:
            plan, cache_status, pfplan = self._plan_with_cache(
                query, logical, non_empty, deadline, planning_deadline)
        except QueryTimeout as exc:
            if config.on_error == "raise":
                raise
            result.planning_seconds = time.perf_counter() - t0
            result.interrupted = True
            result.degradation = f"timeout: {exc}"
            result.per_series = [SeriesMatches(series.key, [])
                                 for series in series_list]
            return result
        t1 = time.perf_counter()
        result.planning_seconds = t1 - t0
        result.plan_explain = plan.explain()
        result.planner_fallback = self.last_planner_fallback
        if self.plan_cache is not None:
            counters: Dict[str, object] = dict(self.plan_cache.counters())
            counters["plan"] = cache_status
            result.plan_cache = counters
        # Analyze mode evaluates an instrumented shallow copy; the
        # original plan is untouched, so disabled mode pays nothing.
        exec_plan = instrument_plan(plan) if config.analyze else plan
        pf_totals: Counter = Counter()
        try:
            total_metrics = self._settle(
                result, plan, exec_plan, query, series_list, deadline,
                pfplan if config.prefilter else None, pf_totals)
        except KeyboardInterrupt:
            # SIGINT mid-query: under 'raise' the interrupt propagates
            # untouched; under 'skip'/'partial' the engine settles — the
            # series completed so far keep their matches (the 'partial'
            # guarantee: a sorted, duplicate-free subset of a full run)
            # and the result is marked interrupted (docs/ROBUSTNESS.md).
            # Under a pool backend the interrupt lands while waiting for
            # the pool, before the walk: no series has completed.
            if config.on_error == "raise":
                raise
            total_metrics = None
            done = len(result.per_series)
            for series in series_list[done:]:
                result.per_series.append(SeriesMatches(series.key, []))
            result.interrupted = True
            result.degradation = "interrupted: KeyboardInterrupt (SIGINT)"
        result.execution_wall_seconds = time.perf_counter() - t1
        if config.prefilter:
            result.prefilter = prefilter_report(pfplan, pf_totals)
        if total_metrics is not None:
            total_metrics.finalize(plan)
            result.op_metrics = total_metrics
            result.plan_analyze = total_metrics.annotate(plan)
            result.analyze_tree = total_metrics.tree_dict(plan)
            if result.prefilter is not None:
                pf = result.prefilter
                result.plan_analyze = (
                    f":: prefilter: {pf['plan']} "
                    f"(skipped={pf['series_skipped']} "
                    f"narrowed={pf['series_narrowed']} "
                    f"full={pf['series_full']} "
                    f"of {pf['series_examined']}; "
                    f"coverage={pf['coverage']:.2f}; "
                    f"aggindex built={pf['aggindex_built']} "
                    f"cached={pf['aggindex_cached']})\n"
                    + result.plan_analyze)
            if result.plan_cache is not None:
                result.plan_analyze = (
                    f":: plan cache: {result.plan_cache['plan']} "
                    f"(plan_hits={result.plan_cache['plan_hits']} "
                    f"plan_misses={result.plan_cache['plan_misses']})\n"
                    + result.plan_analyze)
            if result.planner_fallback:
                result.plan_analyze = (
                    f"!! planner fallback: {result.planner_fallback}\n"
                    + result.plan_analyze)
        return result

    def _settle(self, result: QueryResult, plan: PhysicalOperator,
                exec_plan: PhysicalOperator, query: Query,
                series_list: List[Series], deadline: Optional[float],
                pfplan: Optional[PrefilterPlan],
                pf_totals: Counter) -> Optional[RunMetrics]:
        """The one per-series pipeline: walk series in order and settle.

        The walk keeps the exact ``max_matches`` / ``max_segments``
        remainders.  A pool backend has already run every non-empty
        series concurrently with the *full* budgets; its outcome for a
        series is accepted only when a run arriving here with the exact
        remainders would have produced the same one
        (:meth:`_needs_replay`).  Every other series — all of them under
        ``executor='serial'``, where nothing was precomputed, and the
        one where a budget boundary falls under a pool — is run inline
        by the same :func:`parallel.run_series` with the exact
        remainders.  Budget exhaustion is deterministic (it depends only
        on the series, the plan and the numeric remainder), so every
        backend settles to the identical ``QueryResult``
        (docs/PARALLELISM.md).
        """
        config = self.config

        def task(index: int, series: Series, limit: Optional[int],
                 segment_budget: Optional[int]) -> par.SeriesTask:
            return par.SeriesTask(index=index, series=series, limit=limit,
                                  segment_budget=segment_budget,
                                  deadline=deadline, prefilter=pfplan)

        outcomes = par.dispatch(
            config, plan, query,
            (task(index, series, config.max_matches, config.max_segments)
             for index, series in enumerate(series_list) if len(series)))

        total_metrics = RunMetrics() if config.analyze else None
        exec_seconds = 0.0
        remaining = config.max_matches
        seg_remaining = config.max_segments
        stopped = False
        for index, series in enumerate(series_list):
            if stopped or len(series) == 0 \
                    or (remaining is not None and remaining <= 0):
                result.per_series.append(SeriesMatches(series.key, []))
                continue
            outcome = outcomes.get(index)
            if outcome is None or (
                    seg_remaining is not None
                    and self._needs_replay(outcome, seg_remaining)):
                outcome = par.run_series(
                    exec_plan, plan, query,
                    task(index, series, remaining, seg_remaining), config)
            if outcome.prefilter:
                pf_totals.update(outcome.prefilter)
            if outcome.error is not None and config.on_error == "raise":
                # First failure in series order propagates (a pool's
                # later results are discarded).  Re-raising the captured
                # object keeps its traceback down to the raising frame.
                raise outcome.error
            exec_seconds += outcome.seconds
            # Global max_matches settles deterministically here: a pool
            # worker kept its positionally-smallest max_matches bounds
            # (sorted), so the exact remainder's harvest is a plain
            # prefix of the worker's kept list (a no-op for inline runs).
            entry = SeriesMatches(
                series.key,
                truncate_matches(outcome.matches, remaining),
                stats=outcome.stats,
                seconds=outcome.seconds,
                metrics=outcome.metrics)
            if outcome.error is not None:
                kind = error_kind(outcome.error)
                keep_partial = config.on_error == "partial"
                if not keep_partial:
                    entry.matches = []
                entry.error = SeriesError(
                    series.key, type(outcome.error).__name__,
                    " ".join(str(outcome.error).split()), kind,
                    partial=keep_partial and bool(entry.matches))
                if kind in ("timeout", "budget"):
                    # A blown budget is global: stop, return what we have.
                    result.interrupted = True
                    result.degradation = f"{kind}: {entry.error.message}"
                    stopped = True
            if remaining is not None:
                remaining -= len(entry.matches)
            if seg_remaining is not None:
                seg_remaining = max(
                    0, seg_remaining - outcome.segments_charged)
                if seg_remaining == 0 and not stopped \
                        and config.on_error != "raise":
                    result.interrupted = True
                    result.degradation = (
                        f"budget: max_segments={config.max_segments} "
                        f"consumed")
                    stopped = True
            result.per_series.append(entry)
            if total_metrics is not None and outcome.metrics is not None:
                total_metrics.merge(outcome.metrics)
        result.execution_seconds = exec_seconds
        return total_metrics

    def _needs_replay(self, outcome: par.SeriesOutcome,
                      seg_remaining: int) -> bool:
        """Does the exact budget remainder invalidate this pool outcome?

        A worker ran with the *full* ``max_segments`` budget.  Its
        outcome stands only if an inline run arriving at this series
        with ``seg_remaining`` left would have behaved identically: it
        charged no more than the remainder, and any budget failure
        happened against exactly the budget the inline run would have
        used.
        """
        if outcome.segments_charged > seg_remaining:
            return True
        if outcome.error is None or error_kind(outcome.error) != "budget":
            return False
        # Budget failure against the full budget is only authoritative
        # when the exact remainder *is* the full budget.
        return seg_remaining != self.config.max_segments

    def explain_match(self, query: Query, series: Series, start: int,
                      end: int):
        """All variable-binding environments proving ``[start, end]``
        matches (a MEASURES-style introspection aid).

        Uses the exhaustive reference matcher, so intended for inspecting
        individual matches, not bulk extraction.
        """
        from repro.core.bruteforce import BruteForceMatcher
        return BruteForceMatcher(query).bindings_for_segment(series, start,
                                                             end)


def find_matches(table: Table, query_text: str,
                 params: Optional[Dict[str, object]] = None,
                 optimizer: PlannerSpec = "cost",
                 sharing: str = "auto") -> QueryResult:
    """One-call convenience API: run a pattern query over a table."""
    engine = TRexEngine(optimizer=optimizer, sharing=sharing)
    return engine.execute(table, query_text, params)
