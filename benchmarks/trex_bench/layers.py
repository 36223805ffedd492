"""The traced run: per-layer numbers from spans the benchmark records
around calls into each layer's public functions.

Nothing inside ``src/`` is instrumented.  For an in-process operation the
benchmark first runs ``TRexEngine.execute`` untraced, then replays the
same call sequence ``execute`` performs with one span per call, then
runs probes that are *not* on the operation's path (an instrumented
evaluation for operator self-times, the prefilter and summary index the
default engine leaves off, an eager index build).  Spans of one
operation share its id; they stay in memory until the run ends.

Layer symbols are resolved lazily by dotted path: when a refactor moves
one, the metrics that need it read ``null`` with the reason and the
end-to-end numbers are untouched.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

import spec
from report import metric

SYMBOLS = {
    "compile_query": "repro.lang.query:compile_query",
    "build_logical_plan": "repro.plan.logical:build_logical_plan",
    "ExecContext": "repro.exec.base:ExecContext",
    "SearchSpace": "repro.plan.search_space:SearchSpace",
    "MatchSink": "repro.core.sink:MatchSink",
    "collect_stats": "repro.optimizer.stats:collect_stats",
    "instrument_plan": "repro.exec.metrics:instrument_plan",
    "RunMetrics": "repro.exec.metrics:RunMetrics",
    "extract_prefilter": "repro.plan.prefilter:extract_prefilter",
    "decide": "repro.plan.prefilter:decide",
    "summary_for": "repro.index.summary:summary_for",
    "response_bytes": "repro.service.http:response_bytes",
}

#: Spans on the operation's own path; their sum against the untraced
#: wall is ``trace.coverage_share``.  ``bench.check`` is the digest
#: check, which the operation as defined includes.
PATH_SPANS = ("lang.compile", "timeseries.partition", "plan.logical",
              "optimizer.plan", "exec.eval", "bench.check")

#: Operator self-time groups, by the module that defines the class.
OPERATOR_GROUPS = ("seggen", "concat", "and_or", "kleene", "not_op")


class Symbols:
    """Lazy, failure-recording lookup of layer entry points."""

    def __init__(self) -> None:
        self._found: Dict[str, object] = {}
        self.missing: Dict[str, str] = {}

    def get(self, key: str):
        if key in self._found:
            return self._found[key]
        if key in self.missing:
            return None
        module_name, _, attr = SYMBOLS[key].partition(":")
        try:
            found = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as exc:
            self.missing[key] = f"{SYMBOLS[key]} not found ({exc})"
            return None
        self._found[key] = found
        return found

    def need(self, *keys: str) -> Optional[str]:
        """``None`` when every symbol resolves, else the first reason."""
        for key in keys:
            if self.get(key) is None:
                return self.missing[key]
        return None


class Tracer:
    """In-memory span list: name, start, end, parent, operation id."""

    def __init__(self) -> None:
        self.spans: List[dict] = []

    @contextmanager
    def span(self, name: str, op: str, parent: Optional[int] = None,
             **attrs):
        record = {"id": len(self.spans), "name": name, "op": op,
                  "parent": parent, "start": time.perf_counter(),
                  "end": None, **attrs}
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def seconds_of(record: dict) -> float:
    return record["end"] - record["start"]


class LayerTrace:
    """Accumulates one workload's traced operations into the per-layer
    metrics."""

    def __init__(self, runner, tracer: Tracer):
        self.runner = runner
        self.tracer = tracer
        self.symbols = Symbols()
        self.operations = 0
        self.untraced_s = 0.0
        self.span_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.replay_off: Optional[str] = self.symbols.need(
            "compile_query", "build_logical_plan", "ExecContext",
            "SearchSpace", "MatchSink")
        #: Filled by the serve runner's capture hook.
        self.service: Dict[str, float] = defaultdict(float)
        self.service_stats: Optional[dict] = None

    @contextmanager
    def span(self, name: str, op: str, parent: Optional[int] = None,
             **attrs):
        """A tracer span whose duration is also summed under its name."""
        with self.tracer.span(name, op, parent, **attrs) as record:
            yield record
        self.span_s[name] += seconds_of(record)

    # -- in-process operations ----------------------------------------------

    def operation(self, op: dict, params: dict, untraced=None) -> dict:
        """Untraced execute, traced replay, then the off-path probes."""
        run_untraced = untraced or self.runner.operation
        sample = run_untraced(op, params)
        if self.replay_off is not None or not sample["ok"]:
            return sample
        try:
            self.replay(op, params, sample["seconds"])
        except Exception as exc:  # noqa: BLE001 — tracing must not fail a run
            self.replay_off = (f"replay of {op['id']} raised "
                               f"{type(exc).__name__}: {exc}")
        return sample

    def replay(self, op: dict, params: dict, untraced_seconds: float):
        sym = self.symbols.get
        runner, span = self.runner, self.span
        text = runner.workload["texts"][op["text"]]
        table = runner.tables[op["table"]]
        engine = runner.engine
        full = sym("SearchSpace").full
        with span("operation", op["id"]) as root:
            rid = root["id"]
            with span("lang.compile", op["id"], rid):
                query = sym("compile_query")(text, params)
            with span("timeseries.partition", op["id"], rid):
                series_list = table.partition(query.partition_by,
                                              query.order_by)
            with span("plan.logical", op["id"], rid):
                logical = sym("build_logical_plan")(query)
            non_empty = [s for s in series_list if len(s)]
            with span("optimizer.plan", op["id"], rid):
                plan = engine.build_plan(query, logical, non_empty)
            plan.explain()
            triples = []
            for series in non_empty:
                with span("exec.eval", op["id"], rid,
                          series=spec.label(series.key)):
                    ctx = sym("ExecContext")(series, query.registry)
                    sink = sym("MatchSink")(None)
                    sink.consume(plan.eval(ctx, full(len(series)), {}), ctx)
                    matches = sink.finish()
                self.counts.update(ctx.stats)
                triples.extend((spec.label(series.key), s, e)
                               for s, e in matches)
            with span("bench.check", op["id"], rid):
                got = spec.digest(triples)
        if runner.expected is not None \
                and got != runner.expected.get(op["id"]):
            raise AssertionError(f"replay digest {got} differs from the "
                                 f"engine's")
        self.operations += 1
        self.untraced_s += untraced_seconds
        self.counts["matches"] += len(triples)
        if engine.last_planner_fallback:
            self.counts["planner_fallbacks"] += 1
        self.probes(op["id"], rid, query, logical, plan, non_empty, triples)

    def probes(self, op_id, rid, query, logical, plan, non_empty,
               triples) -> None:
        """Calls the default engine does not make on this path; their
        spans carry ``probe=True`` and stay out of the coverage sum."""
        sym, span = self.symbols.get, self.span
        full = sym("SearchSpace").full
        ExecContext = sym("ExecContext")

        if sym("collect_stats") is not None:
            # Same arguments CostBasedPlanner passes (its defaults).
            with span("optimizer.stats", op_id, rid, probe=True):
                sym("collect_stats")(query, non_empty)

        if self.symbols.need("instrument_plan", "RunMetrics") is None:
            groups = operator_groups(plan)
            shim = sym("instrument_plan")(plan)
            with span("exec.instrumented", op_id, rid, probe=True):
                for series in non_empty:
                    ctx = ExecContext(series, query.registry,
                                      metrics=sym("RunMetrics")())
                    sink = sym("MatchSink")(None)
                    sink.consume(shim.eval(ctx, full(len(series)), {}), ctx)
                    ctx.metrics.finalize(plan)
                    for op_metrics in ctx.metrics.ops.values():
                        group = groups.get(op_metrics.op_id, "other")
                        self.self_s[group] += op_metrics.self_seconds
                        if group == "seggen":
                            self.counts["seggen_eval_calls"] += \
                                op_metrics.eval_calls

        if hasattr(ExecContext, "prebuild_indexes"):
            calls = [call for var in query.variables.values()
                     for call in var.aggregate_calls()]
            with span("aggregates.index_build", op_id, rid, probe=True):
                for series in non_empty:
                    ExecContext(series, query.registry) \
                        .prebuild_indexes(calls)

        if sym("response_bytes") is not None and not self.service:
            # What JSON framing of this result would cost a server.
            matches: Dict[str, list] = defaultdict(list)
            for series, start, end in triples:
                matches[series].append([start, end])
            with span("service.serialize", op_id, rid, probe=True):
                raw = sym("response_bytes")(
                    200, {"matches": matches, "total_matches": len(triples)})
            self.counts["response_bytes"] += len(raw)

        if self.symbols.need("extract_prefilter", "decide",
                             "summary_for") is None:
            with span("plan.prefilter.extract", op_id, rid, probe=True):
                pfplan = sym("extract_prefilter")(query, logical)
            if not pfplan.active:
                return
            # First touch of each (re-partitioned) series, as a
            # prefilter-on engine would make it; then the decision
            # itself, which finds the summary cached.
            touched: Counter = Counter()
            with span("index.summary_build", op_id, rid, probe=True):
                for series in non_empty:
                    sym("summary_for")(series, pfplan.block_size, touched)
            self.counts["summary_requests"] += sum(touched.values())
            self.counts["summary_cached"] += touched["index_cached"]
            with span("plan.prefilter.decide", op_id, rid, probe=True):
                for series in non_empty:
                    kind, ranges = sym("decide")(
                        pfplan, series, ExecContext(series, query.registry),
                        Counter())
                    n = len(series)
                    self.counts["pf_series"] += 1
                    self.counts["pf_points"] += n
                    if kind == "skip":
                        self.counts["pf_skipped"] += 1
                    elif kind == "narrow":
                        self.counts["pf_candidate_points"] += sum(
                            hi - lo + 1 for lo, hi in ranges)
                    else:
                        self.counts["pf_candidate_points"] += n

    # -- service (outside-only) ---------------------------------------------

    def capture_response(self, op: dict, params: dict, seconds: float,
                         body: dict) -> None:
        """Serve runner hook: one parsed 200 body and its client latency."""
        meta = body.get("meta", {})
        total = meta.get("queue_to_response_seconds")
        if total is None:
            return
        work = meta.get("planning_seconds", 0.0) \
            + meta.get("execution_seconds", 0.0)
        service = self.service
        service["responses"] += 1
        service["latency_s"] += seconds
        service["overhead_s"] += seconds - total
        service["queue_wait_s"] += total - work
        service["exec_s"] += work
        cache = body.get("plan_cache") or {}
        if cache.get("plan") in ("hit", "miss"):
            service["plan_lookups"] += 1
            service["plan_hits"] += cache["plan"] == "hit"
        response_bytes = self.symbols.get("response_bytes")
        if response_bytes is not None:
            t0 = time.perf_counter()
            raw = response_bytes(200, body)
            service["serialize_s"] += time.perf_counter() - t0
            service["response_bytes"] += len(raw)

    # -- the metrics --------------------------------------------------------

    def metrics(self, untraced_pass_s: Optional[float] = None,
                traced_pass_s: Optional[float] = None) -> Dict[str, dict]:
        ops = self.operations
        off = self.replay_off or ("no operation was replayed"
                                  if not ops else None)

        def null(unit: str, reason: str) -> dict:
            return metric(None, unit, reason=reason)

        def per_op_ms(seconds: float) -> float:
            return seconds / ops * 1e3

        def ms(seconds: float, reason: Optional[str]) -> dict:
            if reason:
                return null("ms", reason)
            return metric(per_op_ms(seconds), "ms")

        def span_ms(name: str, *needs: str) -> dict:
            return ms(self.span_s[name], off or self.symbols.need(*needs))

        def share(part: float, whole: float, reason: Optional[str]) -> dict:
            if reason or not whole:
                return null("ratio", reason or "nothing to divide by")
            return metric(part / whole, "ratio")

        def count(name: str, reason: Optional[str] = off) -> dict:
            if reason:
                return null("count", reason)
            return metric(self.counts[name] / ops, "count")

        out: Dict[str, dict] = {}
        out["lang.compile_ms"] = span_ms("lang.compile")
        out["lang.compile_share"] = share(self.span_s["lang.compile"],
                                          self.untraced_s, off)
        out["timeseries.partition_ms"] = span_ms("timeseries.partition")
        out["plan.logical_ms"] = span_ms("plan.logical")
        pf_needs = ("extract_prefilter", "decide", "summary_for")
        pf_off = off or self.symbols.need(*pf_needs)
        out["plan.prefilter.extract_ms"] = span_ms(
            "plan.prefilter.extract", *pf_needs)
        out["plan.prefilter.decide_ms"] = span_ms(
            "plan.prefilter.decide", *pf_needs)
        inert = None if self.counts["pf_series"] else \
            "no operation has an active prefilter plan"
        out["plan.prefilter.series_skipped_share"] = share(
            self.counts["pf_skipped"], self.counts["pf_series"],
            pf_off or inert)
        out["plan.prefilter.coverage"] = share(
            self.counts["pf_candidate_points"], self.counts["pf_points"],
            pf_off or inert)
        out["index.summary_build_ms"] = span_ms(
            "index.summary_build", *pf_needs)
        out["index.cache_hit_share"] = share(
            self.counts["summary_cached"], self.counts["summary_requests"],
            pf_off or inert)
        out["optimizer.plan_ms"] = span_ms("optimizer.plan")
        out["optimizer.plan_share"] = share(self.span_s["optimizer.plan"],
                                            self.untraced_s, off)
        out["optimizer.stats_ms"] = span_ms("optimizer.stats",
                                            "collect_stats")
        out["optimizer.dp_ms"] = ms(
            self.span_s["optimizer.plan"] - self.span_s["optimizer.stats"],
            off or self.symbols.need("collect_stats"))
        out["optimizer.fallback_count"] = count("planner_fallbacks")

        service = self.service
        if service["plan_lookups"]:
            out["core.plancache.plan_hit_share"] = metric(
                service["plan_hits"] / service["plan_lookups"], "ratio")
        else:
            out["core.plancache.plan_hit_share"] = null(
                "ratio", "the default TRexEngine() has no plan cache")
        compile_share = cache_delta_share(self.service_stats, "compile")
        out["core.plancache.compile_hit_share"] = compile_share or null(
            "ratio", "the default TRexEngine() has no plan cache")

        out["exec.eval_ms"] = span_ms("exec.eval")
        out["exec.eval_share"] = share(self.span_s["exec.eval"],
                                       self.untraced_s, off)
        shim_off = off or self.symbols.need("instrument_plan", "RunMetrics")
        for group in OPERATOR_GROUPS + ("other",):
            out[f"exec.{group}.self_ms"] = ms(self.self_s[group], shim_off)
        out["exec.seggen.eval_calls"] = count("seggen_eval_calls", shim_off)
        out["exec.condition_evals"] = count("condition_evals")
        out["exec.segments_out"] = count("segments_emitted")
        out["exec.index_lookups"] = count("index_lookups")
        out["exec.matches_per_candidate"] = share(
            self.counts["matches"], self.counts["condition_evals"], off)
        out["aggregates.index_build_ms"] = span_ms("aggregates.index_build")

        served = service["responses"]
        no_server = "in-process workload: no server"

        def service_ms(key: str) -> dict:
            if not served:
                return null("ms", no_server)
            return metric(service[key] / served * 1e3, "ms")

        out["service.overhead_ms"] = service_ms("overhead_s")
        out["service.queue_wait_ms"] = service_ms("queue_wait_s")
        out["service.exec_ms"] = service_ms("exec_s")
        no_framing = self.symbols.need("response_bytes")
        if no_framing:
            out["service.serialize_ms"] = null("ms", no_framing)
            out["service.response_bytes"] = null("count", no_framing)
        elif served:
            out["service.serialize_ms"] = service_ms("serialize_s")
            out["service.response_bytes"] = metric(
                service["response_bytes"] / served, "count")
        else:  # in-process: the probe on each operation's own matches
            out["service.serialize_ms"] = span_ms("service.serialize")
            out["service.response_bytes"] = count("response_bytes")
        for name, keys in (("service.shed_count",
                            ("shed_queue_full", "shed_deadline")),
                           ("service.retry_count", ("retries",))):
            if self.service_stats is None:
                out[name] = null("count", no_server)
            else:
                counters = self.service_stats["after"]["service"]["counters"]
                out[name] = metric(sum(counters.get(k, 0) for k in keys),
                                   "count")

        if served:
            # Outside view: what of the client's latency the server's own
            # clocks and the serialisation probe account for.
            out["trace.coverage_share"] = metric(
                (service["queue_wait_s"] + service["exec_s"]
                 + service["serialize_s"]) / service["latency_s"], "ratio")
            out["trace.overhead_share"] = share(
                traced_pass_s - untraced_pass_s, untraced_pass_s, None)
        else:
            out["trace.coverage_share"] = share(
                sum(self.span_s[name] for name in PATH_SPANS),
                self.untraced_s, off)
            out["trace.overhead_share"] = share(
                self.span_s["operation"] - self.untraced_s, self.untraced_s,
                off)
        return out


def operator_groups(plan) -> Dict[int, str]:
    """``op_id`` -> the operator class's defining module (``seggen``,
    ``concat``, ...), everything else ``other``."""
    groups: Dict[int, str] = {}
    stack = [plan]
    while stack:
        op = stack.pop()
        module = type(op).__module__.rsplit(".", 1)[-1]
        groups[op.op_id] = module if module in OPERATOR_GROUPS else "other"
        stack.extend(op.children())
    return groups


def cache_delta_share(stats: Optional[dict], stage: str) -> Optional[dict]:
    """Hit share of one plan-cache stage between two ``/stats`` reads."""
    if stats is None:
        return None
    before, after = (stats[k].get("plan_cache", {})
                     for k in ("before", "after"))
    hits = after.get(f"{stage}_hits", 0) - before.get(f"{stage}_hits", 0)
    misses = after.get(f"{stage}_misses", 0) \
        - before.get(f"{stage}_misses", 0)
    if hits + misses == 0:
        return None
    return metric(hits / (hits + misses), "ratio")
