"""EXPLAIN ANALYZE metrics layer tests (docs/OBSERVABILITY.md)."""

import json

import numpy as np
import pytest

from repro.core.engine import TRexEngine
from repro.core.plancache import PlanCache
from repro.datasets import load
from repro.exec.base import ExecContext
from repro.exec.metrics import OpMetrics, RunMetrics
from repro.exec.seggen import SegGenWindow
from repro.lang.query import compile_query
from repro.lang.windows import WindowConjunction, WindowSpec
from repro.plan.search_space import SearchSpace
from repro.queries.templates import ALL_TEMPLATES

from tests.conftest import make_series

QUERY = """
ORDER BY tstamp
PATTERN ((DN & W) (UP & W)) & WINDOW
DEFINE SEGMENT W AS window(2, null),
  SEGMENT DN AS linear_reg_r2_signed(DN.tstamp, DN.val) <= -0.5,
  SEGMENT UP AS linear_reg_r2_signed(UP.tstamp, UP.val) >= 0.5,
  SEGMENT WINDOW AS window(1, 20)
"""


def series_list(count=2, n=50):
    rng = np.random.default_rng(11)
    return [make_series(np.cumsum(rng.normal(0, 1, n)) + 50,
                        key=(f"s{i}",)) for i in range(count)]


def run(optimizer="cost", analyze=True, **kwargs):
    engine = TRexEngine(optimizer=optimizer, analyze=analyze, **kwargs)
    return engine.execute_query(compile_query(QUERY), series_list())


class TestInstrumentPlan:
    """Every plan reports to ``ctx.metrics`` through the operator entry;
    nothing copies or instruments a plan."""

    def test_cached_plan_shared_untouched(self):
        cache = PlanCache()
        query, series = compile_query(QUERY), series_list()
        analyzed = TRexEngine(analyze=True, plan_cache=cache)
        first = analyzed.execute_query(query, series)
        second = analyzed.execute_query(query, series)
        assert second.plan_cache["plan"] == "hit"
        assert second.all_matches() == first.all_matches()
        plan, _, _ = cache.get_plan(
            cache.plan_key(query, analyzed.config, series))
        pending = [plan]
        while pending:
            op = pending.pop()
            assert "eval" not in vars(op)
            assert "eval_spaces" not in vars(op)
            pending.extend(op.children())
        plain = TRexEngine(plan_cache=cache).execute_query(query, series)
        assert plain.plan_cache["plan"] == "hit"
        assert plain.all_matches() == first.all_matches()
        assert plain.stats == first.stats
        assert plain.op_metrics is None

    def test_uninstrumented_context_passthrough(self):
        """An observed entry yields what the unobserved one yields."""
        series = make_series([1, 2, 3, 4])
        op = SegGenWindow(
            WindowConjunction([WindowSpec.point(1, 2)]), "W")
        observed = ExecContext(series, metrics=RunMetrics())
        got = sorted({seg.bounds for seg in op.eval(
            observed, SearchSpace.full(4), {})})
        want = sorted({seg.bounds for seg in op.eval(
            ExecContext(series), SearchSpace.full(4), {})})
        assert got == want

    def test_records_calls_segments_and_spaces(self):
        series = make_series([1, 2, 3, 4])
        op = SegGenWindow(
            WindowConjunction([WindowSpec.point(1, 2)]), "W")
        metrics = RunMetrics()
        ctx = ExecContext(series, metrics=metrics)
        segments = list(op.eval(ctx, SearchSpace.full(4), {}))
        record = metrics.ops[op.op_id]
        assert record.eval_calls == 1
        assert record.segments_out == len(segments) == 5
        assert record.sum_ls == record.sum_le == 4  # full space, len 4
        assert record.max_ls == record.max_le == 4
        assert record.time_seconds > 0


class TestAnalyzeMode:
    def test_matches_unchanged_and_metrics_attached(self):
        plain = run(analyze=False)
        analyzed = run(analyze=True)
        assert plain.all_matches() == analyzed.all_matches()
        assert plain.op_metrics is None
        assert plain.plan_analyze == ""
        assert analyzed.op_metrics is not None
        assert analyzed.plan_analyze

    def test_per_series_metrics_sum_to_aggregate(self):
        result = run()
        per_series = [entry.metrics for entry in result.per_series]
        assert all(m is not None for m in per_series)
        for op_id, total in result.op_metrics.ops.items():
            assert total.eval_calls == sum(
                m.ops[op_id].eval_calls
                for m in per_series if op_id in m.ops)
            assert total.segments_out == sum(
                m.ops[op_id].segments_out
                for m in per_series if op_id in m.ops)

    def test_self_time_bounded_by_cumulative(self):
        result = run()
        for record in result.op_metrics.ops.values():
            assert 0.0 <= record.self_seconds <= record.time_seconds + 1e-9

    def test_segments_in_matches_children_out(self):
        tree = run().analyze_tree
        checked = 0
        for node in _walk(tree):
            children = node.get("children", [])
            if children and "metrics" in node:
                want = sum(c["metrics"]["segments_out"]
                           for c in children if "metrics" in c)
                assert node["metrics"]["segments_in"] == want
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("optimizer", ["cost", "sm_left", "pr_left"])
    def test_segments_emitted_is_what_operators_yielded(self, optimizer):
        """``stats["segments_emitted"]`` counts yielded segments (after
        the join operators' deduplication), i.e. exactly what the entry
        wrapper counts as ``segments_out`` operator by operator — on the
        running query and on every template's first grid point."""
        runs = [(QUERY, run(optimizer=optimizer))]
        for template in ALL_TEMPLATES:
            table = load(template.dataset, num_series=2, length=80)
            engine = TRexEngine(optimizer=optimizer, analyze=True)
            runs.append((template.name, engine.execute_query(
                template.compile(template.param_sets()[0]), table)))
        counts = {name: (result.stats["segments_emitted"],
                         sum(record.segments_out
                             for record in result.op_metrics.ops.values()))
                  for name, result in runs}
        assert {name: pair for name, pair in counts.items()
                if pair[0] != pair[1]} == {}
        assert counts[QUERY][0] > 0

    def test_probe_counters_attributed(self):
        result = run(optimizer="pr_left")
        counters = sum((record.counters
                        for record in result.op_metrics.ops.values()),
                       start=__import__("collections").Counter())
        assert counters["probe_cache_misses"] == \
            result.stats["probe_calls"]
        assert counters["probe_cache_hits"] == \
            result.stats["probe_cache_hits"]
        assert counters["probe_cache_misses"] > 0

    def test_annotated_tree_lists_every_operator(self):
        result = run()
        for record in result.op_metrics.ops.values():
            assert record.label.split("(")[0] in result.plan_analyze

    def test_stats_property_backward_compatible(self):
        result = run()
        folded = __import__("collections").Counter()
        for entry in result.per_series:
            folded.update(entry.stats)
        assert result.stats == folded
        assert result.stats["condition_evals"] > 0


class TestMetricsJson:
    def test_metrics_dict_is_json_serializable(self):
        result = run()
        text = json.dumps(result.metrics_dict(), sort_keys=True)
        data = json.loads(text)
        assert data["total_matches"] == result.total_matches
        assert len(data["per_series"]) == 2
        assert "metrics" in data["plan"]
        assert data["operators"]

    def test_plan_tree_mirrors_operators_section(self):
        data = run().metrics_dict()
        tree_ids = {node["op_id"] for node in _walk(data["plan"])}
        flat_ids = {entry["op_id"] for entry in data["operators"]}
        assert flat_ids <= tree_ids

    def test_disabled_mode_has_no_plan_section(self):
        data = run(analyze=False).metrics_dict()
        assert "plan" not in data
        assert "operators" not in data
        assert data["per_series"][0]["stats"]  # per-series stats remain


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


class TestOpMetricsUnit:
    def test_merge_accumulates(self):
        a = OpMetrics(op_id=1, label="X")
        b = OpMetrics(op_id=1, label="X")
        a.eval_calls, b.eval_calls = 2, 3
        a.segments_out, b.segments_out = 10, 20
        a.max_ls, b.max_ls = 5, 9
        a.counters["hits"] = 1
        b.counters["hits"] = 4
        a.merge(b)
        assert a.eval_calls == 5
        assert a.segments_out == 30
        assert a.max_ls == 9
        assert a.counters["hits"] == 5

    def test_observe_space(self):
        record = OpMetrics(op_id=1, label="X")
        record.eval_calls = 1
        record.observe_space(SearchSpace(0, 9, 0, 4))
        assert record.sum_ls == 10 and record.sum_le == 5
        assert record.avg_ls == pytest.approx(10.0)

    def test_annotation_mentions_key_metrics(self):
        record = OpMetrics(op_id=1, label="X")
        record.eval_calls = 1
        record.observe_space(SearchSpace(0, 9, 0, 4))
        text = record.annotation()
        for token in ("time=", "self=", "evals=", "out=", "ls_avg="):
            assert token in text
