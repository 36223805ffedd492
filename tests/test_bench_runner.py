"""Tests for the experiment harness itself (repro.bench.runner)."""

import math

import pytest

from repro.bench.runner import (OptimizerComparison, format_table,
                                median_slowdowns, median_speedups,
                                run_executor_comparison,
                                run_optimizer_comparison,
                                run_sharing_ablation)
from repro.datasets import load
from repro.queries import get_template


@pytest.fixture(scope="module")
def sp500_tiny():
    return load("sp500", num_series=3, length=60)


class TestOptimizerComparison:
    def test_slowdowns_fastest_is_one(self):
        comparison = OptimizerComparison(
            {}, {"a": 2.0, "b": 1.0, "optimizer": 1.5}, {})
        slowdowns = comparison.slowdowns()
        assert slowdowns["b"] == 1.0
        assert slowdowns["a"] == 2.0

    def test_slowdowns_with_timeout(self):
        comparison = OptimizerComparison(
            {}, {"a": math.inf, "b": 2.0}, {})
        slowdowns = comparison.slowdowns()
        assert slowdowns["b"] == 1.0
        assert slowdowns["a"] == math.inf

    def test_run_produces_all_labels(self, sp500_tiny):
        template = get_template("v_shape")
        comparisons = run_optimizer_comparison(
            template, sp500_tiny, param_sets=template.param_sets()[:1])
        (comparison,) = comparisons
        assert set(comparison.times) == {
            "pr_left", "pr_right", "sm_left", "sm_right", "optimizer"}
        assert len(set(comparison.matches.values())) == 1

    def test_not_query_gets_pnot_variants(self, sp500_tiny):
        template = get_template("limit_sell")
        comparisons = run_optimizer_comparison(
            template, sp500_tiny, param_sets=template.param_sets()[:1])
        assert "pr_left_pnot" in comparisons[0].times

    def test_timeout_marks_inf(self, sp500_tiny):
        template = get_template("v_shape")
        comparisons = run_optimizer_comparison(
            template, sp500_tiny, param_sets=template.param_sets()[:2],
            timeout_seconds=1e-4)
        # Every baseline times out after its first instance.
        second = comparisons[1]
        assert all(second.times[label] == math.inf
                   for label in second.times if label != "optimizer")

    def test_median_slowdowns(self):
        comparisons = [
            OptimizerComparison({}, {"a": 1.0, "b": 2.0}, {}),
            OptimizerComparison({}, {"a": 3.0, "b": 1.0}, {}),
        ]
        medians = median_slowdowns(comparisons)
        assert medians["a"] == pytest.approx(2.0)
        assert medians["b"] == pytest.approx(1.5)


class TestExecutorComparison:
    def test_rows_and_speedups(self, sp500_tiny):
        template = get_template("v_shape")
        results = run_executor_comparison(
            template, sp500_tiny, ["trex", "zstream"],
            param_sets=template.param_sets()[:1])
        assert set(results) == {"trex", "zstream"}
        speedups = median_speedups(results, reference="trex")
        assert "zstream" in speedups and speedups["zstream"] > 0

    def test_sharing_ablation_checks_results(self, sp500_tiny):
        template = get_template("v_shape")
        speedups = run_sharing_ablation(
            template, sp500_tiny, ["trex"],
            param_sets=template.param_sets()[:1])
        assert speedups["trex"] > 0


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [("a", 1), ("long-name", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]


class TestToolsCLI:
    def test_table2(self, capsys):
        import sys
        sys.path.insert(0, "tools")
        try:
            import run_experiments
        finally:
            sys.path.pop(0)
        run_experiments._tables.clear()
        run_experiments.main(["table2", "--scale", "ci"])
        out = capsys.readouterr().out
        assert "Table 2" in out and "sp500" in out

    def test_unknown_experiment(self):
        import sys
        sys.path.insert(0, "tools")
        try:
            import run_experiments
        finally:
            sys.path.pop(0)
        with pytest.raises(SystemExit):
            run_experiments.main(["frobnicate"])
