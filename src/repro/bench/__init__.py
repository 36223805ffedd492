"""Experiment harness for regenerating every table and figure."""

from repro.bench.ndcg import dcg, ndcg_from_times
from repro.bench.runner import (OptimizerComparison, format_table,
                                median_slowdowns, median_speedups,
                                run_executor_comparison, run_ndcg,
                                run_optimizer_comparison,
                                run_sharing_ablation, timed)

__all__ = ["dcg", "ndcg_from_times", "OptimizerComparison", "format_table",
           "median_slowdowns", "median_speedups", "run_executor_comparison",
           "run_ndcg", "run_optimizer_comparison", "run_sharing_ablation",
           "timed"]
