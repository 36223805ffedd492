"""Cost-model parameters (Section 5.1, Appendix D, Tables 5 & 6).

Operator cost is a one-parameter linear function of a cardinality sum
(Equation 1); aggregate costs follow constant/linear/quadratic shapes in
the start–end range size (indexing) or the average segment length (per
evaluation).  The shipped defaults are the paper's offline-profiled values
(Tables 5 & 6, in nanoseconds); :mod:`repro.optimizer.profiler` re-fits
them on the local machine, regenerating those tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.aggregates.base import Aggregate

#: Paper Table 5 — w in f_op per physical operator (nanoseconds).
DEFAULT_OPERATOR_WEIGHTS: Dict[str, float] = {
    "SegGenWindow": 193.0,
    "SegGenFilter": 502.0,
    "SegGenIndexing": 501.0,
    "SortMergeConcat": 671.0,
    "RightProbeConcat": 1583.0,
    "LeftProbeConcat": 1583.0,
    "SortMergeOr": 747.0,
    "MaterializeNot": 440.0,
    "ProbeNot": 2168.0,
    "MaterializeKleene": 1577.0,
    "SortMergeAnd": 588.0,
    "LeftProbeAnd": 2077.0,
    "RightProbeAnd": 2077.0,
    # Not in the paper's table; profiled locally, defaults chosen near the
    # closest relatives.
    "Filter": 502.0,
    "WildWindowConcat": 671.0,
}

#: Paper Table 6 — (w_ind, w_lookup, w_direct) per aggregate (nanoseconds);
#: shapes come from the aggregate classes themselves.
DEFAULT_AGGREGATE_WEIGHTS: Dict[str, Tuple[float, float, float]] = {
    "linear_regression_r2": (380.0, 50.0, 903.0),
    "linear_regression_r2_signed": (380.0, 50.0, 903.0),
    "mann_kendall_test": (761.0, 50.0, 99.0),
    "zscore_outlier": (0.0, 0.0, 34.0),
    "corr": (0.0, 0.0, 400.0),
    "equal_up_down_ticks": (120.0, 50.0, 150.0),
    "sum": (60.0, 30.0, 40.0),
    "avg": (60.0, 30.0, 40.0),
    "count": (10.0, 10.0, 10.0),
    "min": (120.0, 40.0, 40.0),
    "max": (120.0, 40.0, 40.0),
    "stddev": (90.0, 40.0, 60.0),
    "slope": (300.0, 45.0, 700.0),
    "median": (0.0, 0.0, 250.0),
    "max_drawdown": (0.0, 0.0, 220.0),
}

#: Fallback weights for unknown (user-defined) aggregates, by shape.
_FALLBACK_AGG = (200.0, 50.0, 400.0)

#: Cost charged per plain (non-aggregate) condition evaluation.
DEFAULT_EXPR_EVAL_COST = 150.0

#: Fixed cost charged per probe invocation (Left/Right-Probe, ProbeNot).
DEFAULT_PROBE_OVERHEAD = 3000.0

#: Per-candidate cost multiplier for leaf conditions the vector kernels
#: (:mod:`repro.exec.vector`) can compile.  Batched numpy evaluation
#: amortizes interpreter overhead across candidates, so the *per-row*
#: leaf cost shrinks while index-build cost is unchanged.  The value is
#: deliberately conservative (measured batch speedups are far larger on
#: long ranges, but probe-sized ranges see little benefit); it is
#: applied whether or not the runtime toggle ends up enabled, keeping
#: planning deterministic and toggle-independent.
DEFAULT_VECTOR_LEAF_DISCOUNT = 0.45

#: Points per symbolic-index block (:mod:`repro.index.summary`).  Like
#: the vector discount above, these prefilter parameters are consumed at
#: *runtime* only — planning costs never depend on the prefilter toggle,
#: so the physical plan (and ``plan_explain``) is byte-identical whether
#: the prefilter is on or off (docs/PREFILTER.md).
DEFAULT_PREFILTER_BLOCK_SIZE = 64

#: When the candidate ranges the prefilter materialized still cover at
#: least this fraction of the series, narrowing cannot pay for its own
#: bookkeeping: the prefilter falls back to the full scan for that
#: series (decision recorded in the ``series_full`` counter).
DEFAULT_PREFILTER_COVERAGE_GATE = 0.95


def shape_value(shape: Optional[str], size: float) -> float:
    """Evaluate a cost shape ('C'/'L'/'Q') at ``size``."""
    if shape is None or shape == "C":
        return 1.0
    if shape == "L":
        return max(size, 1.0)
    if shape == "Q":
        return max(size, 1.0) ** 2
    raise ValueError(f"unknown cost shape {shape!r}")


@dataclass
class CostParams:
    """All tunable cost-model parameters."""

    operator_weights: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_OPERATOR_WEIGHTS))
    aggregate_weights: Dict[str, Tuple[float, float, float]] = field(
        default_factory=lambda: dict(DEFAULT_AGGREGATE_WEIGHTS))
    expr_eval_cost: float = DEFAULT_EXPR_EVAL_COST
    #: Fixed per-probe-call overhead (search-space setup, cache lookup).
    probe_overhead: float = DEFAULT_PROBE_OVERHEAD
    #: Per-candidate multiplier for vector-compilable leaf conditions.
    vector_leaf_discount: float = DEFAULT_VECTOR_LEAF_DISCOUNT
    #: Symbolic-index block size used by the prefilter (runtime only).
    prefilter_block_size: int = DEFAULT_PREFILTER_BLOCK_SIZE
    #: Candidate-coverage fraction above which narrowing is abandoned.
    prefilter_coverage_gate: float = DEFAULT_PREFILTER_COVERAGE_GATE

    def f_op(self, op_name: str, cardinality_sum: float) -> float:
        """Operator cost (Equation 1): ``w * (cardinality sum)``."""
        weight = self.operator_weights.get(op_name, 500.0)
        return weight * max(cardinality_sum, 0.0)

    def _weights_for(self, agg: Aggregate) -> Tuple[float, float, float]:
        return self.aggregate_weights.get(agg.name, _FALLBACK_AGG)

    def f_ind(self, agg: Aggregate, span_size: float) -> float:
        """Index build cost for one aggregate over a span (Appendix D.2)."""
        if not agg.supports_index:
            return math.inf
        w_ind, _, _ = self._weights_for(agg)
        return w_ind * shape_value(agg.index_cost_shape, span_size)

    def f_lookup(self, agg: Aggregate, avg_len: float) -> float:
        """Per-segment cost of an indexed lookup."""
        if not agg.supports_index:
            return math.inf
        _, w_lookup, _ = self._weights_for(agg)
        return w_lookup * shape_value(agg.lookup_cost_shape, avg_len)

    def f_delta(self, agg: Aggregate, avg_len: float) -> float:
        """Per-segment cost of one direct aggregate evaluation."""
        _, _, w_direct = self._weights_for(agg)
        return w_direct * shape_value(agg.direct_cost_shape, avg_len)


#: Process-wide default parameters (the paper's profiled values).
DEFAULT_COST_PARAMS = CostParams()


def expected_distinct(draws: float, universe: float) -> float:
    """``D(c, ℓ)`` — expected distinct items from ``c`` uniform draws with
    replacement out of ``ℓ`` (Section 5.1, [5])."""
    if universe <= 0:
        return 0.0
    if draws <= 0:
        return 0.0
    universe = max(universe, 1.0)
    return universe * (1.0 - (1.0 - 1.0 / universe) ** draws)
