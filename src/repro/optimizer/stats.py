"""Query-time statistics sampling (Appendix D.3).

The optimizer needs, per variable, the selectivity of the Boolean
condition within the windowed search space (``Sel_{P|w}``) and the average
candidate segment length (``ℓ_in``).  Both are sampled on a handful of
series at query time; the cost is negligible relative to execution
(Table 7 measures it).

Variables whose conditions reference other variables cannot be evaluated
standalone; they receive a configurable default selectivity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import PlanningBudgetExceeded, QueryTimeout
from repro.exec.base import ExecContext
from repro.lang import expr as E
from repro.lang.query import Query, VarDef
from repro.timeseries.series import Series

#: Selectivity assumed for conditions that cannot be sampled standalone.
DEFAULT_REFERENCE_SELECTIVITY = 0.5


def check_deadlines(deadline, planning_deadline, where: str = "planning"):
    """Raise if a planning-phase time budget has been exceeded.

    The planning-only budget raises :class:`PlanningBudgetExceeded`
    (which the engine converts into a rule-based fallback); the global
    query deadline raises :class:`QueryTimeout` (no fallback — the whole
    query is out of time).
    """
    if deadline is None and planning_deadline is None:
        return
    now = time.perf_counter()
    if planning_deadline is not None and now > planning_deadline:
        raise PlanningBudgetExceeded(
            f"planning budget exhausted during {where}")
    if deadline is not None and now > deadline:
        raise QueryTimeout(f"query deadline exceeded during {where}")


@dataclass(frozen=True)
class VarStats:
    """Sampled statistics for one variable."""

    selectivity: float
    avg_length: float
    samples: int


@dataclass
class StatsCatalog:
    """Per-variable statistics plus collection metadata."""

    variables: Dict[str, VarStats] = field(default_factory=dict)
    series_length: int = 0
    collection_seconds: float = 0.0

    def selectivity(self, name: str) -> float:
        entry = self.variables.get(name)
        if entry is None:
            return DEFAULT_REFERENCE_SELECTIVITY
        return entry.selectivity

    def avg_length(self, name: str) -> float:
        entry = self.variables.get(name)
        if entry is None or entry.avg_length <= 0:
            return max(self.series_length / 4.0, 1.0)
        return entry.avg_length


def _sample_segments(series: Series, var: VarDef, rng: np.random.Generator,
                     count: int) -> List[tuple]:
    """Sample up to ``count`` windowed candidate segments of one series."""
    n = len(series)
    window = var.window_conjunction
    segments: List[tuple] = []
    attempts = 0
    max_attempts = count * 8
    while len(segments) < count and attempts < max_attempts:
        attempts += 1
        start = int(rng.integers(0, n))
        lo, hi = window.end_range(series, start)
        lo = max(lo, start)
        hi = min(hi, n - 1)
        if hi < lo:
            continue
        end = int(rng.integers(lo, hi + 1))
        if not var.is_segment and end != start:
            end = start
            if not window.accepts(series, start, end):
                continue
        segments.append((start, end))
    return segments


def collect_stats(query: Query, series_list: Sequence[Series],
                  num_series: int = 5, segments_per_var: int = 64,
                  seed: int = 7,
                  use_index: bool = True,
                  deadline=None, planning_deadline=None) -> StatsCatalog:
    """Sample ``Sel_{P|w}`` and average segment length for every variable."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    if not series_list:
        return StatsCatalog()
    if len(series_list) > num_series:
        chosen = [series_list[int(i)] for i in
                  rng.choice(len(series_list), size=num_series,
                             replace=False)]
    else:
        chosen = list(series_list)
    median_length = int(np.median([len(s) for s in chosen])) if chosen else 0

    catalog = StatsCatalog(series_length=median_length)
    for name, var in query.variables.items():
        if var.condition is None:
            # Window-only variables pass everything; estimate only length.
            lengths = []
            for series in chosen:
                for start, end in _sample_segments(series, var, rng,
                                                   segments_per_var // 4):
                    lengths.append(end - start + 1)
            avg_len = float(np.mean(lengths)) if lengths else 0.0
            catalog.variables[name] = VarStats(1.0, avg_len, len(lengths))
            continue
        if var.external_refs:
            catalog.variables[name] = VarStats(
                DEFAULT_REFERENCE_SELECTIVITY, 0.0, 0)
            continue
        passed = 0
        total = 0
        lengths = []
        for series in chosen:
            if len(series) == 0:
                continue
            check_deadlines(deadline, planning_deadline,
                            where="selectivity sampling")
            ctx = ExecContext(series, query.registry)
            provider = ctx.indexed_provider if use_index \
                else ctx.direct_provider
            for start, end in _sample_segments(series, var, rng,
                                               segments_per_var):
                total += 1
                if total % 16 == 0:
                    check_deadlines(deadline, planning_deadline,
                                    where="selectivity sampling")
                lengths.append(end - start + 1)
                ectx = E.EvalContext(series, start, end, variable=name,
                                     refs={}, provider=provider,
                                     registry=query.registry)
                if E.evaluate_condition(var.condition, ectx):
                    passed += 1
            ctx.settle_indexes()
        if total == 0:
            catalog.variables[name] = VarStats(0.0, 0.0, 0)
        else:
            # Clamp away 0/1 so downstream cardinalities stay non-degenerate.
            selectivity = min(max(passed / total, 0.5 / total), 1.0)
            catalog.variables[name] = VarStats(
                selectivity, float(np.mean(lengths)), total)
    catalog.collection_seconds = time.perf_counter() - t0
    return catalog
