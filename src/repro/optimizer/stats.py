"""Query-time statistics sampling (Appendix D.3).

The optimizer needs, per variable, the selectivity of the Boolean
condition within the windowed search space (``Sel_{P|w}``) and the average
candidate segment length (``ℓ_in``).  Both are sampled on a handful of
series at query time.  Table 7 calls that negligible; it was 5.2 of a
~11.5 ms trex_bench ``plan_cold`` operation once the leaves got fast, so
each (variable, series) sample set is evaluated in one call on the
leaf's batch kernels and each draw is kept on its series
(docs/VECTORIZATION.md, "The planner's sampling").

Variables whose conditions reference other variables cannot be evaluated
standalone; they receive a configurable default selectivity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import PlanningBudgetExceeded, QueryTimeout
from repro.exec import vector
from repro.exec.base import ExecContext
from repro.lang import expr as E
from repro.lang.query import Query, VarDef
from repro.timeseries.series import Series

#: Selectivity assumed for conditions that cannot be sampled standalone.
DEFAULT_REFERENCE_SELECTIVITY = 0.5

#: Samples drawn, or evaluated by the scalar loop, between deadline checks.
_CHECK_STRIDE = 16


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
                     count: int, deadline=None,
                     planning_deadline=None) -> Tuple[np.ndarray, np.ndarray]:
    """Sample up to ``count`` windowed candidate segments of one series,
    as ``(starts, ends)`` int64 arrays."""
    n = len(series)
    window = var.window_conjunction
    starts: List[int] = []
    ends: List[int] = []
    attempts = 0
    max_attempts = count * 8
    while len(starts) < count and attempts < max_attempts:
        attempts += 1
        if attempts % _CHECK_STRIDE == 0:
            check_deadlines(deadline, planning_deadline,
                            where="selectivity sampling")
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
        starts.append(start)
        ends.append(end)
    return np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)


def _draw(series: Series, var: VarDef, rng: np.random.Generator, count: int,
          deadline, planning_deadline) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_sample_segments`, kept in ``Series.derived`` under what
    it is a pure function of — window, variable kind, ``count`` and the
    generator state on entry — beside the state on exit, which a hit
    restores.  Only a window planned again on this series hits.  A draw
    its deadline interrupts stores nothing."""
    state = rng.bit_generator.state
    key = ("stats.sample", var.window_conjunction, var.is_segment, count,
           state["state"]["state"], state["state"]["inc"],
           state["has_uint32"], state["uinteger"])

    def draw() -> tuple:
        drawn = _sample_segments(series, var, rng, count, deadline,
                                 planning_deadline)
        return drawn + (rng.bit_generator.state,)

    (starts, ends, exit_state), built = series.derived(key, draw)
    if not built:
        rng.bit_generator.state = exit_state
    return starts, ends


def _count_passing(ctx: ExecContext, var: VarDef, provider_kind: str,
                   starts: np.ndarray, ends: np.ndarray, deadline,
                   planning_deadline) -> int:
    """How many drawn segments satisfy ``var``'s condition: in one call
    on the batch kernels, or by the scalar loop where they decline."""
    passed = vector.count_matches(ctx, var, provider_kind, starts, ends)
    if passed is not None:
        return passed
    passed = 0
    provider = ctx.indexed_provider if provider_kind == "indexed" \
        else ctx.direct_provider
    for i, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        if i and i % _CHECK_STRIDE == 0:
            check_deadlines(deadline, planning_deadline,
                            where="selectivity sampling")
        ectx = E.EvalContext(ctx.series, start, end, variable=var.name,
                             refs={}, provider=provider,
                             registry=ctx.registry)
        if E.evaluate_condition(var.condition, ectx):
            passed += 1
    return passed


def collect_stats(query: Query, series_list: Sequence[Series],
                  num_series: int = 5, segments_per_var: int = 64,
                  seed: int = 7,
                  use_index: bool = True,
                  deadline=None, planning_deadline=None,
                  vectorize: bool = True) -> StatsCatalog:
    """Sample ``Sel_{P|w}`` and average segment length for every variable.

    ``vectorize=False`` (``EngineConfig.vectorize``, a differential-test
    hook) pins evaluation to the scalar loop; the catalog is the same.
    """
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
    provider_kind = "indexed" if use_index else "direct"

    catalog = StatsCatalog(series_length=median_length)
    for name, var in query.variables.items():
        if var.condition is None:
            # Window-only variables pass everything; estimate only length.
            lengths = [ends - starts + 1 for starts, ends in (
                _draw(series, var, rng, segments_per_var // 4, deadline,
                      planning_deadline) for series in chosen)]
            total = sum(map(len, lengths))
            avg_len = float(np.mean(np.concatenate(lengths))) if total \
                else 0.0
            catalog.variables[name] = VarStats(1.0, avg_len, total)
            continue
        if var.external_refs:
            catalog.variables[name] = VarStats(
                DEFAULT_REFERENCE_SELECTIVITY, 0.0, 0)
            continue
        passed = 0
        lengths = []
        for series in chosen:
            if len(series) == 0:
                continue
            # At least one check per (variable, series) batch of at most
            # segments_per_var samples, however the draw is served.
            check_deadlines(deadline, planning_deadline,
                            where="selectivity sampling")
            starts, ends = _draw(series, var, rng, segments_per_var,
                                 deadline, planning_deadline)
            lengths.append(ends - starts + 1)
            if not len(starts):
                continue
            ctx = ExecContext(series, query.registry, vectorize=vectorize)
            passed += _count_passing(ctx, var, provider_kind, starts, ends,
                                     deadline, planning_deadline)
            ctx.settle_indexes()
        total = sum(map(len, lengths))
        if total == 0:
            catalog.variables[name] = VarStats(0.0, 0.0, 0)
        else:
            # Clamp away 0/1 so downstream cardinalities stay non-degenerate.
            selectivity = min(max(passed / total, 0.5 / total), 1.0)
            catalog.variables[name] = VarStats(
                selectivity, float(np.mean(np.concatenate(lengths))), total)
    catalog.collection_seconds = time.perf_counter() - t0
    return catalog
