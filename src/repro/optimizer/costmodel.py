"""The cost model of Table 1: one function per operator family.

Window selectivities are computed from duration bounds using the canonical
boxed search space implied by the range sizes ``(ℓ_s, ℓ_e)`` and span
``ℓ_se``; conditional selectivities (``Sel_{w|w_l,w_r}`` etc.) use a
uniform-duration approximation over the children's admissible duration
ranges.  Everything here is deliberately cheap — the optimizer evaluates
these formulas many times per query.

The ``*_estimate`` functions at the end are the only place an operator's
``(cost, output cardinality)`` is computed: the DP search in
:mod:`repro.optimizer.planner` calls them while it enumerates plans, and
``CostBasedPlanner.price`` calls them on a plan that is already built.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence, Tuple

from repro.lang.windows import WindowConjunction
from repro.optimizer.construct import (LEFT_PROBE, NOT_MATERIALIZE,
                                       RIGHT_PROBE, SORT_MERGE)
from repro.optimizer.cost_params import CostParams, expected_distinct
from repro.plan.logical import (LAnd, LConcat, LKleene, LNot, LOr, LVar,
                                LogicalNode)
from repro.timeseries.series import Series

Bounds = Tuple[float, float]  # (lo, hi) index-duration bounds; hi may be inf
Estimate = Tuple[float, float]  # (cost, output cardinality)

#: Guard against degenerate cardinalities.
MIN_CARD = 1e-6


def lse_estimate(ls: float, le: float, n: int) -> float:
    """ℓ_se estimate per Appendix C.1."""
    if ls <= 1 and le <= 1:
        return max(n / 3.0, 1.0)
    return max(ls, le, 1.0)


def window_duration_bounds(window: WindowConjunction,
                           series: Series) -> Bounds:
    """Combined index-duration bounds implied by a window conjunction.

    Time-based specs are converted using the series' average step.
    """
    n = len(series)
    if n > 1:
        timestamps = series.timestamps
        avg_step = float(timestamps[-1] - timestamps[0]) / (n - 1)
        if avg_step <= 0:
            avg_step = 1.0
    else:
        avg_step = 1.0
    lo = 0.0
    hi = math.inf
    for spec in window.specs:
        spec_lo, spec_hi = spec.bounds_on(series)
        if spec.kind == "time":
            spec_lo = spec_lo / avg_step
            spec_hi = None if spec_hi is None else spec_hi / avg_step
        lo = max(lo, spec_lo)
        if spec_hi is not None:
            hi = min(hi, spec_hi)
    return lo, hi


def node_duration_bounds(node: LogicalNode, series: Series) -> Bounds:
    """Duration bounds of segments a logical node can produce."""
    window_lo, window_hi = window_duration_bounds(node.window, series)
    if isinstance(node, LVar):
        if not node.var.is_segment:
            return 0.0, 0.0
        return window_lo, window_hi
    if isinstance(node, LConcat):
        lo = 0.0
        hi = 0.0
        for index, part in enumerate(node.parts):
            part_lo, part_hi = node_duration_bounds(part, series)
            lo += part_lo
            hi += part_hi
            if index < len(node.gaps):
                lo += node.gaps[index]
                hi += node.gaps[index]
        return max(lo, window_lo), min(hi, window_hi)
    if isinstance(node, LAnd):
        lo, hi = window_lo, window_hi
        for part in node.parts:
            part_lo, part_hi = node_duration_bounds(part, series)
            lo = max(lo, part_lo)
            hi = min(hi, part_hi)
        return lo, hi
    if isinstance(node, LOr):
        lo = math.inf
        hi = 0.0
        for part in node.parts:
            part_lo, part_hi = node_duration_bounds(part, series)
            lo = min(lo, part_lo)
            hi = max(hi, part_hi)
        return max(lo, window_lo), min(hi, window_hi)
    if isinstance(node, LKleene):
        child_lo, child_hi = node_duration_bounds(node.child, series)
        reps_hi = node.max_reps
        lo = child_lo * max(node.min_reps, 1)
        hi = math.inf if reps_hi is None else (child_hi + node.gap) * reps_hi
        return max(lo, window_lo), min(hi, window_hi)
    if isinstance(node, LNot):
        return window_lo, window_hi
    return window_lo, window_hi


#: Number of start positions sampled for boxed pair counting.
_MAX_START_SAMPLES = 256


def boxed_pair_fraction(ls: float, le: float, lse: float,
                        duration: Bounds) -> float:
    """Fraction of the boxed ``ℓ_s × ℓ_e`` space whose segment duration
    falls in ``duration`` (the Sel_w of Section 5.2).

    The canonical box anchors starts at ``[0, ℓ_s)`` and ends at
    ``[ℓ_se - ℓ_e, ℓ_se)`` within a span of ``ℓ_se`` positions.
    A pure function of the rounded sizes and the bounds, which the DP
    asks about dozens of times per plan: memoised.
    """
    return _boxed_pair_fraction(max(int(round(ls)), 1),
                                max(int(round(le)), 1),
                                max(int(round(lse)), 1), *duration)


@functools.lru_cache(maxsize=4096)
def _boxed_pair_fraction(ls_i: int, le_i: int, lse_i: int, lo: float,
                         hi: float) -> float:
    hi = min(hi, lse_i - 1.0)
    if hi < lo:
        return 0.0
    e_min = lse_i - le_i
    e_max = lse_i - 1
    step = max(1, ls_i // _MAX_START_SAMPLES)
    total = 0.0
    count = 0
    for s in range(0, ls_i, step):
        lo_e = max(s + lo, e_min, s)
        hi_e = min(s + hi, e_max)
        if hi_e >= lo_e:
            total += hi_e - lo_e + 1
        count += 1
    if count == 0:
        return 0.0
    expected_pairs = total / count * ls_i
    fraction = expected_pairs / (ls_i * le_i)
    return min(max(fraction, 0.0), 1.0)


_GRID = 12


def _grid(bounds: Bounds, cap: float) -> list:
    lo, hi = bounds
    hi = min(hi, cap)
    if hi < lo:
        return []
    if hi == lo:
        return [lo]
    step = (hi - lo) / (_GRID - 1)
    return [lo + i * step for i in range(_GRID)]


@functools.lru_cache(maxsize=4096)
def concat_window_selectivity(window: Bounds, left: Bounds, right: Bounds,
                              gap: int, cap: float) -> float:
    """``Sel_{w|w_l, w_r}`` — probability that a concatenated segment's
    duration lands in the parent window, durations uniform over the
    children's admissible ranges (capped at the span).  Memoised like
    :func:`boxed_pair_fraction`: every Concat alternative of one split
    asks the same question."""
    w_lo, w_hi = window
    if w_lo <= 0 and w_hi >= cap:
        return 1.0
    left_grid = _grid(left, cap)
    right_grid = _grid(right, cap)
    if not left_grid or not right_grid:
        return 0.0
    hits = 0
    for dl in left_grid:
        for dr in right_grid:
            total = dl + dr + gap
            if w_lo <= total <= w_hi:
                hits += 1
    return hits / (len(left_grid) * len(right_grid))


def containment_selectivity(window: Bounds, child: Bounds,
                            cap: float) -> float:
    """``Sel_{w|w_s}`` — probability a child-duration segment satisfies the
    parent window (used by Kleene single-occurrence and Or arms)."""
    w_lo, w_hi = window
    c_lo, c_hi = child
    c_hi = min(c_hi, cap)
    if c_hi < c_lo:
        return 0.0
    width = c_hi - c_lo
    overlap = min(c_hi, w_hi) - max(c_lo, w_lo)
    if overlap < 0:
        return 0.0
    if width <= 0:
        return 1.0
    return min(overlap / width, 1.0)


# ---------------------------------------------------------------------------
# Per-operator (cost, cardinality): the DP and price() both call these
# ---------------------------------------------------------------------------

_BINARY_NAMES = {SORT_MERGE: "SortMerge", RIGHT_PROBE: "RightProbe",
                 LEFT_PROBE: "LeftProbe"}


def leaf_estimate(op_name: str, ls: float, le: float, sel_w: float,
                  params: CostParams, selectivity: float = 1.0,
                  per_row: float = 0.0, build: float = 0.0) -> Estimate:
    """A SegGen leaf over the boxed ``ℓ_s × ℓ_e`` space: ``SegGenWindow``
    emits every admissible segment; ``SegGenFilter`` / ``SegGenIndexing``
    pay ``per_row`` on each (plus the index ``build``) and keep
    ``selectivity`` of them."""
    c_in = max(ls * le * sel_w, MIN_CARD)
    if op_name == "SegGenWindow":
        return params.f_op(op_name, 2 * c_in), c_in
    c_out = max(c_in * selectivity, MIN_CARD)
    return params.f_op(op_name, c_in + c_out) + build + c_in * per_row, c_out


def filter_estimate(child: Estimate,
                    lifts: Sequence[Tuple[float, float]]) -> Estimate:
    """Lifted conditions resolved into a Filter (Figure 6): each
    ``(per_row, selectivity)`` lift is charged on the rows the previous
    one kept."""
    cost, card = child
    for per_row, selectivity in lifts:
        cost += card * per_row
        card *= selectivity
    return cost, max(card, MIN_CARD)


def concat_estimate(impl: str, left: Estimate, right: Estimate, lse: float,
                    window: Bounds, left_bounds: Bounds, right_bounds: Bounds,
                    gap: int, params: CostParams,
                    probed_card: Optional[float] = None,
                    probes_reused: bool = True) -> Estimate:
    """``SortMergeConcat`` / ``RightProbeConcat`` / ``LeftProbeConcat``.

    A probe join's probed child is estimated in its probe space; its output
    is sized from ``probed_card``, that side's cardinality over the full
    space.  ``probes_reused`` grants the ``D()`` caching discount: probe
    results are reusable across anchors unless the probed side consumes
    the anchor's references (Section 5.1).
    """
    cond_sel = max(concat_window_selectivity(window, left_bounds,
                                             right_bounds, gap, lse), 1e-9)
    c_l = probed_card if impl == LEFT_PROBE else left[1]
    c_r = probed_card if impl == RIGHT_PROBE else right[1]
    c_out = max(c_l * c_r / max(lse, 1.0) * cond_sel, MIN_CARD)
    cost = params.f_op(f"{_BINARY_NAMES[impl]}Concat",
                       left[1] + right[1] + c_out)
    if impl == SORT_MERGE:
        return cost + left[0] + right[0], c_out
    anchor, probe = (left, right) if impl == RIGHT_PROBE else (right, left)
    distinct = expected_distinct(anchor[1], lse) if probes_reused \
        else anchor[1]
    return cost + anchor[0] + distinct * (probe[0] + params.probe_overhead), \
        c_out


def wconcat_estimate(left: Estimate, right: Estimate, lse: float,
                     window: Bounds, left_bounds: Bounds, pad: Bounds,
                     right_bounds: Bounds, params: CostParams) -> Estimate:
    """``WildWindowConcat``: ``left · PAD · right`` with the pad fused."""
    pad_width = max(min(pad[1], lse) - pad[0] + 1, 1.0)
    cond_sel = concat_window_selectivity(
        window, (left_bounds[0] + pad[0], left_bounds[1] + min(pad[1], lse)),
        right_bounds, 0, lse)
    c_out = max(left[1] * right[1] * pad_width / max(lse, 1.0)
                * max(cond_sel, 1e-9), MIN_CARD)
    cost = params.f_op("WildWindowConcat", left[1] + right[1] + c_out) \
        + left[0] + right[0]
    return cost, c_out


def and_estimate(impl: str, left: Estimate, right: Estimate, box: float,
                 sel_w: float, params: CostParams,
                 probed_card: Optional[float] = None) -> Estimate:
    """``SortMergeAnd`` / ``RightProbeAnd`` / ``LeftProbeAnd`` over a search
    space of ``box`` admissible segments.

    As for Concat, a probe join sizes its output from ``probed_card``;
    without one a probe join is the probe-space subset fold (every child
    already evaluated at the exact segment), priced like a merge.
    """
    name = f"{_BINARY_NAMES[impl]}And"
    if impl == SORT_MERGE or probed_card is None:
        c_out = max(left[1] * right[1] / box, MIN_CARD)
        return params.f_op(name, left[1] + right[1] + c_out) \
            + left[0] + right[0], c_out
    anchor, probe = (left, right) if impl == RIGHT_PROBE else (right, left)
    c_out = max(anchor[1] * probed_card / box, MIN_CARD)
    cost = params.f_op(name, anchor[1] + probe[1] + c_out) + anchor[0] \
        + anchor[1] * (probe[0] / max(sel_w, 1e-9) + params.probe_overhead)
    return cost, c_out


def or_estimate(arms: Sequence[Estimate], arm_bounds: Sequence[Bounds],
                window: Bounds, lse: float, params: CostParams) -> Estimate:
    """A left-deep ``SortMergeOr`` fold; each arm keeps the share of its
    segments that satisfies the Or's window."""
    result: Optional[Estimate] = None
    for arm, bounds in zip(arms, arm_bounds):
        arm_card = arm[1] * max(containment_selectivity(window, bounds, lse),
                                1e-9)
        if result is None:
            result = arm[0], arm_card
            continue
        c_out = result[1] + arm_card
        result = (params.f_op("SortMergeOr", result[1] + arm_card + c_out)
                  + result[0] + arm[0], max(c_out, MIN_CARD))
    assert result is not None
    return result


def not_estimate(impl: str, child: Estimate, child_card: float, box: float,
                 params: CostParams, dedupe: bool) -> Estimate:
    """``MaterializeNot`` / ``ProbeNot``: the ``box`` admissible segments
    minus the child's ``child_card`` over the full space (counted as
    distinct segments when the child can emit one several times).
    ``ProbeNot``'s ``child`` is its estimate in the probe space."""
    c_in = expected_distinct(child_card, box) if dedupe else child_card
    c_out = max(box - c_in, MIN_CARD)
    if impl == NOT_MATERIALIZE:
        return params.f_op("MaterializeNot", c_in + c_out) + child[0], c_out
    return params.f_op("ProbeNot", child[1] + c_out) \
        + box * (child[0] / max(child[1], 1.0) + params.probe_overhead), c_out


def kleene_estimate(child: Estimate, ls: float, le: float, lse: float,
                    window: Bounds, child_bounds: Bounds, gap: int,
                    params: CostParams) -> Estimate:
    """``MaterializeKleene``: single occurrences plus pairwise chains of the
    child, which is evaluated over the whole span."""
    c_in = child[1]
    sel1 = max(containment_selectivity(window, child_bounds, lse), 1e-9)
    sel2 = max(concat_window_selectivity(window, child_bounds, child_bounds,
                                         gap, lse), 1e-9)
    ratio = (ls * le) / max(lse * lse, 1.0)
    c_out = max(c_in * ratio * sel1
                + (c_in ** 2) * ratio / max(lse, 1.0) * sel2, MIN_CARD)
    return params.f_op("MaterializeKleene", c_in + c_out) + child[0], c_out
