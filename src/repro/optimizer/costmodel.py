"""Cardinality building blocks of Table 1.

Window selectivities are computed from duration bounds using the canonical
boxed search space implied by the range sizes ``(ℓ_s, ℓ_e)`` and span
``ℓ_se``; conditional selectivities (``Sel_{w|w_l,w_r}`` etc.) use a
uniform-duration approximation over the children's admissible duration
ranges.  Everything here is deliberately cheap — the optimizer evaluates
these formulas many times per query.
"""

from __future__ import annotations

import functools
import math
from typing import Tuple

from repro.lang.windows import WindowConjunction
from repro.plan.logical import (LAnd, LConcat, LKleene, LNot, LOr, LVar,
                                LogicalNode)
from repro.timeseries.series import Series

Bounds = Tuple[float, float]  # (lo, hi) index-duration bounds; hi may be inf


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


def concat_window_selectivity(window: Bounds, left: Bounds, right: Bounds,
                              gap: int, cap: float) -> float:
    """``Sel_{w|w_l, w_r}`` — probability that a concatenated segment's
    duration lands in the parent window, durations uniform over the
    children's admissible ranges (capped at the span)."""
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
