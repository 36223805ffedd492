"""Regression tests: every operator family must tick() in its hot loop.

A deadline already in the past plus ``TICK_STRIDE = 1`` makes the very
first ``ctx.tick()`` raise :class:`QueryTimeout`, so these tests fail if
an operator's merge/probe loop stops calling ``tick()`` (the engine
deadline would then be silently ignored while that operator runs).  The
hand-built child operators never tick, so a raised timeout can only come
from the operator under test.

The dense cases at the bottom move the deciding tick deep into the join
stage: the set-at-a-time operators drain their children first, and a
deadline must still be able to stop them between two emitted segments.
"""

import time

import numpy as np
import pytest

from repro.errors import QueryTimeout
from repro.exec.and_or import (LeftProbeAnd, RightProbeAnd, SortMergeAnd,
                               SortMergeOr)
from repro.exec.base import ExecContext, PhysicalOperator
from repro.exec.concat import (LeftProbeConcat, RightProbeConcat,
                               SortMergeConcat, WildWindowConcat)
from repro.exec.kleene import MaterializeKleene
from repro.exec.not_op import MaterializeNot, ProbeNot
from repro.lang.windows import WindowConjunction, WindowSpec
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment

from tests.conftest import make_series

WILD = WindowConjunction.wild()

SEGMENTS = ((0, 1), (1, 2), (2, 3))


class _StaticOp(PhysicalOperator):
    """Child yielding precomputed segments without ever ticking."""

    name = "Static"

    def __init__(self, bounds=SEGMENTS):
        super().__init__(WILD)
        self._bounds = bounds

    def eval(self, ctx, sp, refs):
        for start, end in self._bounds:
            if sp.contains(start, end):
                yield Segment(start, end)


def window(lo, hi):
    return WindowConjunction([WindowSpec.point(lo, hi)])


FAMILIES = {
    "SortMergeConcat":
        lambda: SortMergeConcat(_StaticOp(), _StaticOp(), 0, WILD),
    "RightProbeConcat":
        lambda: RightProbeConcat(_StaticOp(), _StaticOp(), 0, WILD),
    "LeftProbeConcat":
        lambda: LeftProbeConcat(_StaticOp(), _StaticOp(), 0, WILD),
    "WildWindowConcat":
        lambda: WildWindowConcat(_StaticOp(), _StaticOp(), WILD, WILD),
    "SortMergeAnd":
        lambda: SortMergeAnd(_StaticOp(), _StaticOp(), WILD),
    "RightProbeAnd":
        lambda: RightProbeAnd(_StaticOp(), _StaticOp(), WILD),
    "LeftProbeAnd":
        lambda: LeftProbeAnd(_StaticOp(), _StaticOp(), WILD),
    "SortMergeOr":
        lambda: SortMergeOr(_StaticOp(), _StaticOp(), WILD),
    "MaterializeNot":
        lambda: MaterializeNot(_StaticOp(), window(1, 2)),
    "ProbeNot":
        lambda: ProbeNot(_StaticOp(), window(1, 2)),
    "MaterializeKleene":
        lambda: MaterializeKleene(_StaticOp(), 1, None, 0, WILD),
}


def expired_ctx(series):
    ctx = ExecContext(series, deadline=time.perf_counter() - 1.0)
    ctx.TICK_STRIDE = 1  # instance attribute shadows the class default
    return ctx


@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
def test_operator_hot_loop_ticks(family):
    series = make_series([1.0, 2.0, 3.0, 4.0])
    op = FAMILIES[family]()
    ctx = expired_ctx(series)
    with pytest.raises(QueryTimeout):
        list(op.eval(ctx, SearchSpace.full(len(series)), {}))


def test_live_deadline_not_triggered():
    """Sanity check: a generous deadline lets the same plans finish."""
    series = make_series([1.0, 2.0, 3.0, 4.0])
    for family, factory in FAMILIES.items():
        ctx = ExecContext(series, deadline=time.perf_counter() + 60.0)
        ctx.TICK_STRIDE = 1
        list(factory().eval(ctx, SearchSpace.full(len(series)), {}))


DENSE_N = 40
#: Every start reaches eight ends: ~300 segments per child.
DENSE = tuple((start, end) for start in range(DENSE_N)
              for end in range(start + 1, min(DENSE_N, start + 9)))

DENSE_FAMILIES = {
    "SortMergeConcat":
        lambda: SortMergeConcat(_StaticOp(DENSE), _StaticOp(DENSE), 0, WILD),
    "RightProbeConcat":
        lambda: RightProbeConcat(_StaticOp(DENSE), _StaticOp(DENSE), 0, WILD),
    "LeftProbeConcat":
        lambda: LeftProbeConcat(_StaticOp(DENSE), _StaticOp(DENSE), 0, WILD),
    "WildWindowConcat":
        lambda: WildWindowConcat(_StaticOp(DENSE), _StaticOp(DENSE),
                                 window(0, 4), WILD),
    "SortMergeAnd":
        lambda: SortMergeAnd(_StaticOp(DENSE), _StaticOp(DENSE), WILD),
    "RightProbeAnd":
        lambda: RightProbeAnd(_StaticOp(DENSE), _StaticOp(DENSE), WILD),
    "LeftProbeAnd":
        lambda: LeftProbeAnd(_StaticOp(DENSE), _StaticOp(DENSE), WILD),
    "SortMergeOr":
        lambda: SortMergeOr(_StaticOp(DENSE), _StaticOp(DENSE[::2]), WILD),
    "MaterializeKleene":
        lambda: MaterializeKleene(_StaticOp(DENSE), 1, None, 0, WILD),
}


@pytest.mark.parametrize("family", sorted(DENSE_FAMILIES))
def test_deadline_fires_inside_dense_join(family):
    """The deadline stops a large join part-way through its output.

    A first run counts the operator's ticks and segments; the second has
    an expired deadline whose one clock check lands where half of the
    output is still to come — so it can only be reached, and only raise,
    from inside the join stage's own loops.
    """
    series = make_series(np.zeros(DENSE_N))
    full = SearchSpace.full(DENSE_N)
    counting = ExecContext(series, deadline=time.perf_counter() + 60.0)
    total = len(list(DENSE_FAMILIES[family]().eval(counting, full, {})))
    assert total > 200
    ctx = ExecContext(series, deadline=time.perf_counter() - 1.0)
    # Each emitted segment costs one tick of its own, so at most
    # total // 2 segments can still follow this tick.
    ctx.TICK_STRIDE = counting._ticks - total // 2
    yielded = 0
    with pytest.raises(QueryTimeout):
        for _ in DENSE_FAMILIES[family]().eval(ctx, full, {}):
            yielded += 1
    assert total // 2 <= yielded + 1 and yielded < total
