"""Regression tests for the violations the engine contract analyzer found.

Each test pins one fix shipped alongside ``repro lint --engine`` and is
*discriminating*: it fails if that specific ``tick()``/``charge()`` call
is removed again.  Tick tests use the :mod:`tests.test_timeout_ticks`
recipe (expired deadline + ``TICK_STRIDE`` sized so the deciding tick is
the one under test).  Loops whose tick cannot be isolated behaviourally
(the Kleene chain-extension loop, the AFA candidate loop's exact line)
are guarded by the analyzer itself — see ``test_engine_lint``'s repo
self-check.
"""

import time

import pytest

from repro.baselines.afa import AFAExecutor
from repro.errors import QueryTimeout, ResourceBudgetExceeded
from repro.exec.and_or import RightProbeAnd
from repro.exec.base import ExecContext
from repro.exec.concat import RightProbeConcat, WildWindowConcat
from repro.exec.kleene import MaterializeKleene
from repro.exec.seggen import SegGenFilter
from repro.lang.query import VarDef, compile_query
from repro.lang.windows import WindowConjunction, WindowSpec
from repro.plan.logical import LAnd, walk
from repro.plan.search_space import SearchSpace

from tests.conftest import make_series
from tests.test_timeout_ticks import _StaticOp, expired_ctx

WILD = WindowConjunction.wild()


def window(lo, hi):
    return WindowConjunction([WindowSpec.point(lo, hi)])


def test_seggen_diagonal_ticks_on_rejected_points():
    """The diagonal enumerator (``vector._diagonal_runs``) must tick per
    candidate, not per acceptance.

    A point variable under a window that rejects every zero-duration
    segment yields nothing, so without the in-loop tick the scan would
    spin through the whole diagonal with the deadline unchecked.
    """
    series = make_series([1.0, 2.0, 3.0, 4.0])
    var = VarDef(name="P", is_segment=False)
    op = SegGenFilter(var, window(1, 2))  # duration >= 1 rejects points
    with pytest.raises(QueryTimeout):
        list(op.eval(expired_ctx(series), SearchSpace.full(len(series)), {}))


@pytest.mark.parametrize("family", [RightProbeConcat, RightProbeAnd],
                         ids=["concat", "and"])
def test_probe_join_ticks_per_emitted_candidate(family):
    """``emit_fresh`` itself must tick: between two enumerated segments
    the probe variants make no other tick progress, however many cached
    candidates one probe returns.

    One enumerated segment costs one tick; with ``TICK_STRIDE = 2`` the
    deciding second tick can only come from the emission loop.
    """
    series = make_series([1.0, 2.0, 3.0, 4.0])
    if family is RightProbeConcat:
        op = family(_StaticOp(((0, 1),)), _StaticOp(((1, 2), (1, 3))), 0,
                    WILD)
    else:
        op = family(_StaticOp(((0, 1),)), _StaticOp(((0, 1),)), WILD)
    ctx = expired_ctx(series)
    ctx.TICK_STRIDE = 2
    with pytest.raises(QueryTimeout):
        list(op.eval(ctx, SearchSpace.full(len(series)), {}))


def test_kleene_seed_loop_ticks_when_window_prunes_everything():
    """The seed loop over ``by_start[start]`` must tick even when the
    window cap rejects every seed (the BFS queue then stays empty, so
    no other loop runs).

    The child emits three chainable segments, costing three ticks in
    the materialization loop; with ``TICK_STRIDE = 4`` the deciding
    fourth tick can only come from the seed loop.
    """
    series = make_series([1.0, 2.0, 3.0, 4.0, 5.0])
    child = _StaticOp(((0, 2), (0, 3), (0, 4)))  # all out-span window(0, 1)
    op = MaterializeKleene(child, 1, None, 0, window(0, 1))
    ctx = ExecContext(series, deadline=time.perf_counter() - 1.0)
    ctx.TICK_STRIDE = 4
    with pytest.raises(QueryTimeout):
        list(op.eval(ctx, SearchSpace.full(len(series)), {}))


def test_wild_window_concat_charges_materialized_children():
    """WConcat buffers both children in full; those lists must be
    charged against ``max_segments`` like every other materialization."""
    series = make_series([1.0, 2.0, 3.0, 4.0])
    op = WildWindowConcat(_StaticOp(), _StaticOp(), WILD, WILD)
    ctx = ExecContext(series, segment_budget=2)
    with pytest.raises(ResourceBudgetExceeded):
        list(op.eval(ctx, SearchSpace.full(len(series)), {}))


def test_afa_candidate_emission_ticks():
    """``_enumerate_and``'s final candidate loop must tick.

    ``_ends`` is stubbed to canned results so no other AFA code path
    ticks; the raise can only come from the emission loop itself.
    """
    query = compile_query("""
    ORDER BY tstamp
    PATTERN A & B
    DEFINE SEGMENT A AS first(A.val) > 0,
      SEGMENT B AS last(B.val) > 0
    """)
    executor = AFAExecutor(query, sharing=False, hand_tuned=False)
    series = make_series([1.0, 2.0, 3.0, 4.0])
    executor.match_series_prepare(series)
    executor._ctx.deadline = time.perf_counter() - 1.0
    executor._ctx.TICK_STRIDE = 1
    land = next(node for node in walk(executor.plan)
                if isinstance(node, LAnd))
    executor._ends = lambda node, start, refs: ((2, {}),)
    with pytest.raises(QueryTimeout):
        list(executor._enumerate_and(land, 0, {}))
