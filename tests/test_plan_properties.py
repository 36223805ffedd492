"""Property tests on plan rewrites and executor invariants.

* Window push-down is a pure optimization: disabling it never changes the
  match set.
* Probe plans and batch plans are result-equivalent (pruning is safe).
* The logical plan's duration bounds are sound: every brute-force match
  respects them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import BruteForceMatcher
from repro.core.engine import TRexEngine
from repro.core.config import EngineConfig
from repro.core.parallel import SeriesTask, run_series
from repro.lang.query import compile_query
from repro.optimizer import costmodel as CM
from repro.optimizer.rulebased import RuleBasedPlanner, RuleStrategy
from repro.plan.logical import build_logical_plan
from repro.plan.search_space import SearchSpace

from tests.conftest import make_series

QUERIES = {
    "concat": """
        ORDER BY tstamp
        PATTERN (DN UP) & WINDOW
        DEFINE SEGMENT DN AS last(DN.val) < first(DN.val),
          SEGMENT UP AS last(UP.val) > first(UP.val),
          SEGMENT WINDOW AS window(2, 8)
    """,
    "padded": """
        ORDER BY tstamp
        PATTERN (W (S & W2) W) & WINDOW
        DEFINE SEGMENT W AS true, SEGMENT W2 AS window(1, 3),
          SEGMENT S AS last(S.val) - first(S.val) < -1,
          SEGMENT WINDOW AS window(5, 12)
    """,
    "kleene": """
        ORDER BY tstamp
        PATTERN ((UP & W)+) & WINDOW
        DEFINE SEGMENT W AS window(1, 3),
          SEGMENT UP AS last(UP.val) > first(UP.val),
          SEGMENT WINDOW AS window(2, 9)
    """,
}


def run_plan(plan, series, query):
    outcome = run_series(plan, query, SeriesTask(
        index=0, series=series, limit=None, segment_budget=None,
        deadline=None), EngineConfig())
    if outcome.error is not None:
        raise outcome.error
    return outcome.matches


def random_series(seed, n=22):
    rng = np.random.default_rng(seed)
    return make_series(np.cumsum(rng.normal(0, 1, n)) + 30)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000), name=st.sampled_from(sorted(QUERIES)))
def test_window_pushdown_preserves_matches(seed, name):
    query = compile_query(QUERIES[name])
    series = random_series(seed)
    pushed = build_logical_plan(query, push_windows=True)
    unpushed = build_logical_plan(query, push_windows=False)
    planner = RuleBasedPlanner(RuleStrategy("left", "sm"))
    with_push = run_plan(planner.plan(query, pushed), series, query)
    without_push = run_plan(planner.plan(query, unpushed), series, query)
    assert with_push == without_push


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000), name=st.sampled_from(sorted(QUERIES)))
def test_probe_and_batch_equivalent(seed, name):
    query = compile_query(QUERIES[name])
    series = random_series(seed)
    probes = TRexEngine(optimizer="cost").execute_query(
        query, [series]).per_series[0].matches
    batch = TRexEngine(optimizer="batch").execute_query(
        query, [series]).per_series[0].matches
    assert probes == batch


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_duration_bounds_sound(seed):
    query = compile_query(QUERIES["padded"])
    series = random_series(seed)
    plan = build_logical_plan(query)
    lo, hi = CM.node_duration_bounds(plan, series)
    for start, end in BruteForceMatcher(query, plan).match_series(series):
        assert lo <= end - start <= hi


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000),
       s_lo=st.integers(0, 10), s_width=st.integers(0, 10),
       e_lo=st.integers(0, 15), e_width=st.integers(0, 6))
def test_search_space_restriction_is_exact_subset(seed, s_lo, s_width,
                                                  e_lo, e_width):
    """Evaluating under a restricted space returns exactly the full-space
    matches falling inside it (no false pruning, no leakage)."""
    query = compile_query(QUERIES["concat"])
    series = random_series(seed)
    plan = RuleBasedPlanner(RuleStrategy("left", "probe")).plan(query)
    from repro.exec.base import ExecContext
    full = {seg.bounds for seg in plan.eval(
        ExecContext(series), SearchSpace.full(len(series)), {})}
    sp = SearchSpace(s_lo, s_lo + s_width, e_lo, e_lo + e_width)
    restricted = {seg.bounds for seg in plan.eval(
        ExecContext(series), sp, {})}
    expected = {(s, e) for s, e in full if sp.contains(s, e)}
    assert restricted == expected
