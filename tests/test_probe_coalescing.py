"""Set-at-a-time probes: ``eval_spaces`` answers like per-space ``eval``.

A probe operator drains its driving child and hands every probe space to
the probed child in one ``eval_spaces`` call
(``PhysicalOperator.probe_all``).
The contract under test, for each leaf kind and on every template
variable: ``op.eval_spaces(ctx, spaces, refs)`` equals
``[list(op.eval(ctx, sp, refs)) for sp in spaces]`` — segments, payloads,
order, ``ctx.stats`` and per-operator counters — under either evaluator
and on either side of ``BATCH_CROSSOVER`` (docs/VECTORIZATION.md,
"Coalesced probes").  Spaces come from a fixed-seed generator.
"""

import numpy as np
import pytest

from repro.datasets import load
from repro.exec import vector
from repro.errors import ResourceBudgetExceeded
from repro.exec.and_or import LeftProbeAnd, RightProbeAnd
from repro.exec.base import ExecContext
from repro.exec.concat import LeftProbeConcat, RightProbeConcat
from repro.exec.metrics import RunMetrics
from repro.exec.seggen import SegGenFilter, SegGenIndexing, SegGenWindow
from repro.exec.not_op import ProbeNot
from repro.exec.special import SubPatternCache
from repro.lang.parser import parse_condition
from repro.lang.query import VarDef
from repro.lang.windows import WindowConjunction, WindowSpec
from repro.plan.search_space import SearchSpace
from repro.queries.templates import ALL_TEMPLATES
from repro.testing import faults
from repro.timeseries.segment import Segment

from tests.conftest import make_series

LENGTH = 60

CASES = [(template, name) for template in ALL_TEMPLATES
         for name in template.compile(template.param_sets()[0]).variables]


def leaves(var, publish):
    """Every leaf kind a probe operator probes, over one variable."""
    window = var.window_conjunction
    keep = frozenset({var.name}) if publish else frozenset()
    return {
        "SegGenFilter": SegGenFilter(var, window, publish=keep),
        "SegGenIndexing": SegGenIndexing(var, window, publish=keep),
        "SegGenWindow": SegGenWindow(window, var.name, publish=keep),
        "SubPatternCache": SubPatternCache(
            SegGenIndexing(var, window, publish=keep), var.name),
    }


def probe_spaces(n, seed):
    """Every shape of space a probe operator hands a leaf: exact (And),
    one start (RightProbeConcat), one end (LeftProbeConcat), plus empty,
    out-of-range, overlapping and duplicate spaces."""
    rng = np.random.default_rng(seed)
    spaces = [SearchSpace.empty(), SearchSpace(5, 3, 5, 9),
              SearchSpace(n + 2, n + 6, n + 2, n + 9),
              SearchSpace(n - 4, n + 3, n - 2, n + 8),
              SearchSpace(10, 20, 15, 30), SearchSpace(15, 25, 20, 35)]
    for _ in range(12):
        start = int(rng.integers(0, n))
        end = int(rng.integers(start, n))
        spaces.append(SearchSpace.exact(start, end))
        spaces.append(SearchSpace(start, start, end,
                                  end + int(rng.integers(0, 12))))
        spaces.append(SearchSpace(start - int(rng.integers(0, 12)), start,
                                  end, end))
    return spaces + [spaces[9], spaces[-2], spaces[4]]


def small_spaces(n, seed):
    """Fewer admissible candidates in total than the crossover."""
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, n - 1, 3).tolist()
    return [SearchSpace.empty()] + [SearchSpace.exact(s, s + 1)
                                    for s in starts]


def setting(template, name):
    query = template.compile(template.param_sets()[0])
    table = load(template.dataset, num_series=1, length=LENGTH)
    series = table.partition(query.partition_by, query.order_by)[0]
    var = query.variables[name]
    at = len(series) // 3
    refs = {ref: (at, at + 2) if query.variables[ref].is_segment
            else (at, at) for ref in sorted(var.external_refs)}
    return var, series, refs


def answer(op, series, spaces, refs, vectorize, coalesced):
    metrics = RunMetrics()
    ctx = ExecContext(series, metrics=metrics, vectorize=vectorize)
    if coalesced:
        found = op.eval_spaces(ctx, spaces, refs)
    else:
        found = [list(op.eval(ctx, sp, refs)) for sp in spaces]
    counters = {op_id: dict(record.counters)
                for op_id, record in metrics.ops.items() if record.counters}
    return ([[(seg.bounds, seg.payload) for seg in segments]
             for segments in found],
            sorted(ctx.stats.items()), counters)


@pytest.mark.parametrize("vectorize", [True, False],
                         ids=["vector", "scalar"])
@pytest.mark.parametrize("template, name", CASES,
                         ids=[f"{t.name}.{n}" for t, n in CASES])
def test_eval_spaces_equals_eval_per_space(template, name, vectorize):
    var, series, refs = setting(template, name)
    n = len(series)
    for seed, spaces in ((1, probe_spaces(n, 1)), (2, small_spaces(n, 2))):
        for publish in (True, False):
            for kind, op in leaves(var, publish).items():
                want = answer(op, series, spaces, refs, vectorize, False)
                got = answer(op, series, spaces, refs, vectorize, True)
                assert got == want, (kind, seed, publish)


def test_small_spaces_stay_below_the_crossover():
    spaces = small_spaces(LENGTH, 2)
    assert sum(sp.start_range_size * sp.end_range_size
               for sp in spaces if not sp.is_empty()) \
        < vector.BATCH_CROSSOVER


def rising_leaf(publish=frozenset()):
    template = next(t for t in ALL_TEMPLATES if t.name == "cld_wave")
    var, series, _ = setting(template, "UP_MK")
    return SegGenFilter(var, var.window_conjunction, publish=publish), series


def test_one_candidate_probes_reach_the_batch_kernels():
    """The point of coalescing: twenty one-candidate probes are one
    batch call, where one ``eval`` each would be twenty scalar calls."""
    op, series = rising_leaf()
    spaces = [SearchSpace.exact(s, s + 6) for s in range(20)]
    strategies = []
    for coalesced in (False, True):
        metrics = RunMetrics()
        ctx = ExecContext(series, metrics=metrics)
        if coalesced:
            op.eval_spaces(ctx, spaces, {})
        else:
            for sp in spaces:
                list(op.eval(ctx, sp, {}))
        record = metrics.ops[op.op_id]
        strategies.append((record.batch_calls, record.scalar_calls))
    assert strategies == [(0, 20), (1, 0)]


def probed(host, child, series, jobs):
    metrics = RunMetrics()
    ctx = ExecContext(series, metrics=metrics)
    found = host.probe_all(ctx, child, jobs, {})
    return ([[(seg.bounds, seg.payload) for seg in segments]
             for segments in found],
            sorted(ctx.stats.items()), metrics.ops[child.op_id])


def test_faults_armed_answer_each_space_through_eval():
    """Fault points live in the scalar call graph: with any fault armed,
    the leaf's ``eval_spaces`` entry answers every missed space through
    its own ``exec.<Op>.eval`` point — the same answer, and EXPLAIN
    ANALYZE sees one ``eval`` per space."""
    op, series = rising_leaf()
    host = RightProbeConcat(SegGenWindow(WindowConjunction.wild()), op,
                            0, WindowConjunction.wild())
    jobs = [(SearchSpace.exact(s, s + 6), Segment(0, s)) for s in range(5)]
    found, stats, record = probed(host, op, series, jobs)
    assert record.eval_calls == 1
    with faults.inject("exec.SegGenFilter.eval", times=0) as spec:
        armed = probed(host, op, series, jobs)
    assert spec.hits == len(jobs)
    assert armed[:2] == (found, stats)
    assert armed[2].eval_calls == armed[2].spaces == len(jobs)


def test_shim_counts_one_entry_per_coalesced_call():
    op, series = rising_leaf()
    spaces = [SearchSpace.exact(s, s + 6) for s in range(20)]
    spaces.append(SearchSpace(30, 30, 31, 45))
    metrics = RunMetrics()
    ctx = ExecContext(series, metrics=metrics)
    found = op.eval_spaces(ctx, spaces, {})
    record = metrics.ops[op.op_id]
    assert record.eval_calls == 1
    assert record.spaces == len(spaces)
    assert record.segments_out == sum(map(len, found))
    assert record.sum_le == 20 + 15
    assert record.avg_le == pytest.approx(35 / 21)
    assert record.time_seconds > 0


class _Recorder(SegGenFilter):
    """A condition leaf that logs every ``eval_spaces`` call it serves."""

    name = "Recorder"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def eval_spaces(self, ctx, spaces, refs):
        self.calls.append((list(spaces), dict(refs)))
        return super().eval_spaces(ctx, spaces, refs)


def referencing_leaf():
    template = next(t for t in ALL_TEMPLATES if t.name == "OpenCEP_Q1")
    var, series, _ = setting(template, "INC1")
    assert var.external_refs == frozenset({"A1"})
    return _Recorder(var, var.window_conjunction), series


def test_probe_all_keeps_anchors_with_different_payloads_apart():
    """Two anchors whose payloads bind the probed leaf's reference
    differently probe one space: two memo entries, two groups, each
    answered under its own binding — and a repeat of the first is a
    hit."""
    child, series = referencing_leaf()
    host = RightProbeConcat(SegGenWindow(WindowConjunction.wild()), child,
                            1, WindowConjunction.wild())
    space = SearchSpace.exact(30, 30)
    jobs = [(space, Segment(0, 29, {"A1": (29, 29)})),
            (space, Segment(0, 29, {"A1": (12, 12)})),
            (space, Segment(3, 29, {"A1": (29, 29)}))]
    ctx = ExecContext(series)
    found = host.probe_all(ctx, child, jobs, {})
    assert (ctx.stats["probe_calls"], ctx.stats["probe_cache_hits"]) \
        == (2, 1)
    assert [refs for _, refs in child.calls] == \
        [{"A1": (29, 29)}, {"A1": (12, 12)}]
    for (sp, anchor), segments in zip(jobs, found):
        assert segments == list(child.eval(ExecContext(series), sp,
                                           dict(anchor.payload)))


def test_probe_all_answers_each_distinct_space_once():
    op, series = rising_leaf()
    child = _Recorder(op.var, op.window)
    host = RightProbeConcat(SegGenWindow(WindowConjunction.wild()), child,
                            0, WindowConjunction.wild())
    spaces = [SearchSpace.exact(s, s + 6) for s in (4, 9, 4, 11, 9)]
    ctx = ExecContext(series)
    first = host.probe_all(ctx, child, [(sp, Segment(0, 1)) for sp in spaces],
                           {})
    assert [call[0] for call in child.calls] == [spaces[:2] + spaces[3:4]]
    assert (ctx.stats["probe_calls"], ctx.stats["probe_cache_hits"]) \
        == (3, 2)
    again = host.probe_all(ctx, child, [(spaces[1], Segment(0, 1))], {})
    assert len(child.calls) == 1 and again == [first[1]]
    assert ctx.stats["probe_cache_hits"] == 3



def probe_not_plans():
    """``ProbeNot`` over each probe family."""
    def var(name, condition):
        return VarDef(name, True, (), parse_condition(condition), frozenset())

    def window(lo, hi):
        return WindowConjunction([WindowSpec.point(lo, hi)])

    up = SegGenFilter(var("UP", "last(UP.val) > first(UP.val)"), window(1, 6))
    dn = SegGenFilter(var("DN", "last(DN.val) < first(DN.val)"), window(1, 6))
    calm = SegGenFilter(var("SM", "max(SM.val) - min(SM.val) <= 3"),
                        window(1, 12))
    children = {
        "RightProbeConcat": RightProbeConcat(up, dn, 0, window(2, 12)),
        "LeftProbeConcat": LeftProbeConcat(up, dn, 0, window(2, 12)),
        "RightProbeAnd": RightProbeAnd(calm, up, window(1, 12)),
        "LeftProbeAnd": LeftProbeAnd(up, calm, window(1, 12)),
    }
    return {name: ProbeNot(child, window(2, 12))
            for name, child in children.items()}


#: ``(condition_evals, probe_calls, probe_cache_hits, segments_emitted,
#: smallest max_segments that fits)`` of each ``probe_not_plans`` entry on
#: a 60-point random walk, as measured when the probe operators streamed
#: their anchors one by one.
STREAMED = {
    "RightProbeConcat": (2558, 962, 753, 1805, 90),
    "LeftProbeConcat": (2422, 938, 495, 1547, 114),
    "RightProbeAnd": (809, 894, 0, 1011, 117),
    "LeftProbeAnd": (809, 894, 0, 1011, 117),
}


@pytest.mark.parametrize("family", sorted(STREAMED))
def test_probe_not_still_stops_at_the_first_hit(family):
    """``ProbeNot`` probes its child with exact spaces and closes it after
    the first hit.  A probe operator under an exact space probes each
    anchor as it arrives, so no anchor past the first match is drawn,
    evaluated or charged: the work and the budget are streaming's."""
    series = make_series(np.cumsum(np.random.default_rng(3).normal(0, 1, 60)))
    op = probe_not_plans()[family]
    full = SearchSpace.full(len(series))
    *counts, budget = STREAMED[family]
    ctx = ExecContext(series)
    list(op.eval(ctx, full, {}))
    assert [ctx.stats[name] for name in (
        "condition_evals", "probe_calls", "probe_cache_hits",
        "segments_emitted")] == counts
    list(op.eval(ExecContext(series, segment_budget=budget), full, {}))
    with pytest.raises(ResourceBudgetExceeded):
        list(op.eval(ExecContext(series, segment_budget=budget - 1), full, {}))
