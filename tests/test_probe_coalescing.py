"""Set-at-a-time probes: ``eval_spaces`` answers like per-space ``eval``.

A probe operator drains its driving child and hands every probe space to
the probed child in one ``eval_spaces`` call
(``PhysicalOperator.probe_all``); probed itself, it answers all its
spaces in one such drain (``ProbeOperator``).  The join stage's set
operators (sort-merge Concat/And/Or, WConcat, Kleene, ``MaterializeNot``,
the window pad) answer all the spaces of a call with one owner-tagged
batch (``SetOperator``).
The contract under test, for each leaf kind on every template variable,
for each probe operator (bare, under a ``FilterOp``, probing another
probe operator) and for each set operator (bare, and probed by each probe
operator) over template leaves: ``op.eval_spaces(ctx, spaces, refs)``,
read through its per-owner view, equals
``[list(op.eval(ctx, sp, refs)) for sp in spaces]`` — segments, payloads,
order, ``ctx.stats``, per-operator counters and the segments charged —
under either evaluator and on either side of ``BATCH_CROSSOVER``
(docs/VECTORIZATION.md, "Coalesced probes").  Spaces come from a
fixed-seed generator.
"""

import numpy as np
import pytest

from repro.datasets import load
from repro.exec import vector
from repro.errors import ResourceBudgetExceeded
from repro.exec.and_or import (LeftProbeAnd, RightProbeAnd, SortMergeAnd,
                               SortMergeOr)
from repro.exec.base import ExecContext
from repro.exec.concat import (LeftProbeConcat, RightProbeConcat,
                               SortMergeConcat, WildWindowConcat)
from repro.exec.filter_op import FilterOp
from repro.exec.kleene import MaterializeKleene
from repro.exec.metrics import RunMetrics
from repro.exec.seggen import SegGenFilter, SegGenIndexing, SegGenWindow
from repro.exec.not_op import MaterializeNot, ProbeNot
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
    """Segments per space, ``ctx.stats``, per-op counters and the
    segments charged against a (never exceeded) budget."""
    metrics = RunMetrics()
    ctx = ExecContext(series, metrics=metrics, vectorize=vectorize,
                      segment_budget=10 ** 9)
    if coalesced:
        found = op.eval_spaces(ctx, spaces, refs)
    else:
        found = [list(op.eval(ctx, sp, refs)) for sp in spaces]
    counters = {op_id: dict(record.counters)
                for op_id, record in metrics.ops.items() if record.counters}
    return ([[(seg.bounds, seg.payload) for seg in segments]
             for segments in found],
            sorted(ctx.stats.items()), counters, ctx.segments_charged)


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


def probe_families(a, b, window):
    """The four probe operators with ``a`` driving and ``b`` probed."""
    publish = a.publish | b.publish
    return {
        "RightProbeConcat": RightProbeConcat(a, b, 0, window,
                                             publish=publish),
        "LeftProbeConcat": LeftProbeConcat(b, a, 0, window,
                                           publish=publish),
        "RightProbeAnd": RightProbeAnd(a, b, window, publish=publish),
        "LeftProbeAnd": LeftProbeAnd(b, a, window, publish=publish),
    }


def probe_operators(template):
    """Every probe family over two of the template's condition leaves,
    bare, under a ``FilterOp`` that re-checks the driver's condition on
    its payload, and probing a probe operator (``nested``); with the
    series and the external references they need."""
    query = template.compile(template.param_sets()[0])
    names = [name for name in sorted(query.variables)
             if query.variables[name].condition is not None][:2]
    a_name, b_name = (names * 2)[:2]
    a_var, series, refs = setting(template, a_name)
    b_var, _, b_refs = setting(template, b_name)
    refs = {**b_refs, **refs}
    a = SegGenIndexing(a_var, a_var.window_conjunction,
                       publish=frozenset({a_name}))
    b = SegGenFilter(b_var, b_var.window_conjunction,
                     publish=frozenset({b_name}))
    window = WindowConjunction([WindowSpec.point(1, 25)])
    ops = {}
    for family, op in probe_families(a, b, window).items():
        ops[family] = op
        ops[f"{family}/filtered"] = FilterOp(
            op, [(a_name, a_var.condition)], WindowConjunction.wild(),
            publish=op.publish, requires=frozenset(a_var.external_refs))
        inner = RightProbeAnd(SegGenWindow(b_var.window_conjunction),
                              SegGenFilter(b_var, b_var.window_conjunction,
                                           publish=frozenset({b_name})),
                              WindowConjunction.wild(),
                              publish=frozenset({b_name}))
        ops[f"{family}/nested"] = probe_families(a, inner, window)[family]
    return ops, series, refs


@pytest.mark.parametrize("vectorize", [True, False],
                         ids=["vector", "scalar"])
@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda t: t.name)
def test_probe_operators_answer_spaces_like_eval(template, vectorize):
    """Nested coalescing: a probe operator handed many spaces drives once
    over all of them and answers all its jobs in one drain, yet each
    space gets what a per-space ``eval`` yields, counters and anchor
    charges included (none under an exact space)."""
    ops, series, refs = probe_operators(template)
    n = len(series)
    spaces = probe_spaces(n, 3)
    for kind, op in ops.items():
        want = answer(op, series, spaces, refs, vectorize, False)
        got = answer(op, series, spaces, refs, vectorize, True)
        assert got == want, kind


def set_operators(template):
    """Every set operator family over two of the template's condition
    leaves (payloads published, so joins merge and project them), with
    the series and the external references they need."""
    query = template.compile(template.param_sets()[0])
    names = [name for name in sorted(query.variables)
             if query.variables[name].condition is not None][:2]
    a_name, b_name = (names * 2)[:2]
    a_var, series, refs = setting(template, a_name)
    b_var, _, b_refs = setting(template, b_name)
    refs = {**b_refs, **refs}
    a = SegGenIndexing(a_var, a_var.window_conjunction,
                       publish=frozenset({a_name}))
    b = SegGenFilter(b_var, b_var.window_conjunction,
                     publish=frozenset({b_name}))
    plain = SegGenFilter(b_var, b_var.window_conjunction)
    requires = a.requires | b.requires
    both = a.publish | b.publish
    window = WindowConjunction([WindowSpec.point(1, 25)])
    pad = WindowConjunction([WindowSpec.point(0, 5)])
    wild = WindowConjunction.wild()
    ops = {
        "SortMergeConcat": SortMergeConcat(a, b, 0, window, publish=both,
                                           requires=requires),
        "SortMergeConcat/gap1": SortMergeConcat(
            a, b, 1, window, publish=frozenset({b_name}),
            requires=requires),
        "SortMergeAnd": SortMergeAnd(a, b, window, publish=both,
                                     requires=requires),
        "SortMergeOr": SortMergeOr(a, b, window, publish=both,
                                   requires=requires),
        "WildWindowConcat": WildWindowConcat(a, b, pad, window,
                                             publish=both,
                                             requires=requires),
        "MaterializeKleene": MaterializeKleene(plain, 1, None, 0, window,
                                               requires=requires),
        "MaterializeKleene/capped": MaterializeKleene(
            plain, 2, 3, 1, window, requires=requires, window_aware=False),
        "MaterializeNot": MaterializeNot(plain, pad, requires=requires),
        "SegGenWindow": SegGenWindow(pad, "W", publish=frozenset({"W"})),
    }
    ops["nested"] = SortMergeConcat(
        ops["SortMergeOr"], ops["MaterializeKleene"], 0, wild,
        publish=both, requires=requires)
    return ops, series, refs


@pytest.mark.parametrize("vectorize", [True, False],
                         ids=["vector", "scalar"])
@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda t: t.name)
def test_set_operators_answer_spaces_like_eval(template, vectorize):
    """A set operator handed many spaces evaluates each child once over
    all of them and answers every owner with one batch — exact, one-start,
    one-end, empty, out-of-range and duplicate spaces alike — yet each
    space gets what a per-space ``eval`` yields, counters and charges
    included; probed by each probe operator, it answers the probe's
    spaces in one call with the same result."""
    ops, series, refs = set_operators(template)
    spaces = probe_spaces(len(series), 4)
    driver = SegGenWindow(WindowConjunction([WindowSpec.point(0, 3)]))
    window = WindowConjunction([WindowSpec.point(1, 30)])
    few = spaces[:15] + spaces[-3:]  # every shape, duplicates too
    for kind, op in ops.items():
        # The scalar loop is slow: it sees every shape, not every space.
        mine = spaces if vectorize else few
        want = answer(op, series, mine, refs, vectorize, False)
        got = answer(op, series, mine, refs, vectorize, True)
        assert got == want, kind
        if not vectorize:
            continue
        hosts = probe_families(driver, op, window)
        for family in ("RightProbeConcat", "LeftProbeAnd"):
            host = hosts[family]
            host.requires = op.requires
            want = answer(host, series, few, refs, vectorize, False)
            got = answer(host, series, few, refs, vectorize, True)
            assert got == want, (kind, family)


def test_a_probed_set_operator_evaluates_each_child_once():
    """Probed, a sort-merge join is entered once for all its probe
    spaces and so is each of its children, where per-space entry made
    one call per anchor."""
    template = next(t for t in ALL_TEMPLATES if t.name == "head_shldr")
    ops, series, refs = set_operators(template)
    op = ops["SortMergeAnd"]
    host = RightProbeAnd(SegGenWindow(WindowConjunction(
        [WindowSpec.point(2, 9)])), op, WindowConjunction.wild())
    metrics = RunMetrics()
    ctx = ExecContext(series, metrics=metrics)
    list(host.eval(ctx, SearchSpace.full(len(series)), refs))
    calls = [metrics.ops[child.op_id].eval_calls
             for child in (op, op.left, op.right)]
    assert calls == [1, 1, 1]
    assert metrics.ops[op.op_id].spaces > 1


def test_a_probed_probe_operator_drives_once():
    """Entered once for all its spaces: its driver and its probed leaf
    each see one ``eval_spaces`` call, where per-space entry made one
    call per space."""
    template = next(t for t in ALL_TEMPLATES if t.name == "head_shldr")
    ops, series, refs = probe_operators(template)
    op = ops["LeftProbeAnd"]
    spaces = [SearchSpace(s, s, s + 3, s + 20) for s in range(0, 40, 2)]
    metrics = RunMetrics()
    ctx = ExecContext(series, metrics=metrics)
    op.eval_spaces(ctx, spaces, refs)
    assert [metrics.ops[child.op_id].eval_calls
            for child in (op, op.driver, op.probed)] == [1, 1, 1]
    assert metrics.ops[op.driver.op_id].spaces == len(spaces)


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
    a probed child's ``eval_spaces`` entry — a leaf's, or a probe
    operator's — answers every missed space through its own
    ``exec.<Op>.eval`` point: the same answer, and EXPLAIN ANALYZE sees
    one ``eval`` per space."""
    leaf, series = rising_leaf()
    wild = WindowConjunction.wild()
    probe_op = RightProbeAnd(SegGenWindow(leaf.window), leaf, wild)
    jobs = [(SearchSpace.exact(s, s + 6), Segment(0, s)) for s in range(5)]
    for op in (leaf, probe_op):
        host = RightProbeConcat(SegGenWindow(wild), op, 0, wild)
        found, stats, record = probed(host, op, series, jobs)
        assert record.eval_calls == 1
        with faults.inject(f"exec.{op.name}.eval", times=0) as spec:
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
