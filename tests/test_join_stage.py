"""The set-at-a-time join stage against an in-test pair-at-a-time join.

Every rewritten operator (sort-merge and probe Concat/And, WConcat, Or,
Kleene) runs over seeded random adjacencies and must emit exactly the
triples ``(start, end, payload)`` a brute-force join over all candidate
pairs accepts — each exactly once, with ``segments_emitted`` counting what
was actually yielded.  The reference re-checks search space and window per
pair with ``sp.contains`` / ``window.accepts``, i.e. independently of the
``end_range`` clip the operators use.
"""

import itertools
import random

import numpy as np
import pytest

from repro.errors import ResourceBudgetExceeded
from repro.exec.and_or import (LeftProbeAnd, RightProbeAnd, SortMergeAnd,
                               SortMergeOr)
from repro.exec.base import ExecContext, PhysicalOperator
from repro.exec.concat import (LeftProbeConcat, RightProbeConcat,
                               SortMergeConcat, WildWindowConcat)
from repro.exec.kleene import MaterializeKleene
from repro.lang.windows import WindowConjunction, WindowSpec
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment

from tests.conftest import make_series

N = 14
WILD = WindowConjunction.wild()
#: Irregular, partly tied timestamps so time windows are not index windows.
SERIES = make_series(np.zeros(N), timestamps=np.asarray(
    [0.0, 1.0, 1.0, 2.5, 4.0, 4.5, 7.0, 7.0, 8.0, 11.0, 12.0, 12.5, 15.0,
     16.0]))

WINDOWS = {
    "wild": WILD,
    "point": WindowConjunction([WindowSpec.point(1, 6)]),
    "time": WindowConjunction([WindowSpec.time("tstamp", 1.5, 7.0, "DAY")]),
    "point&time": WindowConjunction([
        WindowSpec.point(0, 8), WindowSpec.time("tstamp", 0.0, 9.0, "DAY")]),
}

SPACES = {
    "full": SearchSpace.full(N),
    "boxed": SearchSpace(2, 9, 4, 12),
    "narrow": SearchSpace(3, 3, 3, 13),
}


class Static(PhysicalOperator):
    """Child yielding fixed ``(start, end, payload)`` triples, duplicates
    and all, restricted to the search space it is handed."""

    name = "Static"

    def __init__(self, triples, publish=frozenset()):
        super().__init__(WILD, publish=frozenset(publish))
        self.triples = list(triples)

    def eval(self, ctx, sp, refs):
        for start, end, payload in self.triples:
            if sp.contains(start, end):
                yield self.emit(Segment(start, end, payload))


def random_triples(rng, names=(), density=0.35, zero_width=False):
    """Random segments; ``names`` are payload variables each one may bind."""
    triples = []
    for start in range(N):
        for end in range(start if zero_width else start + 1, N):
            if rng.random() < density:
                payload = {name: (rng.randrange(3), rng.randrange(3, 5))
                           for name in names if rng.random() < 0.8}
                triples.append((start, end, payload))
                if rng.random() < 0.15:  # duplicate child emission
                    triples.append((start, end, dict(payload)))
    rng.shuffle(triples)
    return triples


def triple(segment):
    return (segment.start, segment.end, segment.payload_key())


def run(op, sp):
    """Emitted triples, asserting uniqueness and the emission counter."""
    ctx = ExecContext(SERIES)
    out = [triple(segment) for segment in op.eval(ctx, sp, {})]
    assert len(out) == len(set(out)), "an operator emitted a duplicate"
    assert ctx.stats["segments_emitted"] == len(out)
    return set(out)


def children_of(op, sp_left, sp_right):
    ctx = ExecContext(SERIES)
    return (list(op.left.eval(ctx, sp_left, {})),
            list(op.right.eval(ctx, sp_right, {})))


def joined(op, sp, start, end, left, right):
    """The reference's per-pair check and payload merge (right wins)."""
    if not sp.contains(start, end) \
            or not op.window.accepts(SERIES, start, end):
        return None
    payload = dict(left.payload)
    payload.update(right.payload)
    return triple(Segment(start, end, payload).project_payload(op.publish))


def brute_concat(op, sp):
    sp = sp.clamp(N)
    lefts, rights = children_of(op, sp.concat_left(op.gap),
                                sp.concat_right(op.gap))
    pairs = ((left, right) for left in lefts for right in rights
             if right.start == left.end + op.gap)
    return {joined(op, sp, left.start, right.end, left, right)
            for left, right in pairs} - {None}


def brute_and(op, sp):
    sp = sp.clamp(N)
    lefts, rights = children_of(op, sp, sp)
    if isinstance(op, LeftProbeAnd):
        # On a name both sides bind, the probed side's value wins; for
        # the left-probing And that is the left child.
        lefts, rights = rights, lefts
    return {joined(op, sp, left.start, left.end, left, right)
            for left in lefts for right in rights
            if left.bounds == right.bounds} - {None}


def brute_or(op, sp):
    sp = sp.clamp(N)
    lefts, rights = children_of(op, sp, sp)
    return {joined(op, sp, seg.start, seg.end, seg, seg)
            for seg in lefts + rights} - {None}


def brute_wconcat(op, sp):
    sp = sp.clamp(N)
    lefts, rights = children_of(
        op, SearchSpace(sp.s_lo, sp.s_hi, sp.s_lo, sp.e_hi),
        SearchSpace(sp.s_lo, sp.e_hi, sp.e_lo, sp.e_hi))
    out = set()
    for left, right in itertools.product(lefts, rights):
        pad_start = left.end + op.gap_left
        pad_end = right.start - op.gap_right
        if pad_start <= pad_end < N and op.pad_window.accepts(
                SERIES, pad_start, pad_end):
            out.add(joined(op, sp, left.start, right.end, left, right))
    return out - {None}


def brute_kleene(op, sp):
    """Depth-first chaining over individual links, no state sharing."""
    sp = sp.clamp(N)
    ctx = ExecContext(SERIES)
    links = {seg.bounds for seg in op.child.eval(ctx, sp.kleene_child(), {})}
    out = set()

    def accept(start, end):
        if sp.contains(start, end) and op.window.accepts(SERIES, start, end):
            out.add((start, end, ()))

    def extend(start, end, reps):
        if reps >= op.min_reps:
            accept(start, end)
        if op.max_reps is not None and reps >= op.max_reps:
            return
        for link_start, link_end in links:
            if link_start == end + op.gap and (op.gap or link_end > end):
                extend(start, link_end, reps + 1)

    for start, end in links:
        if op.gap == 0 and end == start:
            # Under shared boundaries a zero-width link makes no progress
            # and never chains, but alone it is a complete single
            # repetition (DESIGN.md §3).
            if op.min_reps <= 1:
                accept(start, start)
        else:
            extend(start, end, 1)
    return out


CONCATS = {"sort-merge": SortMergeConcat, "right-probe": RightProbeConcat,
           "left-probe": LeftProbeConcat}
ANDS = {"sort-merge": SortMergeAnd, "right-probe": RightProbeAnd,
        "left-probe": LeftProbeAnd}
#: (left payload names, right payload names, what the join publishes):
#: none / one side / both sides with a colliding name / projected away.
PAYLOADS = {
    "free": ((), (), ()),
    "left": (("A",), (), ("A",)),
    "both": (("A", "X"), ("B", "X"), ("A", "B", "X")),
    "projected": (("A", "X"), ("B",), ("B",)),
}
SEEDS = range(6)


def binary_children(seed, payloads):
    left_names, right_names, publish = PAYLOADS[payloads]
    rng = random.Random(seed)
    return (Static(random_triples(rng, left_names), left_names),
            Static(random_triples(rng, right_names), right_names),
            frozenset(publish))


@pytest.mark.parametrize("payloads", PAYLOADS)
@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("impl", CONCATS)
def test_concat_matches_pair_join(impl, window, space, payloads):
    for seed, gap in itertools.product(SEEDS, (0, 1)):
        left, right, publish = binary_children(seed, payloads)
        op = CONCATS[impl](left, right, gap, WINDOWS[window],
                           publish=publish)
        assert run(op, SPACES[space]) == brute_concat(op, SPACES[space]), \
            (seed, gap)


@pytest.mark.parametrize("payloads", PAYLOADS)
@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("impl", ANDS)
def test_and_matches_pair_join(impl, window, space, payloads):
    left_names, right_names, publish = PAYLOADS[payloads]
    for seed in SEEDS:
        rng = random.Random(seed)
        # Both sides draw from one pool so identical bounds actually occur.
        pool = random_triples(rng, density=0.3)
        left = Static([(s, e, {n: (s, rng.randrange(2)) for n in left_names})
                       for s, e, _ in pool if rng.random() < 0.7], left_names)
        right = Static([(s, e, {n: (rng.randrange(2), e)
                                for n in right_names})
                        for s, e, _ in pool if rng.random() < 0.7],
                       right_names)
        op = ANDS[impl](left, right, WINDOWS[window],
                        publish=frozenset(publish))
        assert run(op, SPACES[space]) == brute_and(op, SPACES[space]), seed


@pytest.mark.parametrize("payloads", PAYLOADS)
@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("window", WINDOWS)
def test_or_matches_union(window, space, payloads):
    for seed in SEEDS:
        left, right, publish = binary_children(seed, payloads)
        op = SortMergeOr(left, right, WINDOWS[window], publish=publish)
        assert run(op, SPACES[space]) == brute_or(op, SPACES[space]), seed


@pytest.mark.parametrize("payloads", PAYLOADS)
@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("pad", ["wild", "point", "time"])
def test_wconcat_matches_pair_join(pad, window, space, payloads):
    for seed, gaps in itertools.product(SEEDS, ((0, 0), (1, 1), (0, 1))):
        left, right, publish = binary_children(seed, payloads)
        op = WildWindowConcat(left, right, WINDOWS[pad], WINDOWS[window],
                              publish=publish, gap_left=gaps[0],
                              gap_right=gaps[1])
        assert run(op, SPACES[space]) == brute_wconcat(op, SPACES[space]), \
            (seed, gaps)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("reps", [(1, None), (2, None), (3, None), (1, 1),
                                  (1, 3), (2, 4)])
@pytest.mark.parametrize("aware", [True, False], ids=["aware", "unaware"])
def test_kleene_matches_chain_enumeration(aware, reps, window, space):
    for seed, gap in itertools.product(SEEDS, (0, 1)):
        rng = random.Random(seed)
        # Sparse links keep the reference's exhaustive chaining
        # affordable; zero-width links exercise the lone-single rule.
        child = Static(random_triples(rng, density=0.12, zero_width=True))
        op = MaterializeKleene(child, reps[0], reps[1], gap, WINDOWS[window],
                               window_aware=aware)
        assert run(op, SPACES[space]) == brute_kleene(op, SPACES[space]), \
            (seed, gap)


def test_empty_sides_yield_nothing():
    some = Static(random_triples(random.Random(0)))
    binary = [(family, (0, WILD)) for family in CONCATS.values()] \
        + [(family, (WILD,)) for family in ANDS.values()] \
        + [(WildWindowConcat, (WILD, WILD))]
    for left, right in ((Static([]), some), (some, Static([])),
                        (Static([]), Static([]))):
        for family, args in binary:
            assert run(family(left, right, *args), SPACES["full"]) == set()
    assert run(MaterializeKleene(Static([]), 1, None, 0, WILD),
               SPACES["full"]) == set()
    assert run(SortMergeOr(Static([]), some, WILD), SPACES["full"]) == \
        {(s, e, ()) for s, e, _ in some.triples}


def test_sort_merge_skips_right_child_without_lefts():
    """No left segments, no join: the right child (and its condition
    evaluations) must not run at all."""
    class Exploding(PhysicalOperator):
        def eval(self, ctx, sp, refs):
            raise AssertionError("right child evaluated")
            yield  # pragma: no cover

    for family, args in ((SortMergeConcat, (0, WILD)), (SortMergeAnd, (WILD,)),
                         (WildWindowConcat, (WILD, WILD))):
        op = family(Static([]), Exploding(WILD), *args)
        assert run(op, SPACES["full"]) == set()


RIGHT_HEAVY = {
    "concat": lambda left, right: SortMergeConcat(left, right, 0, WILD),
    "wconcat": lambda left, right: WildWindowConcat(left, right, WILD, WILD),
    "and": lambda left, right: SortMergeAnd(left, right, WILD),
    "or": lambda left, right: SortMergeOr(left, right, WILD),
}


@pytest.mark.parametrize("family", RIGHT_HEAVY)
def test_right_adjacency_is_charged(family):
    """The join stage retains the right child too; ``max_segments`` must
    see it even when the left side is a single segment."""
    left = Static([(0, 1, {})])
    right = Static([(1, end, {}) for end in range(2, 10)] + [(0, 1, {})])
    ctx = ExecContext(SERIES, segment_budget=5)
    with pytest.raises(ResourceBudgetExceeded):
        list(RIGHT_HEAVY[family](left, right).eval(ctx, SPACES["full"], {}))


def test_kleene_frontiers_are_charged():
    """Draining the child costs one charge per link; a budget with a
    little headroom beyond that is blown by the frontiers alone."""
    links = [(start, start + 1, {}) for start in range(N - 1)]
    op = MaterializeKleene(Static(links), 1, None, 0, WILD)
    ctx = ExecContext(SERIES, segment_budget=len(links) + 3)
    with pytest.raises(ResourceBudgetExceeded):
        list(op.eval(ctx, SPACES["full"], {}))
    roomy = ExecContext(SERIES, segment_budget=10 * N * N)
    assert len(list(op.eval(roomy, SPACES["full"], {}))) == N * (N - 1) // 2
