"""Physical operator unit tests on hand-built plans."""

import numpy as np
import pytest

from repro.exec.and_or import (LeftProbeAnd, RightProbeAnd, SortMergeAnd,
                               SortMergeOr)
from repro.exec import vector
from repro.exec.base import ExecContext
from repro.exec.concat import (LeftProbeConcat, RightProbeConcat,
                               SortMergeConcat, WildWindowConcat)
from repro.exec.filter_op import FilterOp
from repro.exec.kleene import MaterializeKleene
from repro.exec.not_op import MaterializeNot, ProbeNot
from repro.exec.seggen import SegGenFilter, SegGenIndexing, SegGenWindow
from repro.lang.parser import parse_condition
from repro.lang.query import VarDef
from repro.lang.windows import WindowConjunction, WindowSpec
from repro.plan.search_space import SearchSpace

from tests.conftest import make_series
from tests.test_timeout_ticks import _StaticOp


def window(lo, hi):
    return WindowConjunction([WindowSpec.point(lo, hi)])


WILD = WindowConjunction.wild()


def run(op, series, sp=None, refs=None):
    ctx = ExecContext(series)
    if sp is None:
        sp = SearchSpace.full(len(series))
    return sorted({seg.bounds for seg in op.eval(ctx, sp, refs or {})}), ctx


def rising_var(name="UP", windows=()):
    condition = parse_condition(
        f"last({name}.val) > first({name}.val)")
    return VarDef(name, True, tuple(windows), condition, frozenset())


class TestSegGen:
    def test_window_generator(self):
        series = make_series([1, 2, 3, 4])
        op = SegGenWindow(window(1, 2), "W")
        got, _ = run(op, series)
        assert got == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]

    def test_window_respects_search_space(self):
        series = make_series([1, 2, 3, 4])
        op = SegGenWindow(window(0, 3), "W")
        got, _ = run(op, series, SearchSpace.exact(1, 3))
        assert got == [(1, 3)]

    def test_filter_and_indexing_agree(self):
        series = make_series(np.cumsum(np.random.default_rng(0)
                                       .normal(0, 1, 25)))
        var = VarDef("X", True, (WindowSpec.point(2, 6),),
                     parse_condition(
                         "linear_reg_r2_signed(X.tstamp, X.val) >= 0.5"),
                     frozenset())
        filt, _ = run(SegGenFilter(var, var.window_conjunction), series)
        indexed, ctx = run(SegGenIndexing(var, var.window_conjunction),
                           series)
        assert filt == indexed
        assert ctx.stats["index_builds"] == 1
        assert ctx.stats["index_lookups"] > 0

    def test_point_variable_only_single_points(self):
        series = make_series([1, 5, 2])
        var = VarDef("P", False, (WindowSpec.point_fixed(0),),
                     parse_condition("val > 3"), frozenset())
        got, _ = run(SegGenFilter(var, var.window_conjunction), series)
        assert got == [(1, 1)]

    def test_publish_payload(self):
        series = make_series([1, 2])
        op = SegGenWindow(window(0, 1), "W", publish=frozenset({"W"}))
        ctx = ExecContext(series)
        segs = list(op.eval(ctx, SearchSpace.full(2), {}))
        assert all(seg.payload == {"W": seg.bounds} for seg in segs)


class TestConcatOperators:
    def setup_method(self):
        self.series = make_series([3, 1, 4, 2, 5])
        down = VarDef("DN", True, (),
                      parse_condition("last(DN.val) < first(DN.val)"),
                      frozenset())
        up = VarDef("UP", True, (),
                    parse_condition("last(UP.val) > first(UP.val)"),
                    frozenset())
        self.left = SegGenFilter(down, window(1, 2))
        self.right = SegGenFilter(up, window(1, 2))

    @pytest.mark.parametrize("cls", [SortMergeConcat, RightProbeConcat,
                                     LeftProbeConcat])
    def test_variants_agree(self, cls):
        op = cls(self.left, self.right, 0, window(2, 4))
        got, _ = run(op, self.series)
        reference, _ = run(SortMergeConcat(self.left, self.right, 0,
                                           window(2, 4)), self.series)
        assert got == reference
        assert got  # non-empty on this fixture

    def test_gap_one_disjoint(self):
        series = make_series([1, 5, 1, 5])
        a = VarDef("A", False, (WindowSpec.point_fixed(0),),
                   parse_condition("val < 3"), frozenset())
        b = VarDef("B", False, (WindowSpec.point_fixed(0),),
                   parse_condition("val > 3"), frozenset())
        op = SortMergeConcat(
            SegGenFilter(a, a.window_conjunction),
            SegGenFilter(b, b.window_conjunction), 1, WILD)
        got, _ = run(op, series)
        assert got == [(0, 1), (2, 3)]

    def test_window_checked_on_result(self):
        op = SortMergeConcat(self.left, self.right, 0, window(4, 4))
        got, _ = run(op, self.series)
        assert all(e - s == 4 for s, e in got)

    def test_probe_caching(self):
        op = RightProbeConcat(self.left, self.right, 0, WILD)
        _, ctx = run(op, self.series)
        assert ctx.stats["probe_calls"] >= 1

    def test_wild_window_concat(self):
        series = make_series([1, 5, 0, 0, 1, 5])
        a = VarDef("A", True, (WindowSpec.point_fixed(1),),
                   parse_condition("last(A.val) - first(A.val) >= 4"),
                   frozenset())
        left = SegGenFilter(a, a.window_conjunction)
        right = SegGenFilter(a, a.window_conjunction)
        pad = WindowConjunction.wild()
        op = WildWindowConcat(left, right, pad, WILD)
        got, _ = run(op, series)
        # Pairs of rising jumps with any gap: [0,1] then [4,5].
        assert (0, 5) in got


class TestAndOperators:
    def setup_method(self):
        self.series = make_series([1, 2, 3, 2, 4])
        rising = rising_var("UP")
        small = VarDef(
            "SMALL", True, (),
            parse_condition("last(SMALL.val) - first(SMALL.val) <= 2"),
            frozenset())
        self.left = SegGenFilter(rising, window(1, 3))
        self.right = SegGenFilter(small, window(1, 3))

    @pytest.mark.parametrize("cls", [SortMergeAnd, RightProbeAnd,
                                     LeftProbeAnd])
    def test_variants_agree(self, cls):
        got, _ = run(cls(self.left, self.right, window(1, 3)), self.series)
        reference, _ = run(SortMergeAnd(self.left, self.right,
                                        window(1, 3)), self.series)
        assert got == reference and got

    def test_or_union(self):
        got, _ = run(SortMergeOr(self.left, self.right, window(1, 3)),
                     self.series)
        left_only, _ = run(self.left, self.series)
        right_only, _ = run(self.right, self.series)
        assert set(got) == set(left_only) | set(right_only)


class TestNotOperators:
    def setup_method(self):
        self.series = make_series([1, 2, 1, 3])
        falling = VarDef("F", True, (),
                         parse_condition("last(F.val) < first(F.val)"),
                         frozenset())
        self.child = SegGenFilter(falling, window(1, 2))

    def test_materialize_and_probe_agree(self):
        win = window(1, 2)
        mat, _ = run(MaterializeNot(self.child, win), self.series)
        probe, _ = run(ProbeNot(self.child, win), self.series)
        assert mat == probe

    def test_complement_semantics(self):
        win = window(1, 2)
        matched, _ = run(self.child, self.series)
        complement, _ = run(MaterializeNot(self.child, win), self.series)
        ctx = ExecContext(self.series)
        universe = set(vector.pairs(*vector.candidate_runs(
            win, ctx, SearchSpace(0, 3, 0, 3))))
        assert set(complement) == universe - set(matched)


class TestPointWindowOverOddTimes:
    """A point window with a time spec whose column is NaN or infinite at
    a point: the duration there is NaN, which ``accepts()`` admits, so the
    window leaf and both Nots must emit that point."""

    series = make_series(np.zeros(6), extra={
        "t2": [0.0, np.nan, 2.0, np.inf, -np.inf, 5.0]})
    window = WindowConjunction([WindowSpec.point(0, 0),
                                WindowSpec.time("t2", 1, 3, "DAY")])

    @pytest.mark.parametrize("family", ["SegGenWindow", "MaterializeNot",
                                        "ProbeNot"])
    def test_operators_give_the_accepts_answer(self, family):
        child = _StaticOp(((1, 1), (0, 2)))
        op = {"SegGenWindow": lambda: SegGenWindow(self.window, "P"),
              "MaterializeNot": lambda: MaterializeNot(child, self.window),
              "ProbeNot": lambda: ProbeNot(child, self.window)}[family]()
        with np.errstate(invalid="ignore"):  # inf - inf is NaN
            accepted = [(i, i) for i in range(len(self.series))
                        if self.window.accepts(self.series, i, i)]
        assert accepted == [(1, 1), (3, 3), (4, 4)]
        if family != "SegGenWindow":
            accepted.remove((1, 1))  # the child's match
        got, _ = run(op, self.series)
        assert got == accepted


class TestKleene:
    def test_window_aware_prunes(self):
        series = make_series(np.arange(12.0))
        up = rising_var("UP", [WindowSpec.point(1, 2)])
        child = SegGenFilter(up, up.window_conjunction)
        aware = MaterializeKleene(child, 1, None, 0, window(0, 4))
        got, ctx_aware = run(aware, series)
        assert got and all(e - s <= 4 for s, e in got)
        unaware = MaterializeKleene(child, 1, None, 0, window(0, 4),
                                    window_aware=False)
        got2, ctx_unaware = run(unaware, series)
        assert got2 == got  # same results
        # ...but the window-aware version does no more work.
        assert ctx_aware.stats["segments_emitted"] <= \
            ctx_unaware.stats["segments_emitted"]

    def test_exact_repetitions(self):
        series = make_series([1, 2, 3, 4])
        up = rising_var("UP", [WindowSpec.point_fixed(1)])
        child = SegGenFilter(up, up.window_conjunction)
        op = MaterializeKleene(child, 2, 2, 0, window(0, 9))
        got, _ = run(op, series)
        assert got == [(0, 2), (1, 3)]

    def test_min_zero_rejected(self):
        series = make_series([1, 2])
        up = rising_var("UP")
        child = SegGenFilter(up, WILD)
        with pytest.raises(ValueError):
            MaterializeKleene(child, 0, None, 0, WILD)

    def test_zero_duration_links_skipped(self):
        # A child matching single points must not loop forever.
        series = make_series([1, 1, 1])
        anyseg = VarDef("S", True, (WindowSpec.point(0, 1),), None,
                        frozenset())
        child = SegGenWindow(anyseg.window_conjunction, "S")
        op = MaterializeKleene(child, 1, None, 0, window(0, 2))
        got, _ = run(op, series)
        assert (0, 2) in got


class TestFilterAndSubPattern:
    def test_filter_uses_payload_refs(self):
        series = make_series([1, 2, 3, 4, 5, 6])
        up = rising_var("UP", [WindowSpec.point_fixed(2)])
        left = SegGenFilter(up, up.window_conjunction,
                            publish=frozenset({"UP"}))
        pad = SegGenWindow(window(0, 3), "G")
        concat = SortMergeConcat(left, pad, 0, WILD,
                                 publish=frozenset({"UP"}))
        condition = parse_condition("last(UP.val) - first(UP.val) = 2")
        filt = FilterOp(concat, [("UP", condition)], WILD)
        got, _ = run(filt, series)
        assert got  # UP rises by exactly 2 over duration-2 windows here


class TestExplain:
    def test_explain_tree(self):
        series = make_series([1, 2, 3])
        up = rising_var("UP")
        op = SortMergeConcat(SegGenFilter(up, WILD),
                             SegGenWindow(WILD, "W"), 0, window(1, 2))
        text = op.explain()
        assert "SortMergeConcat" in text
        assert "SegGenFilter(UP)" in text
        assert "SegGenWindow(W)" in text
        del series


class TestPlanSerialization:
    def test_to_dict_structure(self):
        series = make_series([1, 2, 3])
        up = rising_var("UP")
        op = SortMergeConcat(SegGenFilter(up, WILD),
                             SegGenWindow(window(0, 2), "W"), 0,
                             window(1, 2))
        node = op.to_dict()
        assert node["operator"].startswith("SortMergeConcat")
        assert len(node["children"]) == 2
        assert node["window"] == "window(1, 2)"
        del series

    def test_to_dict_json_round_trip(self):
        import json
        up = rising_var("UP")
        op = SegGenFilter(up, window(1, 4), publish=frozenset({"UP"}))
        text = json.dumps(op.to_dict())
        back = json.loads(text)
        assert back["publish"] == ["UP"]
