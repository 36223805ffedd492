"""Cost-model component tests (costmodel.py + CostBasedPlanner.price)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.query import compile_query
from repro.testing.fuzz import QueryGen, SeriesGen, _compiles, build_series
from repro.optimizer import costmodel as CM
from repro.optimizer.planner import CostBasedPlanner
from repro.optimizer.rulebased import RuleBasedPlanner, RuleStrategy
from repro.plan.logical import (LKleene, LNot, LOr, build_logical_plan,
                                walk)

from tests.conftest import make_series


def series_list(seed=0, n=40, count=2):
    rng = np.random.default_rng(seed)
    return [make_series(np.cumsum(rng.normal(0, 1, n)) + 50)
            for _ in range(count)]


class TestDurationBounds:
    def test_or_takes_union(self):
        query = compile_query(
            "ORDER BY tstamp\nPATTERN (A | B) & WIN\n"
            "DEFINE SEGMENT A AS window(2, 4) AND last(A.val) > 0,\n"
            "SEGMENT B AS window(6, 8) AND last(B.val) > 0,\n"
            "SEGMENT WIN AS window(0, 20)")
        plan = build_logical_plan(query)
        series = make_series(np.zeros(30))
        or_node = next(n for n in walk(plan) if isinstance(n, LOr))
        lo, hi = CM.node_duration_bounds(or_node, series)
        assert lo == 2 and hi == 8

    def test_kleene_scales_with_reps(self):
        query = compile_query(
            "ORDER BY tstamp\nPATTERN (S{3}) & WIN\n"
            "DEFINE SEGMENT S AS window(2, 2) AND last(S.val) > 0,\n"
            "SEGMENT WIN AS window(0, 30)")
        plan = build_logical_plan(query)
        series = make_series(np.zeros(40))
        kleene = next(n for n in walk(plan) if isinstance(n, LKleene))
        lo, hi = CM.node_duration_bounds(kleene, series)
        assert lo >= 6  # three reps of duration-2 segments

    def test_not_uses_window(self):
        query = compile_query(
            "ORDER BY tstamp\nPATTERN (~F) & WIN\n"
            "DEFINE SEGMENT F AS last(F.val) < 0,\n"
            "SEGMENT WIN AS window(3, 7)")
        plan = build_logical_plan(query)
        series = make_series(np.zeros(20))
        not_node = next(n for n in walk(plan) if isinstance(n, LNot))
        lo, hi = CM.node_duration_bounds(not_node, series)
        assert (lo, hi) == (3, 7)

    def test_time_window_converted_by_avg_step(self):
        from repro.lang.windows import WindowConjunction, WindowSpec
        # 2-day steps: a 10-day window is ~5 index steps.
        series = make_series(np.zeros(11),
                             timestamps=np.arange(0.0, 22.0, 2.0))
        window = WindowConjunction(
            [WindowSpec.time("tstamp", 0, 10, "DAY")])
        lo, hi = CM.window_duration_bounds(window, series)
        assert lo == 0 and hi == pytest.approx(5.0)


class TestBoxedPairFraction:
    @given(ls=st.integers(1, 60), le=st.integers(1, 60),
           lo=st.integers(0, 10), width=st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_fraction_in_unit_interval(self, ls, le, lo, width):
        lse = max(ls, le)
        fraction = CM.boxed_pair_fraction(ls, le, lse, (lo, lo + width))
        assert 0.0 <= fraction <= 1.0

    def test_wider_window_never_less_selective(self):
        narrow = CM.boxed_pair_fraction(50, 50, 50, (2, 4))
        wide = CM.boxed_pair_fraction(50, 50, 50, (2, 10))
        assert wide >= narrow

    def test_sampled_start_path(self):
        # ls above the sampling cap still returns something sane.
        fraction = CM.boxed_pair_fraction(10_000, 10_000, 10_000, (0, 10))
        assert 0.0 < fraction < 0.01


class TestConcatSelectivity:
    def test_disjoint_children_cannot_reach_window(self):
        # children sum to >= 20 but the window caps at 10.
        sel = CM.concat_window_selectivity((0, 10), (10, 15), (10, 15), 0,
                                           100)
        assert sel == 0.0

    def test_gap_shifts_total(self):
        tight = CM.concat_window_selectivity((2, 2), (1, 1), (1, 1), 0, 50)
        shifted = CM.concat_window_selectivity((3, 3), (1, 1), (1, 1), 1,
                                               50)
        assert tight == shifted == 1.0

    def test_empty_child_range(self):
        assert CM.concat_window_selectivity((0, 5), (10, 4), (0, 2), 0,
                                            50) == 0.0


def price(text, data, strategy):
    """``CostBasedPlanner.price`` of one rule-based plan for ``text``."""
    query = compile_query(text)
    logical = build_logical_plan(query)
    planner = CostBasedPlanner()
    planner.optimize(query, logical, data)
    return planner.price(RuleBasedPlanner(strategy).plan(query, logical))


class TestPlanCosterBranches:
    """Every operator family through ``CostBasedPlanner.price``."""

    def cost(self, text, strategy=RuleStrategy("left", "probe")):
        value = price(text, series_list(1), strategy)
        assert math.isfinite(value) and value > 0
        return value

    def test_or_plan(self):
        self.cost("ORDER BY tstamp\nPATTERN (A | B) & WIN\n"
                  "DEFINE SEGMENT A AS last(A.val) > 0,\n"
                  "SEGMENT B AS last(B.val) < 0,\n"
                  "SEGMENT WIN AS window(1, 6)")

    def test_not_plans_both_variants(self):
        text = ("ORDER BY tstamp\nPATTERN R & WIN & ~(F W)\n"
                "DEFINE SEGMENT R AS last(R.val) > first(R.val),\n"
                "SEGMENT WIN AS window(1, 6),\n"
                "SEGMENT F AS last(F.val) < first(F.val),\n"
                "SEGMENT W AS true")
        materialize = self.cost(text, RuleStrategy("left", "probe",
                                                   "materialize"))
        probe = self.cost(text, RuleStrategy("left", "probe", "probe"))
        assert materialize != probe

    def test_kleene_plan(self):
        self.cost("ORDER BY tstamp\nPATTERN ((UP & W)+) & WIN\n"
                  "DEFINE SEGMENT W AS window(1, 3),\n"
                  "SEGMENT UP AS last(UP.val) > first(UP.val),\n"
                  "SEGMENT WIN AS window(2, 9)")

    def test_filter_plan(self):
        # Sort-merge over references forces a Filter.
        self.cost("ORDER BY tstamp\nPATTERN (UP G X) & WIN\n"
                  "DEFINE SEGMENT UP AS last(UP.val) > first(UP.val),\n"
                  "SEGMENT G AS true,\n"
                  "SEGMENT X AS corr(X.val, UP.val) > 0.5 AND window(2, 4),"
                  "\nSEGMENT WIN AS window(3, 10)",
                  RuleStrategy("left", "sm"))

    def test_bigger_data_bigger_cost(self):
        text = ("ORDER BY tstamp\nPATTERN (UP & W) & WIN\n"
                "DEFINE SEGMENT W AS window(2, null),\n"
                "SEGMENT UP AS linear_reg_r2_signed(UP.tstamp, UP.val)"
                " >= 0.8,\nSEGMENT WIN AS window(1, 10)")
        strategy = RuleStrategy("left", "sm")
        small_cost = price(text, series_list(2, n=30), strategy)
        big_cost = price(text, series_list(2, n=120), strategy)
        assert big_cost > small_cost


def fuzz_cases(count=60):
    """Seeded fuzz queries (Or, Not, Kleene, references and lifts
    included), each with a few short series."""
    for seed in range(count):
        rng = random.Random(seed)
        text = _compiles(QueryGen(rng, max_nodes=7).generate())
        if text is None:
            continue
        series = [build_series(*SeriesGen(rng, max_len=40).generate())
                  for _ in range(3)]
        series = [one for one in series if len(one)]
        if series:
            yield text, series


class TestPriceIsTheEstimate:
    """``price()`` of the DP's own plan re-derives ``last_estimated_cost``
    bit for bit: the DP and the pricing walk share every formula and
    every input.  tests/test_plan_corpus.py checks the same on every
    template grid point."""

    @pytest.mark.parametrize("sharing", ["auto", "off", "on"])
    @pytest.mark.parametrize("allow_probes", [True, False])
    def test_fuzz_sample(self, sharing, allow_probes):
        checked = 0
        for text, series in fuzz_cases():
            query = compile_query(text)
            planner = CostBasedPlanner(allow_probes=allow_probes,
                                       sharing=sharing)
            plan = planner.plan(query, None, series)
            assert planner.price(plan) == planner.last_estimated_cost, text
            checked += 1
        assert checked >= 40
