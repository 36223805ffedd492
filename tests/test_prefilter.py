"""Prefilter tests: extraction, the on/off parity contract, toggles,
plan-cache separation and pruning counters (docs/PREFILTER.md)."""

import math

import numpy as np
import pytest

from repro.core.engine import TRexEngine
from repro.datasets import load
from repro.errors import PlanError
from repro.lang.query import compile_query
from repro.plan.logical import build_logical_plan
from repro.plan.prefilter import (COUNTER_KEYS, Atom, PrefilterPlan,
                                  extract_prefilter)
from repro.queries import get_template
from repro.queries.templates import ALL_TEMPLATES

from tests.conftest import make_series


def extract(text, params=None):
    query = compile_query(text, params)
    return extract_prefilter(query, build_logical_plan(query))


SPIKE = """
ORDER BY tstamp
PATTERN (A & W)
DEFINE
  SEGMENT A AS min(A.val) >= 90,
  SEGMENT W AS window(2, 8)
"""


class TestExtraction:
    def test_min_comparison_yields_atom_and_window(self):
        plan = extract(SPIKE)
        assert plan.eligible and plan.active and not plan.never
        assert plan.window_lo == 2 and plan.window_hi == 8
        [(atom,)] = plan.clauses
        assert atom == Atom("val", 90.0, math.inf)

    def test_point_comparison_yields_atom(self):
        plan = extract("ORDER BY tstamp\nPATTERN (A)\n"
                       "DEFINE A AS val > 5")
        [(atom,)] = plan.clauses
        assert atom.column == "val" and atom.lo == 5.0 and atom.lo_open

    def test_between_yields_closed_atom(self):
        plan = extract("ORDER BY tstamp\nPATTERN (A)\n"
                       "DEFINE A AS val BETWEEN 2 AND 4")
        [(atom,)] = plan.clauses
        assert (atom.lo, atom.hi) == (2.0, 4.0)
        assert not atom.lo_open and not atom.hi_open

    def test_conjunction_keeps_both_clauses(self):
        # CNF keeps per-clause witnesses; the cross-clause contradiction
        # is not folded (each clause still prunes independently).
        plan = extract("ORDER BY tstamp\nPATTERN (A)\n"
                       "DEFINE A AS val > 5 and val < 3")
        assert plan.eligible and len(plan.clauses) == 2

    def test_empty_between_never_matches(self):
        plan = extract("ORDER BY tstamp\nPATTERN (A)\n"
                       "DEFINE A AS val BETWEEN 5 AND 3")
        assert plan.eligible and plan.never

    def test_disjunction_lowered_to_one_clause(self):
        plan = extract("ORDER BY tstamp\nPATTERN (A)\n"
                       "DEFINE A AS val < 1 or val > 9")
        [clause] = plan.clauses
        assert len(clause) == 2

    def test_count_bounds_tighten_window(self):
        plan = extract("ORDER BY tstamp\nPATTERN (A)\n"
                       "DEFINE SEGMENT A AS count(A.val) >= 4 "
                       "and count(A.val) <= 6")
        assert plan.window_lo == 3 and plan.window_hi == 5

    def test_fractional_count_equality_is_never(self):
        plan = extract("ORDER BY tstamp\nPATTERN (A)\n"
                       "DEFINE SEGMENT A AS count(A.val) = 2.5")
        assert plan.never

    def test_non_total_aggregate_is_inert(self):
        plan = extract("ORDER BY tstamp\nPATTERN (A)\nDEFINE SEGMENT A "
                       "AS zscore_outlier(val, 3) > 2")
        assert not plan.eligible and not plan.active
        assert "not total" in plan.note

    @pytest.mark.parametrize("name", ["v_shape", "head_shldr", "rebound",
                                      "cld_wave", "cld_wave_alt",
                                      "rptd_pttrn"])
    def test_registry_aliases_are_total(self, name):
        # These templates spell `linear_reg_r2_signed`, the registry's
        # alias of `linear_regression_r2_signed`.
        template = get_template(name)
        query = template.compile(template.param_sets()[0])
        assert "linear_reg_r2_signed" in template.text
        plan = extract_prefilter(query, build_logical_plan(query))
        assert plan.eligible, plan.note

    def test_an_unregistered_total_name_is_not_total(self):
        # Resolution goes through the query's own registry.
        from repro.aggregates.registry import AggregateRegistry
        from repro.plan.prefilter import _total_expr
        condition = compile_query(
            "ORDER BY tstamp\nPATTERN (A)\nDEFINE SEGMENT A AS "
            "linear_reg_r2_signed(A.tstamp, A.val) > 0.5"
        ).variables["A"].condition
        assert not _total_expr(condition, AggregateRegistry())

    def test_cross_variable_condition_carries_no_atom(self):
        plan = extract("ORDER BY tstamp\nPATTERN (A B)\n"
                       "DEFINE SEGMENT A AS count(A.val) >= 1,\n"
                       "  SEGMENT B AS avg(B.val) > avg(A.val)")
        assert plan.eligible
        assert not plan.clauses       # nothing local to B

    def test_synthetic_aggregates_carry_no_atom(self):
        # avg's value is not an element of the segment: no witness atom.
        plan = extract("ORDER BY tstamp\nPATTERN (A)\n"
                       "DEFINE SEGMENT A AS avg(A.val) > 100")
        assert plan.eligible and not plan.clauses

    def test_required_columns_recorded(self):
        plan = extract(SPIKE)
        assert "val" in plan.required_columns

    def test_describe_shapes(self):
        assert "clause" in extract(SPIKE).describe()
        inert = PrefilterPlan(note="why")
        assert "inert" in inert.describe()
        assert "never" in PrefilterPlan(never=True,
                                        eligible=True).describe()


class TestEngineParity:
    def _dataset(self, seed=3):
        rng = np.random.default_rng(seed)
        out = []
        for index in range(12):
            values = rng.uniform(10.0, 60.0, 160)
            if index % 4 == 0:
                at = int(rng.integers(8, 140))
                values[at:at + 5] = rng.uniform(95.0, 120.0, 5)
            out.append(make_series(values, key=(f"s{index}",)))
        return out

    def test_on_off_matches_identical(self):
        query = compile_query(SPIKE)
        series = self._dataset()
        off = TRexEngine(prefilter=False).execute_query(query, series)
        on = TRexEngine(prefilter=True).execute_query(query, series)
        assert off.matches_by_key() == on.matches_by_key()
        assert on.prefilter["series_skipped"] > 0

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_parity_across_executors(self, executor):
        query = compile_query(SPIKE)
        series = self._dataset()
        off = TRexEngine(prefilter=False).execute_query(query, series)
        on = TRexEngine(prefilter=True, executor=executor,
                        workers=2).execute_query(query, series)
        assert off.matches_by_key() == on.matches_by_key()
        assert on.prefilter["series_examined"] == len(series)

    @pytest.mark.parametrize("template", [t.name for t in ALL_TEMPLATES])
    def test_parity_over_template_corpus(self, template):
        tmpl = get_template(template)
        table = load(tmpl.dataset, num_series=2, length=40)
        query = tmpl.compile(tmpl.param_sets()[0])
        series = table.partition(query.partition_by, query.order_by)
        off = TRexEngine(prefilter=False).execute_query(query, series)
        on = TRexEngine(prefilter=True).execute_query(query, series)
        assert off.matches_by_key() == on.matches_by_key(), template
        assert off.plan_explain == on.plan_explain, template

    def test_disabled_result_is_byte_identical_shape(self):
        query = compile_query(SPIKE)
        series = self._dataset()
        result = TRexEngine(prefilter=False).execute_query(query, series)
        assert result.prefilter is None
        assert "prefilter" not in result.metrics_dict()

    def test_enabled_report_has_stable_keys(self):
        query = compile_query(SPIKE)
        result = TRexEngine(prefilter=True).execute_query(
            query, self._dataset())
        report = result.prefilter
        for key in COUNTER_KEYS:
            assert key in report
        assert report["enabled"] and report["active"]
        assert 0.0 <= report["coverage"] <= 1.0
        assert result.metrics_dict()["prefilter"] == report

    def test_inert_plan_runs_full_everywhere(self):
        # Non-total condition: the plan is inert, every series runs the
        # classic full scan and no pruning counter moves.
        query = compile_query(
            "ORDER BY tstamp\nPATTERN (A)\nDEFINE A AS "
            "zscore_outlier(val, 3) > 2")
        series = self._dataset()
        off = TRexEngine(prefilter=False).execute_query(query, series)
        on = TRexEngine(prefilter=True).execute_query(query, series)
        assert off.matches_by_key() == on.matches_by_key()
        assert not on.prefilter["active"]
        assert on.prefilter["series_examined"] == 0

    def test_missing_column_errors_survive_pruning(self):
        # One series lacks the price column: both runs must produce the
        # same DataError record (eligibility guards skip decisions).
        query = compile_query("ORDER BY tstamp\nPATTERN (A & W)\n"
                              "DEFINE SEGMENT A AS min(A.price) >= 90,\n"
                              "  SEGMENT W AS window(2, 8)")
        rng = np.random.default_rng(5)
        good = make_series(rng.uniform(0, 50, 100),
                           extra={"price": rng.uniform(0, 50, 100)},
                           key=("good",))
        bad = make_series(rng.uniform(0, 50, 100), key=("bad",))
        for series_list in ([good, bad], [bad, good]):
            off = TRexEngine(prefilter=False, on_error="partial") \
                .execute_query(query, series_list)
            on = TRexEngine(prefilter=True, on_error="partial") \
                .execute_query(query, series_list)
            assert off.matches_by_key() == on.matches_by_key()
            assert [e.format() for e in off.errors] == \
                [e.format() for e in on.errors]
            assert len(on.errors) == 1


class TestToggle:
    def test_ctor_validates_prefilter(self):
        with pytest.raises(PlanError):
            TRexEngine(prefilter="yes")

    def test_analyze_banner_mentions_prefilter(self):
        result = TRexEngine(prefilter=True, analyze=True).execute_query(
            compile_query(SPIKE), [make_series(np.zeros(100) + 5.0)])
        assert ":: prefilter:" in result.plan_analyze


class TestPlanCacheSeparation:
    def test_on_off_share_one_cache_entry(self):
        # The toggle is not part of the plan key: the physical plan never
        # depended on it and every entry carries the extracted prefilter
        # plan, so an entry the off engine built still prunes for the on
        # engine.
        from repro.core.plancache import PlanCache
        cache = PlanCache(max_entries=8)
        query = compile_query(SPIKE)
        series = [make_series(np.zeros(100) + 5.0)]
        on = TRexEngine(prefilter=True, plan_cache=cache)
        off = TRexEngine(prefilter=False, plan_cache=cache)
        assert off.execute_query(query, series).prefilter is None
        pruned = on.execute_query(query, series)
        assert cache.counters()["plan_misses"] == 1
        assert cache.counters()["plan_hits"] == 1
        assert pruned.prefilter["series_skipped"] == 1

    def test_cached_prefilter_plan_still_prunes(self):
        from repro.core.plancache import PlanCache
        cache = PlanCache(max_entries=8)
        query = compile_query(SPIKE)
        series = [make_series(np.zeros(100) + 5.0)]
        engine = TRexEngine(prefilter=True, plan_cache=cache)
        first = engine.execute_query(query, series)
        second = engine.execute_query(query, series)
        assert first.prefilter["series_skipped"] == 1
        assert second.prefilter["series_skipped"] == 1
