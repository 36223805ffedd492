"""Unit tests for the shared plan-construction helpers."""

import pytest

from repro.errors import PlanError
from repro.lang.query import compile_query
from repro.optimizer.construct import (Construction, publish_set,
                                       validate_scoping, var_is_indexable)
from repro.plan.logical import LVar, build_logical_plan, walk


def query_of(text):
    return compile_query(text)


REFS_TEXT = """
ORDER BY tstamp
PATTERN (UP GAP X) & WIN
DEFINE SEGMENT UP AS last(UP.val) > 1,
  SEGMENT GAP AS true,
  SEGMENT X AS corr(X.val, UP.val) > 0.5,
  SEGMENT WIN AS window(0, 20)
"""


class TestPublishSet:
    def test_referenced_and_referencing(self):
        query = query_of(REFS_TEXT)
        published = publish_set(query)
        # UP is referenced; X holds an external reference (lift owner).
        assert published == frozenset({"UP", "X"})

    def test_no_refs_empty(self):
        query = query_of("ORDER BY t\nPATTERN (A)\n"
                         "DEFINE SEGMENT A AS last(A.v) > 1")
        assert publish_set(query) == frozenset()


class TestIndexable:
    def test_indexable_aggregate(self):
        query = query_of(
            "ORDER BY t\nPATTERN (A)\nDEFINE SEGMENT A AS "
            "linear_reg_r2(A.t, A.v) > 0.5")
        assert var_is_indexable(query.var("A"), query)

    def test_plain_condition_not_indexable(self):
        query = query_of("ORDER BY t\nPATTERN (A)\n"
                         "DEFINE SEGMENT A AS last(A.v) > 1")
        assert not var_is_indexable(query.var("A"), query)

    def test_cross_segment_aggregate_not_indexable(self):
        query = query_of(REFS_TEXT)
        assert not var_is_indexable(query.var("X"), query)

    def test_context_aggregate_not_indexable(self):
        query = query_of("ORDER BY t\nPATTERN (A)\n"
                         "DEFINE A AS zscore_outlier(v, 5) > 2")
        assert not var_is_indexable(query.var("A"), query)


class TestOrderForProbes:
    def test_provider_before_consumer(self):
        query = query_of(REFS_TEXT)
        plan = build_logical_plan(query)
        # The top-level And's children: the concat (providing UP, X) and
        # nothing else after window embedding; dig into the concat parts.
        from repro.plan.logical import LConcat
        concat = next(n for n in walk(plan) if isinstance(n, LConcat))
        order, acyclic = Construction.order_for_probes(concat.parts,
                                                       frozenset())
        assert acyclic
        names = []
        for index in order:
            part = concat.parts[index]
            names.extend(n.var.name for n in walk(part)
                         if isinstance(n, LVar))
        assert names.index("UP") < names.index("X")

    def test_cycle_reported(self):
        text = """
        ORDER BY tstamp
        PATTERN (A & B) & WIN
        DEFINE SEGMENT A AS corr(A.val, B.val) > 0.1,
          SEGMENT B AS corr(B.val, A.val) > 0.1,
          SEGMENT WIN AS window(1, 5)
        """
        query = query_of(text)
        plan = build_logical_plan(query)
        from repro.plan.logical import LAnd
        and_node = next(n for n in walk(plan) if isinstance(n, LAnd))
        order, acyclic = Construction.order_for_probes(and_node.parts,
                                                       frozenset())
        assert not acyclic
        assert order == list(range(len(and_node.parts)))

    def test_cyclic_refs_still_executable_via_lifting(self):
        """Mutually referencing siblings lift into a Filter and run."""
        import numpy as np
        from repro.core.engine import TRexEngine
        from tests.conftest import make_series
        text = """
        ORDER BY tstamp
        PATTERN (A & B) & WIN
        DEFINE SEGMENT A AS corr(A.val, B.val) > -2,
          SEGMENT B AS corr(B.val, A.val) > -2,
          SEGMENT WIN AS window(1, 4)
        """
        query = query_of(text)
        series = make_series(np.arange(10.0))
        result = TRexEngine(optimizer="sm_left").execute_query(query,
                                                               [series])
        # corr(X, X) of identical segments is trivially above -2: every
        # windowed segment matches.
        assert result.total_matches > 0


class TestScopingValidation:
    def test_reference_into_not_rejected(self):
        text = """
        ORDER BY tstamp
        PATTERN (X & ~(F W)) & WIN
        DEFINE SEGMENT X AS corr(X.val, F.val) > 0.5,
          SEGMENT F AS last(F.val) < first(F.val),
          SEGMENT W AS true,
          SEGMENT WIN AS window(1, 5)
        """
        query = query_of(text)
        plan = build_logical_plan(query)
        with pytest.raises(PlanError):
            validate_scoping(query, plan)

    def test_clean_query_passes(self):
        query = query_of(REFS_TEXT)
        validate_scoping(query, build_logical_plan(query))


class TestConstructionLeaves:
    def test_invalid_sharing_mode(self):
        query = query_of("ORDER BY t\nPATTERN (A)\nDEFINE A AS v > 1")
        with pytest.raises(PlanError):
            Construction(query, sharing="auto")
