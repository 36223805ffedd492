"""Plan validator tests: every planner output must validate cleanly."""

import numpy as np
import pytest

from repro.analysis.plan_verify import reference_flow
from repro.baselines.naive_tree import NaiveTreeExecutor
from repro.lang.query import compile_query
from repro.optimizer.planner import CostBasedPlanner
from repro.optimizer.rulebased import (BASELINE_STRATEGIES_WITH_NOT,
                                       RuleBasedPlanner)
from repro.queries import TEMPLATES

from tests.conftest import make_series

QUERIES = {
    "plain": """
        ORDER BY tstamp
        PATTERN ((DN & W) (UP & W)) & WINDOW
        DEFINE SEGMENT W AS window(2, null),
          SEGMENT DN AS linear_reg_r2_signed(DN.tstamp, DN.val) <= -0.8,
          SEGMENT UP AS linear_reg_r2_signed(UP.tstamp, UP.val) >= 0.8,
          SEGMENT WINDOW AS window(1, 12)
    """,
    "refs": """
        ORDER BY tstamp
        PATTERN (UP GAP X) & WINDOW
        DEFINE SEGMENT UP AS linear_reg_r2_signed(UP.tstamp, UP.val) >= 0.7,
          SEGMENT GAP AS true,
          SEGMENT X AS corr(X.val, UP.val) >= 0.9 AND window(2, 4),
          SEGMENT WINDOW AS window(4, 12)
    """,
    "not": """
        ORDER BY tstamp
        PATTERN RISE & WINDOW & ~(FALL W)
        DEFINE SEGMENT W AS true,
          SEGMENT RISE AS last(RISE.val) / first(RISE.val) > 1.02,
          SEGMENT WINDOW AS window(1, 8),
          SEGMENT FALL AS last(FALL.val) / first(FALL.val) < 0.99
    """,
}


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("strategy", BASELINE_STRATEGIES_WITH_NOT,
                         ids=lambda s: s.label)
def test_rule_plans_validate(name, strategy):
    query = compile_query(QUERIES[name])
    plan = RuleBasedPlanner(strategy).plan(query)
    assert reference_flow(plan) == []


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_cost_plans_validate(name):
    rng = np.random.default_rng(0)
    series = [make_series(np.cumsum(rng.normal(0, 1, 40)) + 50)]
    query = compile_query(QUERIES[name])
    plan = CostBasedPlanner().plan(query, None, series)
    assert reference_flow(plan) == []


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
def test_template_cost_plans_validate(template):
    from repro.datasets import load
    table = load(template.dataset, num_series=2,
                 length=80 if template.dataset != "covid19" else 64)
    query = template.compile(template.param_sets()[0])
    series = table.partition(query.partition_by, query.order_by)
    plan = CostBasedPlanner().plan(query, None, series)
    assert reference_flow(plan) == []


def test_naive_tree_plans_validate():
    query = compile_query(QUERIES["refs"])
    for flavour in ("zstream", "opencep"):
        executor = NaiveTreeExecutor(query, flavour)
        assert reference_flow(executor.plan) == []


def test_violation_detected():
    """A hand-built broken plan (consumer without provider) is flagged."""
    from repro.exec.concat import SortMergeConcat
    from repro.exec.seggen import SegGenFilter, SegGenWindow
    from repro.lang.parser import parse_condition
    from repro.lang.query import VarDef
    from repro.lang.windows import WindowConjunction

    wild = WindowConjunction.wild()
    consumer = VarDef("X", True, (),
                      parse_condition("corr(X.val, UP.val) > 0.5"),
                      frozenset({"UP"}))
    left = SegGenWindow(wild, "UP")  # does NOT publish UP
    right = SegGenFilter(consumer, wild)
    plan = SortMergeConcat(left, right, 0, wild,
                           requires=frozenset({"UP"}))
    violations = reference_flow(plan)
    assert violations
    assert any("UP" in diag.message for diag in violations)
