"""Static analyzer tests: the bad-query corpus, the lint-clean sweep over
bundled queries, and the plan-verify contract checks."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.aggregates.basic import MaxAggregate
from repro.aggregates.registry import AggregateRegistry
from repro.analysis import (CATALOG, Diagnostic, Severity, analyze,
                            check_cost_coverage, discover_exec_operators,
                            has_errors, lint_text, operator_cost_key,
                            reference_flow, sort_diagnostics,
                            verify_execution_contracts, verify_plan)
from repro.analysis.diagnostics import Span
from repro.errors import QueryLintError
from repro.exec.base import PhysicalOperator
from repro.exec.concat import RightProbeConcat, SortMergeConcat
from repro.exec.not_op import MaterializeNot
from repro.exec.seggen import SegGenFilter, SegGenWindow
from repro.lang.parser import parse_condition
from repro.lang.query import VarDef, compile_query
from repro.lang.windows import WindowConjunction, WindowSpec
from repro.optimizer.cost_params import CostParams
from repro.queries import ALL_TEMPLATES
from repro.timeseries.segment import Segment

from tests.conftest import make_series

REPO_ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# The bad-query corpus: each entry asserts the exact code, severity and span
# ---------------------------------------------------------------------------

#: label -> (query text, [(code, severity, line, column), ...])
BAD_QUERIES = {
    "syntax-error": (
        "ORDER BY tstamp\n"
        "PATTERN ((A\n"
        "DEFINE SEGMENT A AS true",
        [("TRX000", Severity.ERROR, 3, 1)],
    ),
    "defined-not-in-pattern": (
        "ORDER BY tstamp\n"
        "PATTERN (A)\n"
        "DEFINE\n"
        "  SEGMENT A AS A.val > 0,\n"
        "  SEGMENT GHOST AS window(1, 2)",
        [("TRX001", Severity.ERROR, 5, 11)],
    ),
    "duplicate-definition": (
        "ORDER BY tstamp\n"
        "PATTERN (A)\n"
        "DEFINE\n"
        "  SEGMENT A AS A.val > 0,\n"
        "  SEGMENT A AS A.val < 5",
        [("TRX002", Severity.ERROR, 5, 11)],
    ),
    "undefined-reference": (
        "ORDER BY tstamp\n"
        "PATTERN (A B)\n"
        "DEFINE\n"
        "  SEGMENT A AS avg(A.val) > BB.val",
        [("TRX003", Severity.ERROR, 4, 29)],
    ),
    "window-on-point-var": (
        "ORDER BY tstamp\n"
        "PATTERN (A)\n"
        "DEFINE\n"
        "  A AS window(2, 5)",
        [("TRX004", Severity.ERROR, 4, 3)],
    ),
    "nested-window": (
        "ORDER BY tstamp\n"
        "PATTERN (A)\n"
        "DEFINE\n"
        "  SEGMENT A AS (window(2, 5) OR A.val > 3)",
        [("TRX005", Severity.ERROR, 4, 11)],
    ),
    "malformed-window": (
        "ORDER BY tstamp\n"
        "PATTERN (A)\n"
        "DEFINE\n"
        "  SEGMENT A AS window(5, 3)",
        [("TRX006", Severity.ERROR, 4, 11)],
    ),
    "unknown-aggregate": (
        "ORDER BY tstamp\n"
        "PATTERN (A)\n"
        "DEFINE\n"
        "  SEGMENT A AS avgg(A.val) > 0",
        [("TRX007", Severity.ERROR, 4, 16)],
    ),
    "aggregate-arity": (
        "ORDER BY tstamp\n"
        "PATTERN (A)\n"
        "DEFINE\n"
        "  SEGMENT A AS corr(A.val) > 0",
        [("TRX008", Severity.ERROR, 4, 16)],
    ),
    "unbound-parameter": (
        "ORDER BY tstamp\n"
        "PATTERN (A)\n"
        "DEFINE\n"
        "  SEGMENT A AS avg(A.val) > :thresh",
        [("TRX009", Severity.ERROR, 4, 29)],
    ),
    "contradictory-windows": (
        "ORDER BY tstamp\n"
        "PATTERN (A)\n"
        "DEFINE\n"
        "  SEGMENT A AS window(10, 20) AND window(2, 5)",
        [("TRX010", Severity.ERROR, 4, 11)],
    ),
    "contradictory-time-windows": (
        "ORDER BY tstamp\n"
        "PATTERN (A)\n"
        "DEFINE\n"
        "  SEGMENT A AS window(tstamp, 10, 20, DAY)\n"
        "    AND window(tstamp, 1, 2, DAY)",
        [("TRX010", Severity.ERROR, 4, 11)],
    ),
    "unsatisfiable-pattern": (
        "ORDER BY tstamp\n"
        "PATTERN (A B) & CAP\n"
        "DEFINE\n"
        "  SEGMENT A AS window(10, 20),\n"
        "  SEGMENT B AS window(10, 20),\n"
        "  SEGMENT CAP AS window(0, 5)",
        [("TRX011", Severity.ERROR, 4, 11)],
    ),
    "reference-into-kleene": (
        "ORDER BY tstamp\n"
        "PATTERN ((A & CAP)+ B) & CAP\n"
        "DEFINE\n"
        "  SEGMENT A AS avg(A.val) > 0,\n"
        "  SEGMENT CAP AS window(0, 9),\n"
        "  SEGMENT B AS avg(B.val) > avg(A.val)",
        [("TRX012", Severity.ERROR, 6, 11)],
    ),
    "reference-into-not": (
        "ORDER BY tstamp\n"
        "PATTERN (~A B)\n"
        "DEFINE\n"
        "  SEGMENT A AS A.val > 0,\n"
        "  SEGMENT B AS avg(B.val) > avg(A.val)",
        [("TRX012", Severity.ERROR, 5, 11)],
    ),
    "not-matches-everything": (
        "ORDER BY tstamp\n"
        "PATTERN (~A B)\n"
        "DEFINE\n"
        "  SEGMENT A AS true,\n"
        "  SEGMENT B AS B.val > 0",
        [("TRX013", Severity.ERROR, 4, 11)],
    ),
    "bind-failure": (
        "PATTERN (A)\n"
        "DEFINE SEGMENT A AS A.val > 0",
        [("TRX014", Severity.ERROR, None, None)],
    ),
    "unbounded-kleene": (
        "ORDER BY tstamp\n"
        "PATTERN ((A)+)\n"
        "DEFINE\n"
        "  SEGMENT A AS avg(A.val) > 0",
        [("TRX101", Severity.WARNING, 4, 11)],
    ),
    "wild-window": (
        "ORDER BY tstamp\n"
        "PATTERN (A)\n"
        "DEFINE\n"
        "  SEGMENT A AS window(0, inf)",
        [("TRX102", Severity.WARNING, 4, 11)],
    ),
    "unused-subset": (
        "ORDER BY tstamp\n"
        "PATTERN (A B)\n"
        "SUBSET U = (A, B)\n"
        "DEFINE\n"
        "  SEGMENT A AS A.val > 0",
        [("TRX103", Severity.WARNING, None, None)],
    ),
    "reference-cycle": (
        "ORDER BY tstamp\n"
        "PATTERN (A B)\n"
        "DEFINE\n"
        "  SEGMENT A AS avg(A.val) > avg(B.val),\n"
        "  SEGMENT B AS avg(B.val) > avg(A.val)",
        [("TRX104", Severity.WARNING, 4, 11)],
    ),
    "aggregate-over-point-var": (
        "ORDER BY tstamp\n"
        "PATTERN (A B)\n"
        "DEFINE\n"
        "  A AS A.val > 0,\n"
        "  SEGMENT B AS avg(A.val) > 2",
        [("TRX105", Severity.WARNING, 5, 11)],
    ),
}


@pytest.mark.parametrize("label", sorted(BAD_QUERIES))
def test_bad_query_corpus(label):
    text, expected = BAD_QUERIES[label]
    diags = lint_text(text)
    got = [(d.code, d.severity,
            d.span.line if d.span else None,
            d.span.column if d.span else None) for d in diags]
    for item in expected:
        assert item in got, f"expected {item} in {got}"
    for diag in diags:
        assert diag.code in CATALOG
        assert diag.message


def test_corpus_covers_fifteen_distinct_bad_queries():
    errors = [label for label, (_, expected) in BAD_QUERIES.items()
              if any(sev is Severity.ERROR for _, sev, _, _ in expected)]
    assert len(BAD_QUERIES) >= 15
    assert len(errors) >= 10


def test_diagnostic_formatting_and_sorting():
    diag = Diagnostic("TRX003", Severity.ERROR, "boom",
                      span=Span(3, 12, 2), hint="fix it")
    text = diag.format("q.trex")
    assert text.startswith("q.trex:3:12: error[TRX003]: boom")
    assert "hint: fix it" in text
    payload = diag.to_dict()
    assert payload["line"] == 3 and payload["severity"] == "error"
    unsorted = [Diagnostic("TRX103", Severity.WARNING, "late"),
                Diagnostic("TRX001", Severity.ERROR, "early",
                           span=Span(1, 1))]
    assert [d.code for d in sort_diagnostics(unsorted)] == \
        ["TRX001", "TRX103"]
    assert has_errors(unsorted)


# ---------------------------------------------------------------------------
# Lint-clean sweep: bundled templates and example queries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("template", ALL_TEMPLATES, ids=lambda t: t.name)
def test_templates_lint_clean(template, assert_lint_clean):
    for params in template.param_sets():
        assert_lint_clean(template.text, dict(params))


def _example_query(path):
    match = re.search(r'^QUERY = """(.*?)"""', path.read_text(),
                      re.DOTALL | re.MULTILINE)
    return match.group(1) if match else None


EXAMPLE_PARAMS = {
    "quickstart.py": {"fit": 0.85, "max_days": 30},
    "correlated_patterns.py": {"min_corr": 0.95},
    "custom_aggregate.py": {},
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_PARAMS))
def test_example_scripts_lint_clean(name, assert_lint_clean):
    text = _example_query(REPO_ROOT / "examples" / name)
    assert text, f"no QUERY constant found in {name}"
    registry = None
    if name == "custom_aggregate.py":
        registry = AggregateRegistry()
        registry.register(MaxAggregate(), aliases=("range_ratio",))
    assert_lint_clean(text, EXAMPLE_PARAMS[name], registry=registry)


def test_example_query_files_lint_clean(assert_lint_clean):
    paths = sorted((REPO_ROOT / "examples" / "queries").glob("*.trex"))
    assert paths, "examples/queries/ has no .trex files"
    for path in paths:
        assert_lint_clean(path.read_text())


# ---------------------------------------------------------------------------
# Plan verify: reference flow, publish/require, runtime contracts, costs
# ---------------------------------------------------------------------------

WILD = WindowConjunction.wild()


def _consumer(name="X", refs=("UP",)):
    condition = parse_condition(f"corr({name}.val, UP.val) > 0.5")
    return VarDef(name, True, (), condition, frozenset(refs))


def test_reference_flow_flags_missing_provider():
    left = SegGenWindow(WILD, "UP")  # does NOT publish UP
    right = SegGenFilter(_consumer(), WILD)
    plan = SortMergeConcat(left, right, 0, WILD,
                           requires=frozenset({"UP"}))
    diags = reference_flow(plan)
    assert diags and all(d.code == "TRX201" for d in diags)
    assert any("UP" in d.message for d in diags)
    assert all(d.severity is Severity.ERROR for d in diags)


def test_verify_plan_flags_unbound_publish():
    # Publishes X, but the subtree only ever binds UP.
    plan = SegGenWindow(WILD, "UP", publish=frozenset({"X"}))
    codes = {d.code for d in verify_plan(plan)}
    assert "TRX202" in codes


def test_verify_plan_flags_underdeclared_requires():
    # The Not child consumes UP from above, but the operator does not
    # propagate that into its own requires set.
    child = SegGenFilter(_consumer(), WILD)
    plan = MaterializeNot(child, WILD, requires=frozenset())
    codes = {d.code for d in verify_plan(plan)}
    assert "TRX203" in codes and "TRX201" in codes


def test_verify_plan_accepts_planner_output(small_table):
    query = compile_query("""
        ORDER BY tstamp
        PATTERN (UP GAP X) & WINDOW
        DEFINE SEGMENT UP AS linear_reg_r2_signed(UP.tstamp, UP.price) >= 0.6,
          SEGMENT GAP AS true,
          SEGMENT X AS corr(X.price, UP.price) >= 0.9 AND window(2, 4),
          SEGMENT WINDOW AS window(4, 12)
    """)
    from repro.optimizer.planner import CostBasedPlanner
    series = small_table.partition(query.partition_by, query.order_by)
    plan = CostBasedPlanner().plan(query, None, series)
    assert verify_plan(plan) == []
    assert verify_execution_contracts(plan, series[0]) == []


class _RogueSpaceOp(PhysicalOperator):
    """Deliberately emits a segment beyond the clamped search space."""

    name = "RogueSpace"

    def eval(self, ctx, sp, refs):
        yield Segment(0, len(ctx.series) + 4)


class _RogueWindowOp(PhysicalOperator):
    """Deliberately emits a segment violating its embedded window."""

    name = "RogueWindow"

    def eval(self, ctx, sp, refs):
        yield Segment(0, 1)  # duration 2, window demands >= 5


def test_execution_contract_flags_space_escape():
    plan = _RogueSpaceOp(WILD)
    series = make_series(np.arange(10.0))
    diags = verify_execution_contracts(plan, series)
    assert [d.code for d in diags] == ["TRX204"]
    assert "RogueSpace" in diags[0].message


class _RogueSpacesOp(PhysicalOperator):
    """Answers one space at a time correctly, but starts every
    ``eval_spaces`` answer one point past its probe space."""

    name = "RogueSpaces"

    def eval(self, ctx, sp, refs):
        sp = sp.clamp(len(ctx.series))
        if not sp.is_empty():
            yield Segment(sp.s_hi, max(sp.s_hi, sp.e_lo))

    def eval_spaces(self, ctx, spaces, refs):
        return [[Segment(sp.s_hi + 1, sp.e_hi)] if sp.s_hi < sp.e_hi
                else [] for sp in spaces]


def test_execution_contract_checks_eval_spaces_answers():
    """A probed child answers through ``eval_spaces``; the contract
    checks must see those answers too."""
    rogue = _RogueSpacesOp(WILD)
    plan = RightProbeConcat(
        SegGenWindow(WindowConjunction([WindowSpec.point(1, 3)])), rogue,
        0, WILD)
    series = make_series(np.arange(10.0))
    diags = verify_execution_contracts(plan, series)
    assert [(d.code, d.owner) for d in diags] == [("TRX204", "RogueSpaces")]


def test_every_operator_entry_is_wrapped():
    """Faults, EXPLAIN ANALYZE and the contract checks observe operators
    at one place: the class-level entry wrapper of ``eval`` and of every
    ``eval_spaces`` override."""
    for cls in discover_exec_operators():
        assert getattr(cls.eval, "operator_entry", False), cls.__name__
        if cls.eval_spaces is not PhysicalOperator.eval_spaces:
            assert getattr(cls.eval_spaces, "operator_entry", False), \
                cls.__name__


def test_execution_contract_flags_window_violation():
    window = WindowConjunction([WindowSpec("point", 5, 10, None, None)])
    plan = _RogueWindowOp(window)
    series = make_series(np.arange(10.0))
    diags = verify_execution_contracts(plan, series)
    assert [d.code for d in diags] == ["TRX205"]
    assert "RogueWindow" in diags[0].message


def test_cost_coverage_clean_for_shipped_operators():
    assert check_cost_coverage() == []
    operators = discover_exec_operators()
    names = {cls.__name__ for cls in operators}
    assert {"SegGenWindow", "SegGenFilter", "SegGenIndexing", "FilterOp",
            "SortMergeConcat", "MaterializeKleene",
            "SubPatternCache"} <= names


def test_cost_coverage_flags_missing_entry():
    class Uncosted(PhysicalOperator):
        name = "BrandNewOp"

        def eval(self, ctx, sp, refs):
            return iter(())

    diags = check_cost_coverage(operators=[Uncosted])
    assert [d.code for d in diags] == ["TRX206"]
    assert "BrandNewOp" in diags[0].message

    class Aliased(Uncosted):
        cost_key = "Filter"

    assert operator_cost_key(Aliased) == "Filter"
    assert check_cost_coverage(operators=[Aliased]) == []
    assert check_cost_coverage(params=CostParams(operator_weights={}),
                               operators=[Aliased])


# ---------------------------------------------------------------------------
# Engine + CLI integration
# ---------------------------------------------------------------------------

BAD_ENGINE_QUERY = """
ORDER BY tstamp
PATTERN (A)
DEFINE SEGMENT A AS window(10, 20) AND window(2, 5)
"""

WARN_ENGINE_QUERY = """
ORDER BY tstamp
PATTERN ((A)+)
DEFINE SEGMENT A AS avg(A.val) > 1000
"""


def test_engine_lint_rejects_errors(walk_series):
    from repro.core.engine import TRexEngine
    engine = TRexEngine(lint=True)
    query = compile_query(BAD_ENGINE_QUERY)
    with pytest.raises(QueryLintError) as err:
        engine.execute_query(query, [walk_series])
    assert any(d.code == "TRX010" for d in err.value.diagnostics)


def test_engine_lint_logs_warnings(walk_series, caplog):
    from repro.core.engine import TRexEngine
    engine = TRexEngine(lint=True)
    query = compile_query(WARN_ENGINE_QUERY)
    with caplog.at_level("WARNING", logger="repro.core.engine"):
        engine.execute_query(query, [walk_series])
    assert any("TRX101" in record.message for record in caplog.records)


def test_engine_lint_off_by_default(walk_series):
    from repro.core.engine import TRexEngine
    query = compile_query(BAD_ENGINE_QUERY)
    result = TRexEngine().execute_query(query, [walk_series])
    assert result.total_matches == 0


def test_cli_lint_bad_file(tmp_path, capsys):
    from repro.cli import main
    bad = tmp_path / "bad.trex"
    bad.write_text(BAD_ENGINE_QUERY)
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "error[TRX010]" in out and "bad.trex:4:" in out


def test_cli_lint_good_files_and_templates(capsys):
    from repro.cli import main
    paths = sorted((REPO_ROOT / "examples" / "queries").glob("*.trex"))
    assert main(["lint", *map(str, paths)]) == 0
    assert main(["lint", "--all-templates"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_lint_json_and_strict(tmp_path, capsys):
    from repro.cli import main
    warn = tmp_path / "warn.trex"
    warn.write_text(WARN_ENGINE_QUERY)
    assert main(["lint", str(warn)]) == 0
    assert main(["lint", "--strict", str(warn)]) == 1
    capsys.readouterr()
    assert main(["lint", "--format", "json", str(warn)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload and payload[0]["code"] == "TRX101"
    assert payload[0]["severity"] == "warning"


def test_analyze_api_on_bound_query():
    query = compile_query(WARN_ENGINE_QUERY)
    diags = analyze(query)
    assert [d.code for d in diags] == ["TRX101"]
    assert not has_errors(diags)
