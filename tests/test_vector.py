"""Vector kernel parity tests (docs/VECTORIZATION.md).

The contract under test: for every eligible leaf, the numpy batch path
behind :func:`repro.exec.vector.try_eval` is **byte-identical** to the
scalar loop — segments, payloads, ``ctx.stats``, per-op EXPLAIN ANALYZE
counters, abandonment behavior, and deadline errors.  Ineligible
conditions must fall back to the scalar loop transparently.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import TRexEngine
from repro.errors import PlanError, QueryTimeout
from repro.exec import vector
from repro.exec.base import ExecContext
from repro.exec.metrics import RunMetrics, instrument_plan
from repro.exec.seggen import SegGenFilter, SegGenIndexing, SegGenWindow
from repro.lang.parser import parse_condition
from repro.lang.query import VarDef, compile_query
from repro.lang.windows import WindowConjunction, WindowSpec
from repro.plan.search_space import SearchSpace
from repro.queries.templates import ALL_TEMPLATES

from tests.conftest import make_series


def seg_leaf(cls, cond_text, lo=2, hi=8, name="S"):
    condition = parse_condition(cond_text)
    var = VarDef(name, True, (WindowSpec.point(lo, hi),), condition,
                 frozenset())
    return cls(var, var.window_conjunction)


def point_leaf(cond_text, windows=(), name="P", cls=SegGenFilter):
    condition = parse_condition(cond_text)
    var = VarDef(name, False, tuple(windows), condition, frozenset())
    return cls(var, var.window_conjunction)


def run_toggled(op, series, vectorize, sp=None, refs=None, publish=False):
    ctx = ExecContext(series, vectorize=vectorize)
    if sp is None:
        sp = SearchSpace.full(len(series))
    segments = [(seg.bounds, seg.payload)
                for seg in op.eval(ctx, sp, refs or {})]
    return segments, dict(ctx.stats)


def assert_parity(op, series, sp=None):
    scalar_out, scalar_stats = run_toggled(op, series, False, sp)
    vector_out, vector_stats = run_toggled(op, series, True, sp)
    assert vector_out == scalar_out
    assert vector_stats == scalar_stats
    return scalar_out


@pytest.fixture
def wave():
    rng = np.random.default_rng(7)
    t = np.arange(64, dtype=np.float64)
    vals = np.sin(t * 0.3) * 2.0 + rng.normal(0, 0.5, 64)
    return make_series(vals)


@pytest.fixture
def nan_wave(wave):
    vals = wave.column("val").copy()
    vals[::5] = np.nan
    return make_series(vals)


SEGMENT_CONDITIONS = [
    "max(S.val) - min(S.val) >= 1.0",
    "min(S.val) > -1.5",
    "count(S.val) >= 3.0",
    "max(S.val) > 0.5 and min(S.val) > -2.5",
    "max(S.val) > 1.8 or min(S.val) < -1.8",
    "max(S.val) * 0.5 + 1.0 >= -min(S.val)",
    "max(S.val) / min(S.val) <= 0.0",
    "-min(S.val) != max(S.val)",
]


class TestSegmentLeafParity:
    @pytest.mark.parametrize("cond", SEGMENT_CONDITIONS)
    def test_direct_parity(self, wave, cond):
        assert_parity(seg_leaf(SegGenFilter, cond), wave)

    @pytest.mark.parametrize("cond", SEGMENT_CONDITIONS)
    def test_direct_parity_with_nans(self, nan_wave, cond):
        assert_parity(seg_leaf(SegGenFilter, cond), nan_wave)

    @pytest.mark.parametrize("cond", [
        "avg(S.val) > 0.2",
        "sum(S.val) <= 4.0",
        "stddev(S.val) < 1.2",
        "avg(S.val) > 0.0 and stddev(S.val) < 2.0",
    ])
    def test_indexed_parity(self, wave, nan_wave, cond):
        for series in (wave, nan_wave):
            out = assert_parity(seg_leaf(SegGenIndexing, cond), series)
            del out

    def test_division_by_zero_parity(self):
        # _vdiv must reproduce scalar inf/nan semantics bit-for-bit.
        series = make_series([0.0, 1.0, 0.0, -1.0, 0.0, 2.0])
        assert_parity(
            seg_leaf(SegGenFilter, "max(S.val) / min(S.val) >= 0.0",
                     lo=1, hi=3), series)

    def test_search_space_clamping(self, wave):
        for sp in (SearchSpace.exact(3, 11), SearchSpace(0, 5, 20, 40),
                   SearchSpace(10, 10, 12, 12)):
            assert_parity(seg_leaf(SegGenFilter,
                                   "max(S.val) - min(S.val) >= 1.0"), wave,
                          sp)

    def test_publish_payload_parity(self, wave):
        condition = parse_condition("max(S.val) > 0.5")
        var = VarDef("S", True, (WindowSpec.point(2, 8),), condition,
                     frozenset())
        op = SegGenFilter(var, var.window_conjunction,
                          publish=frozenset({"S"}))
        got = assert_parity(op, wave)
        assert got and all(payload == {"S": bounds}
                           for bounds, payload in got)


#: The conditions the paper's templates actually run, newly on the batch
#: path: ``(leaf class, condition)``; every one must compile there.
PAPER_SEGMENT_CONDITIONS = [
    (SegGenIndexing, "linear_reg_r2_signed(S.tstamp, S.val) <= -0.7"),
    (SegGenIndexing, "linear_reg_r2_signed(S.tstamp, S.val) >= 0.3 "
                     "and last(S.val) - first(S.val) > 0.5"),
    (SegGenIndexing, "linear_regression_r2(S.tstamp, S.val) > 0.5 "
                     "or mann_kendall_test(S.val) >= 1.5"),
    (SegGenIndexing, "mann_kendall_test(val) >= 1.0"),
    (SegGenFilter, "mann_kendall_test(val) >= 1.0"),
    (SegGenFilter, "mann_kendall_test(S.val) < 0 and max(S.val) > 1.0"),
]


def pull_parity(op, series, pulls):
    """Matches and counters after ``pulls`` segments, then abandonment:
    identical whichever evaluator ran."""
    def pull(vectorize):
        ctx = ExecContext(series, vectorize=vectorize)
        it = op.eval(ctx, SearchSpace.full(len(series)), {})
        got = [seg.bounds for seg, _ in zip(it, range(pulls))]
        it.close()
        return got, dict(ctx.stats)

    vector_out, scalar_out = pull(True), pull(False)
    assert vector_out == scalar_out
    return scalar_out[0]


class TestPaperTemplateConditions:
    @pytest.mark.parametrize("cls,cond", PAPER_SEGMENT_CONDITIONS)
    def test_segment_parity(self, wave, nan_wave, cls, cond):
        op = seg_leaf(cls, cond, lo=2, hi=12)
        assert vector.compiles_statically(
            op.var, op.vector_provider, ExecContext(wave).registry)
        assert assert_parity(op, wave)
        assert_parity(op, nan_wave)
        assert_parity(op, wave, SearchSpace(10, 10, 12, 40))   # a probe
        assert_parity(op, wave, SearchSpace(0, 30, 20, 20))

    @pytest.mark.parametrize("cls,cond", PAPER_SEGMENT_CONDITIONS)
    @pytest.mark.parametrize("pulls", [1, 4])
    def test_segment_abandonment(self, wave, cls, cond, pulls):
        got = pull_parity(seg_leaf(cls, cond, lo=2, hi=12), wave, pulls)
        assert len(got) == pulls

    @pytest.mark.parametrize("cls", [SegGenFilter, SegGenIndexing])
    @pytest.mark.parametrize("context", [3, 15])
    def test_zscore_point_parity(self, wave, nan_wave, cls, context):
        # Both leaves evaluate zscore_outlier directly (it has no index).
        op = point_leaf(f"zscore_outlier(val, {context}) > 1.2", cls=cls)
        assert vector.compiles_statically(
            op.var, op.vector_provider, ExecContext(wave).registry)
        assert assert_parity(op, wave)
        assert_parity(op, nan_wave)
        assert_parity(op, wave, SearchSpace(0, 9, 2, 40))  # first points
        assert len(pull_parity(op, wave, 2)) == 2

    def test_zscore_bad_context_raises_from_the_scalar_site(self, wave):
        from repro.errors import AggregateError
        op = point_leaf("zscore_outlier(val, 1) > 1.2")
        for vectorize in (False, True):
            ctx = ExecContext(wave, vectorize=vectorize)
            with pytest.raises(AggregateError, match="context size"):
                list(op.eval(ctx, SearchSpace.full(len(wave)), {}))
            assert ctx.stats["condition_evals"] == 1

    @pytest.mark.parametrize("pulls", [1, 3])
    def test_string_equality_abandonment(self, pulls):
        labels = np.array(["GOOG", "MSFT", None, "GOOG"] * 4, dtype=object)
        series = make_series(np.arange(16.0), extra={"ticker": labels})
        op = point_leaf("P.ticker = 'GOOG'")
        assert len(pull_parity(op, series, pulls)) == pulls


class TestStrategySelection:
    """One enumerator, two evaluators: the choice is a function of the
    admissible candidate count alone (docs/VECTORIZATION.md)."""

    def calls(self, op, series, sp):
        metrics = RunMetrics()
        ctx = ExecContext(series, metrics=metrics)
        list(op.eval(ctx, sp, {}))
        record = metrics.ops[op.op_id]
        return record.batch_calls, record.scalar_calls, record.fallback

    def test_crossover_is_on_candidates_not_box_area(self, wave):
        op = seg_leaf(SegGenFilter, "max(S.val) > 0.5", lo=2, hi=20)
        n = len(wave)
        # A full-height box with one admissible candidate: scalar.
        assert self.calls(op, wave, SearchSpace(n - 3, n - 3, 0, n - 1)) \
            == (0, 1, "")
        # A probe with the whole window admissible: batch.
        assert self.calls(op, wave, SearchSpace(5, 5, 0, n - 1)) \
            == (1, 0, None)
        below = vector.BATCH_CROSSOVER - 1
        assert self.calls(op, wave, SearchSpace(5, 5, 7, 7 + below - 1)) \
            == (0, 1, "")
        assert self.calls(op, wave, SearchSpace(5, 5, 7, 7 + below)) \
            == (1, 0, None)
        # An empty space is a (trivially scalar) call: the two counters
        # always add up to eval_calls.
        assert self.calls(op, wave, SearchSpace(70, 80, 70, 80))[:2] \
            == (0, 1)

    def test_uncompilable_condition_reports_why(self, wave):
        op = seg_leaf(SegGenFilter, "avg(S.val) > 0.0")
        assert self.calls(op, wave, SearchSpace.full(len(wave))) \
            == (0, 1, "no exact batch direct evaluation")

    def test_both_evaluators_agree_across_the_crossover(self, wave):
        op = seg_leaf(SegGenIndexing,
                      "linear_reg_r2_signed(S.tstamp, S.val) >= 0.3",
                      lo=1, hi=12)
        for width in range(0, 2 * vector.BATCH_CROSSOVER + 2):
            assert_parity(op, wave, SearchSpace(20, 20, 21, 21 + width))


class TestPointLeafParity:
    def test_bare_column_condition(self):
        series = make_series([1.0, 5.0, 2.0, 7.0, np.nan, 9.0])
        assert_parity(point_leaf("val > 3"), series)

    def test_time_window_diagonal(self):
        series = make_series(np.linspace(-2, 2, 30))
        op = point_leaf("val >= 0", windows=(WindowSpec.point(1, 4),))
        assert_parity(op, series)


class TestDegenerateSeries:
    @pytest.mark.parametrize("values", [[0.5], [0.5, -0.5], [np.nan],
                                        [np.nan, np.nan, np.nan]])
    def test_tiny_series(self, values):
        series = make_series(values)
        for cls in (SegGenFilter, SegGenIndexing):
            cond = ("max(S.val) > 0.0" if cls is SegGenFilter
                    else "avg(S.val) > 0.0")
            assert_parity(seg_leaf(cls, cond, lo=1, hi=3), series)


class TestFallback:
    def test_unsupported_condition_falls_back(self, wave):
        # Direct linear_reg_r2_signed folds np.sum over slices, which no
        # batch kernel reproduces: try_eval must decline and the scalar
        # loop must produce the usual answer either way.
        op = seg_leaf(SegGenFilter,
                      "linear_reg_r2_signed(S.tstamp, S.val) >= 0.2")
        ctx = ExecContext(wave, vectorize=True)
        assert vector.try_eval(op, ctx, SearchSpace.full(len(wave)), {},
                               None, "direct") is None
        assert_parity(op, wave)

    def test_non_float_column_falls_back(self, wave):
        # Series stores non-numeric columns as object arrays; bind()
        # must decline so the scalar path raises (or not) as usual.
        series = make_series(
            wave.column("val"),
            extra={"label": np.array(["x"] * len(wave), dtype=object)})
        op = seg_leaf(SegGenFilter, "max(S.label) > 3.0")
        ctx = ExecContext(series, vectorize=True)
        assert vector.try_eval(op, ctx, SearchSpace.full(len(series)), {},
                               None, "direct") is None

    def test_genuinely_unsupported_examples(self):
        registry = ExecContext(make_series([1.0])).registry

        def why(cond, kind, segment=True):
            var = VarDef("S", segment, (), parse_condition(cond),
                         frozenset())
            program, reason = vector.compile_condition(var, kind, registry)
            assert (program is None) == bool(reason)
            assert vector.compiles_statically(var, kind, registry) \
                == (program is not None)
            return reason

        # avg/sum are exact through prefix sums but not through a direct
        # batched fold (np.sum accumulates pairwise).
        assert why("avg(S.val) > 0.0", "indexed") == ""
        assert why("avg(S.val) > 0.0", "direct") \
            == why("sum(S.val) > 0.0", "direct") \
            == "no exact batch direct evaluation"
        assert why("equal_up_down_ticks(S.val)", "indexed") \
            == "no exact batch lookup"
        assert why("corr(S.val, UP.val) > 0.5", "direct") \
            == "cross-segment aggregate"
        assert why("S.val > :level", "direct") == "Param"
        assert why("zscore_outlier(S.val, 5) > 2", "direct") \
            == "series-context aggregate on a segment variable"
        assert why("S.val = 'x' or S.val < 'y'", "direct") \
            == "non-numeric literal"
        assert why("'x' = 'x'", "direct") == "non-numeric literal"


def template_ledger():
    """Markdown rows: template x condition variable -> compile verdict
    per provider kind (``batch``, or the static fallback reason)."""
    rows = []
    for template in ALL_TEMPLATES:
        query = template.compile(template.param_sets()[0])
        for name in sorted(query.variables):
            var = query.variables[name]
            if var.condition is None:
                continue
            verdicts = [vector.compile_condition(var, kind,
                                                 query.registry)[1]
                        or "batch" for kind in ("direct", "indexed")]
            rows.append(f"| `{template.name}` | `{name}` | "
                        f"{'segment' if var.is_segment else 'point'} | "
                        f"`{var.condition!r}` | {verdicts[0]} | "
                        f"{verdicts[1]} |")
    return rows


def test_template_coverage_ledger():
    """A paper-template condition that silently falls back to the scalar
    loop fails here: the committed table in docs/VECTORIZATION.md is the
    ledger, and every row is recomputed from the compiler."""
    doc = (Path(__file__).parent.parent / "docs"
           / "VECTORIZATION.md").read_text()
    block = doc.split("<!-- ledger:begin -->")[1].split(
        "<!-- ledger:end -->")[0]
    committed = [line for line in block.strip().splitlines()[2:]]
    rows = template_ledger()
    assert committed == rows, "docs/VECTORIZATION.md ledger is stale; " \
        "expected rows:\n" + "\n".join(rows)
    # The only template conditions left on the scalar loop: nothing on
    # the indexed path but AFA_Q1's tick balance, and on the direct path
    # the two aggregates whose np.sum folds have no exact batch form.
    cells = [[cell.strip() for cell in row.split("|")[1:-1]]
             for row in rows]
    assert [(c[0], c[1]) for c in cells if c[5] != "batch"] \
        == [("`AFA_Q1`", "`EQ_FALL_AND_RISE`")]
    assert all("linear_reg_r2_signed(" in c[3] or "equal_up_down" in c[3]
               for c in cells if c[4] != "batch")


class TestSuspensionExactCounters:
    """Counters must be exact at *every* generator suspension point —
    consumers like ProbeNot pull one segment and abandon the iterator."""

    @pytest.mark.parametrize("pulls", [0, 1, 3, 17])
    def test_abandonment_parity(self, wave, pulls):
        op = seg_leaf(SegGenFilter, "max(S.val) - min(S.val) >= 1.0")

        def pull(vectorize):
            ctx = ExecContext(wave, vectorize=vectorize)
            it = op.eval(ctx, SearchSpace.full(len(wave)), {})
            got = [next(it).bounds for _ in range(pulls)]
            it.close()
            return got, dict(ctx.stats)

        assert pull(True) == pull(False)

    @pytest.mark.parametrize("pulls", [1, 5])
    def test_indexed_abandonment_parity(self, wave, pulls):
        op = seg_leaf(SegGenIndexing, "avg(S.val) > 0.2")

        def pull(vectorize):
            ctx = ExecContext(wave, vectorize=vectorize)
            it = op.eval(ctx, SearchSpace.full(len(wave)), {})
            got = [next(it).bounds for _ in range(pulls)]
            it.close()
            return got, dict(ctx.stats)

        assert pull(True) == pull(False)


class TestPerOpMetrics:
    """Regression for the metrics asymmetry: all three leaf classes must
    attribute per-op counters through ``metrics.for_op`` identically on
    both paths (docs/OBSERVABILITY.md)."""

    def leaf_record(self, op, series, vectorize):
        clone = instrument_plan(op)
        metrics = RunMetrics()
        ctx = ExecContext(series, metrics=metrics, vectorize=vectorize)
        out = [s.bounds for s in clone.eval(
            ctx, SearchSpace.full(len(series)), {})]
        record = metrics.ops[op.op_id]
        return out, dict(record.counters)

    def test_window_leaf_counters(self, wave):
        op = SegGenWindow(WindowConjunction([WindowSpec.point(1, 2)]), "W")
        out, counters = self.leaf_record(op, wave, False)
        assert counters["segments_emitted"] == len(out) > 0

    @pytest.mark.parametrize("cls,cond", [
        (SegGenFilter, "max(S.val) - min(S.val) >= 1.0"),
        (SegGenIndexing, "avg(S.val) > 0.2"),
    ], ids=["filter", "indexing"])
    def test_cond_leaf_counters_identical(self, wave, cls, cond):
        op = seg_leaf(cls, cond)
        s_out, s_counters = self.leaf_record(op, wave, False)
        v_out, v_counters = self.leaf_record(op, wave, True)
        assert v_out == s_out
        # batch_calls/scalar_calls live beside, not in, the counters.
        assert v_counters == s_counters
        assert s_counters["condition_evals"] > 0
        assert s_counters["segments_emitted"] == len(s_out) > 0


class TestBudgetContract:
    def test_expired_deadline_raises_on_both_paths(self, wave):
        op = seg_leaf(SegGenFilter, "max(S.val) - min(S.val) >= 1.0")
        for vectorize in (False, True):
            ctx = ExecContext(wave, deadline=-1.0, vectorize=vectorize)
            ctx._ticks = ctx.TICK_STRIDE - 1  # next tick checks the clock
            with pytest.raises(QueryTimeout):
                list(op.eval(ctx, SearchSpace.full(len(wave)), {}))

    def test_tick_batch_charges_candidate_count(self, wave):
        op = seg_leaf(SegGenFilter, "max(S.val) - min(S.val) >= 1.0")
        scalar = ExecContext(wave, deadline=1e18, vectorize=False)
        batched = ExecContext(wave, deadline=1e18, vectorize=True)
        sp = SearchSpace.full(len(wave))
        list(op.eval(scalar, sp, {}))
        list(op.eval(batched, sp, {}))
        # Same amortized budget accounting: every candidate is ticked.
        assert batched._ticks == scalar._ticks


class TestToggles:
    def test_engine_rejects_non_bool(self):
        with pytest.raises(PlanError, match="vectorize"):
            TRexEngine(vectorize="yes")

    def test_engine_toggle_end_to_end(self):
        query = compile_query("""
ORDER BY tstamp
PATTERN (DN UP)
DEFINE SEGMENT DN AS avg(DN.val) < 0.0 AND window(2, 12),
  SEGMENT UP AS avg(UP.val) > 0.0 AND window(2, 12)
""")
        rng = np.random.default_rng(3)
        series = [make_series(np.sin(np.arange(48) * 0.4)
                              + rng.normal(0, 0.2, 48),
                              key=(f"s{i}",)) for i in range(2)]
        results = {}
        for toggle in (False, True):
            engine = TRexEngine(analyze=True, vectorize=toggle)
            result = engine.execute_query(query, series)
            results[toggle] = [
                (sm.key, tuple(sm.matches),
                 sorted(sm.stats.items())) for sm in result.per_series]
        assert results[True] == results[False]
        assert any(matches for _, matches, _ in results[True])
