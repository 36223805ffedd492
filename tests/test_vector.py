"""Vector kernel parity tests (docs/VECTORIZATION.md).

The contract under test: for every eligible leaf, the numpy batch path
behind :func:`repro.exec.vector.try_eval` is **byte-identical** to the
scalar loop — segments, payloads, ``ctx.stats``, per-op EXPLAIN ANALYZE
counters, abandonment behavior, and deadline errors.  Ineligible
conditions must fall back to the scalar loop transparently.
"""

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

from tests.conftest import make_series


def seg_leaf(cls, cond_text, lo=2, hi=8, name="S"):
    condition = parse_condition(cond_text)
    var = VarDef(name, True, (WindowSpec.point(lo, hi),), condition,
                 frozenset())
    return cls(var, var.window_conjunction)


def point_leaf(cond_text, windows=(), name="P"):
    condition = parse_condition(cond_text)
    var = VarDef(name, False, tuple(windows), condition, frozenset())
    return SegGenFilter(var, var.window_conjunction)


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
        # linear_reg_r2_signed has no batch kernel: try_eval must decline
        # and the scalar loop must produce the usual answer either way.
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

    def test_compiles_statically_allowlists(self):
        registry = ExecContext(make_series([1.0])).registry
        avg = seg_leaf(SegGenFilter, "avg(S.val) > 0.0").var
        # avg is exact through prefix sums but not through a direct
        # batched fold (np.sum pairwise accumulation).
        assert vector.compiles_statically(avg, "indexed", registry)
        assert not vector.compiles_statically(avg, "direct", registry)
        unsupported = seg_leaf(
            SegGenFilter, "linear_reg_r2_signed(S.tstamp, S.val) > 0").var
        assert not vector.compiles_statically(unsupported, "indexed",
                                              registry)
        assert not vector.compiles_statically(unsupported, "direct",
                                              registry)


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
