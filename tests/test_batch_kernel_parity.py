"""Every declared batch kernel equals its scalar form, bit for bit.

Registry-driven: an aggregate that states ``batch_lookup`` (its index
overrides ``lookup_batch``) or overrides ``batch_kernel`` (direct /
series-context evaluation) is picked up here without being named, and is
held to **bitwise** equality with the scalar ``lookup`` / ``evaluate`` /
``evaluate_with_context`` over adversarial series.  That equality is what
admits a kernel to the vector leaf (docs/VECTORIZATION.md); the string
equality kernel, which lives in the expression compiler, is held to the
same standard at the bottom.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from repro.aggregates.base import Aggregate, AggregateIndex  # noqa: E402
from repro.aggregates.mann_kendall import (ROW_BLOCK,  # noqa: E402
                                           _MannKendallIndex)
from repro.aggregates.registry import DEFAULT_REGISTRY  # noqa: E402
from repro.errors import AggregateError  # noqa: E402
from repro.exec.seggen import SegGenFilter  # noqa: E402
from repro.lang.parser import parse_condition  # noqa: E402
from repro.lang.query import VarDef  # noqa: E402

from tests.conftest import make_series  # noqa: E402
from tests.test_vector import assert_parity  # noqa: E402

AGGREGATES = sorted({id(agg): agg for agg in map(
    DEFAULT_REGISTRY.get, DEFAULT_REGISTRY.names())}.values(),
    key=lambda agg: agg.name)
INDEXED = [agg for agg in AGGREGATES if agg.batch_lookup]
DIRECT = [agg for agg in AGGREGATES if agg.has_batch_kernel]


def same_bits(got, want) -> bool:
    """Bitwise equality of two float64 arrays; NaNs equal each other
    (a payload is unobservable: every comparison on a NaN is false)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    both_nan = np.isnan(got) & np.isnan(want)
    return bool(np.all(both_nan
                       | (got.view(np.int64) == want.view(np.int64))))


def all_segments(n):
    """Every ``(start, end)`` of a short series, length-1 ones included."""
    starts, ends = np.triu_indices(n)
    return starts.astype(np.int64), ends.astype(np.int64)


def extras_for(agg):
    return [[3.0], [2.0], [7.0]] if agg.num_extra else [[]]


def scalar_direct(agg, columns, start, end, extra):
    if agg.needs_series_context:
        return agg.evaluate_with_context(columns[0], start, end, extra)
    return agg.evaluate([c[start:end + 1] for c in columns], extra)


def check_indexed(agg, columns, extra):
    index = agg.build_index(columns, extra)
    starts, ends = all_segments(len(columns[0]))
    want = [index.lookup(int(s), int(e)) for s, e in zip(starts, ends)]
    # A fresh index, and a shuffled order: lazily materialized indexes
    # must not depend on what was asked before.
    order = np.random.default_rng(0).permutation(len(starts))
    got = agg.build_index(columns, extra).lookup_batch(starts[order],
                                                       ends[order])
    assert same_bits(got, np.asarray(want)[order]), agg.name


def check_direct(agg, columns, extra):
    kernel = agg.batch_kernel(columns, extra)
    assert kernel is not None, agg.name
    if agg.needs_series_context:
        starts = ends = np.arange(len(columns[0]), dtype=np.int64)
    else:
        starts, ends = all_segments(len(columns[0]))
    want = [scalar_direct(agg, columns, int(s), int(e), extra)
            for s, e in zip(starts, ends)]
    assert same_bits(kernel(starts, ends), want), agg.name


def adversarial_series():
    """Named hand-built columns: ``(x, y)`` pairs of equal length."""
    rng = np.random.default_rng(11)
    t = np.arange(40, dtype=np.float64)
    wave = np.sin(t * 0.4) * 3.0 + rng.normal(0, 0.3, 40)
    cases = {
        "wave": (t, wave),
        "offset_1e9": (t + 1e9, wave + 1e9),
        "near_cancel": (t * 1e-7 + 1e8, 1e8 + rng.normal(0, 1e-6, 40)),
        "constant_y": (t, np.full(40, 2.5)),
        "constant_x": (np.full(40, 7.0), wave),
        "ties_and_steps": (t, np.repeat([1.0, 3.0, 2.0, 3.0], 10)),
        "exact_line": (t, 2.0 * t + 1.0),
        "length_1": (t[:1], wave[:1]),
        "length_2": (t[:2], wave[:2]),
    }
    for name, bad in (("nan", np.nan), ("inf", np.inf), ("ninf", -np.inf)):
        y = wave.copy()
        y[[3, 17, 18]] = bad
        cases[f"{name}_points"] = (t, y)
    mixed = wave.copy()
    mixed[5], mixed[6], mixed[30] = np.inf, -np.inf, np.nan
    cases["mixed_nonfinite"] = (t, mixed)
    return cases


ADVERSARIAL = adversarial_series()


def columns_for(agg, x, y):
    return [x, y] if agg.num_columns == 2 else [y]


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
@pytest.mark.parametrize("agg", INDEXED, ids=lambda a: a.name)
def test_lookup_batch_is_bitwise_lookup(agg, case):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for extra in extras_for(agg):
            check_indexed(agg, columns_for(agg, *ADVERSARIAL[case]), extra)


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
@pytest.mark.parametrize("agg", DIRECT, ids=lambda a: a.name)
def test_batch_kernel_is_bitwise_evaluate(agg, case):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for extra in extras_for(agg):
            check_direct(agg, columns_for(agg, *ADVERSARIAL[case]), extra)


messy = hnp.arrays(
    dtype=np.float64, shape=st.integers(min_value=1, max_value=48),
    elements=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        st.floats(min_value=-4, max_value=4).map(lambda v: float(round(v))),
        st.floats(min_value=1e9, max_value=1e9 + 8)))


@pytest.mark.parametrize("agg", INDEXED, ids=lambda a: a.name)
@given(values=messy)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_lookup_batch_property(agg, values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        x = np.arange(len(values), dtype=np.float64)
        check_indexed(agg, columns_for(agg, x, values), extras_for(agg)[0])


@pytest.mark.parametrize("agg", DIRECT, ids=lambda a: a.name)
@given(values=messy, context=st.integers(min_value=2, max_value=60))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_batch_kernel_property(agg, values, context):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        x = np.arange(len(values), dtype=np.float64)
        extra = [float(context)] if agg.num_extra else []
        check_direct(agg, columns_for(agg, x, values), extra)


def test_declarations_are_honest():
    """``batch_lookup`` means the built index really overrides
    ``lookup_batch`` — and an index that does is declared, so the vector
    leaf is not left on the scalar loop by a forgotten flag."""
    t = np.arange(8, dtype=np.float64)
    for agg in AGGREGATES:
        if not agg.supports_index:
            assert not agg.batch_lookup, agg.name
            continue
        index = agg.build_index(columns_for(agg, t, t * t), [])
        overrides = type(index).lookup_batch \
            is not AggregateIndex.lookup_batch
        assert overrides == agg.batch_lookup, agg.name
    assert {a.name for a in INDEXED} >= {
        "linear_regression_r2", "linear_regression_r2_signed",
        "mann_kendall_test", "avg", "stddev"}
    assert {a.name for a in DIRECT} >= {
        "zscore_outlier", "mann_kendall_test", "min", "max", "count"}
    # np.sum accumulates pairwise: no exact batched left fold exists.
    assert not DEFAULT_REGISTRY.get("sum").has_batch_kernel
    assert not DEFAULT_REGISTRY.get("avg").has_batch_kernel


def test_registered_uda_joins_by_declaration():
    """A UDA with an exact ``lookup_batch`` needs no executor edit."""
    from repro.aggregates.registry import _build_default_registry
    from repro.exec import vector

    class _SpanIndex(AggregateIndex):
        def lookup(self, start, end):
            return float(end - start)

        def lookup_batch(self, starts, ends):
            return (ends - starts).astype(np.float64)

    class Span(Aggregate):
        name = "span"
        index_cost_shape = "C"
        lookup_cost_shape = "C"
        batch_lookup = True

        def evaluate(self, arrays, extra):
            return float(len(arrays[0]) - 1)

        def build_index(self, columns, extra):
            return _SpanIndex()

    registry = _build_default_registry()
    registry.register(Span())
    var = VarDef("S", True, (), parse_condition("span(S.val) >= 3"),
                 frozenset())
    assert vector.compiles_statically(var, "indexed", registry)
    assert not vector.compiles_statically(var, "direct", registry)


class TestZScoreEdges:
    agg = DEFAULT_REGISTRY.get("zscore_outlier")

    @pytest.mark.parametrize("context", [2, 3, 8, 15, 25, 64, 200])
    def test_contexts(self, context):
        rng = np.random.default_rng(context)
        column = np.cumsum(rng.normal(0, 1, 260)) + 100.0
        column[40:44] = column[40]          # a flat window: std == 0
        check_direct(self.agg, [column], [float(context)])

    def test_first_context_points_take_the_scalar_form(self):
        column = np.arange(12, dtype=np.float64) ** 2
        kernel = self.agg.batch_kernel([column], [5.0])
        idx = np.arange(12, dtype=np.int64)
        got = kernel(idx, idx)
        assert got[0] == got[1] == 0.0       # fewer than two context points
        assert same_bits(got, [self.agg.evaluate_with_context(
            column, i, i, [5.0]) for i in range(12)])

    def test_bad_context_has_no_kernel(self):
        # ... so the scalar site keeps raising the AggregateError.
        column = np.arange(6, dtype=np.float64)
        assert self.agg.batch_kernel([column], [1.0]) is None
        with pytest.raises(AggregateError, match="context size"):
            self.agg.evaluate_with_context(column, 3, 3, [1.0])


class TestMannKendallRows:
    def test_probe_touches_one_block_of_a_long_series(self):
        values = np.sin(np.arange(50_000) * 0.01)
        index = _MannKendallIndex(values)
        want = index.lookup(1234, 1234 + 15)
        assert len(index._rows[1234]) == ROW_BLOCK
        assert same_bits([want], DEFAULT_REGISTRY.get(
            "mann_kendall_test").evaluate([values[1234:1250]], []))
        # Asking further extends the same row, a block at a time.
        index.lookup(1234, 1234 + 100)
        assert len(index._rows[1234]) == 2 * ROW_BLOCK
        assert same_bits([index.lookup(1234, 1234 + 15)], [want])
        # The tail caps the row.
        index.lookup(49_990, 49_999)
        assert len(index._rows[49_990]) == 10

    def test_materialize_all_equals_the_eager_table(self):
        rng = np.random.default_rng(5)
        values = np.round(rng.normal(0, 2, 90))
        values[40] = np.nan
        index = _MannKendallIndex(values)
        index.lookup(3, 9)                   # a partly grown row first
        index.materialize_all()
        for start in range(len(values)):
            tail = values[start:]
            eager = np.zeros(len(tail))
            total = 0.0
            for offset in range(1, len(tail)):
                total += float(np.sum(np.sign(tail[offset] - tail[:offset])))
                eager[offset] = total
            assert np.array_equal(index._rows[start], eager, equal_nan=True)


class TestStringEquality:
    """``=``/``!=`` between a column and a string literal, object
    columns of mixed type included (docs/VECTORIZATION.md)."""

    labels = np.array(["GOOG", "MSFT", None, 3.5, "GOOG", float("nan"),
                       "goog", "GOOG", b"GOOG", "MSFT"], dtype=object)

    def leaf(self, text, segment):
        var = VarDef("A", segment, (), parse_condition(text), frozenset())
        return SegGenFilter(var, var.window_conjunction)

    def series(self):
        return make_series(np.arange(10, dtype=np.float64),
                           extra={"ticker": self.labels})

    @pytest.mark.parametrize("text", [
        "A.ticker = 'GOOG'", "A.ticker != 'GOOG'", "'GOOG' = A.ticker",
        "A.ticker <> 'MSFT' and A.val > 2", "not A.ticker == 'GOOG'"])
    def test_point_variable(self, text):
        out = assert_parity(self.leaf(text, segment=False), self.series())
        assert out

    @pytest.mark.parametrize("text", [
        "first(A.ticker) = 'GOOG' and last(A.ticker) != 'GOOG'",
        "A.ticker = 'MSFT'"])
    def test_segment_variable(self, text):
        assert assert_parity(self.leaf(text, segment=True), self.series())

    def test_string_site_on_a_numeric_column_stays_scalar(self):
        from repro.exec import vector
        from repro.exec.base import ExecContext
        from repro.plan.search_space import SearchSpace
        series = self.series()
        op = self.leaf("A.val = 'GOOG'", segment=False)
        assert vector.try_eval(op, ExecContext(series),
                               SearchSpace.full(10), {}, None,
                               "direct") is None
        assert assert_parity(op, series) == []
