"""Figure 8 — SegGenIndexing vs SegGenFilter.

Plan (a) of Figure 7: a single DOWN segment generator with a linear
regression condition, swept over window size ℓ (Fig. 8a) and search-space
size (Fig. 8b).  Shape claims asserted on deterministic work counters;
wall-clock series recorded via pytest-benchmark.
"""

import pytest

from repro.exec.base import ExecContext
from repro.exec.seggen import SegGenFilter, SegGenIndexing
from repro.lang.parser import parse_condition
from repro.lang.query import VarDef
from repro.lang.windows import WindowSpec
from repro.plan.search_space import SearchSpace

from conftest import once


def down_leaf(cls, length):
    condition = parse_condition(
        "linear_reg_r2_signed(DN.tstamp, DN.price) <= -0.7")
    var = VarDef("DN", True, (WindowSpec.point(0, length),), condition,
                 frozenset())
    return cls(var, var.window_conjunction)


def run_leaf(op, series, sp=None):
    ctx = ExecContext(series)
    if sp is None:
        sp = SearchSpace.full(len(series))
    count = sum(1 for _ in op.eval(ctx, sp, {}))
    return count, ctx.stats


@pytest.fixture(scope="module")
def series(tables):
    return tables("sp500").partition(["ticker"], "tstamp")[0]


@pytest.mark.parametrize("window_size", [5, 20, 60])
def test_fig8a_indexing_vs_filter_by_window(benchmark, series, window_size):
    """Fig 8a: full search space, growing window size ℓ."""
    filter_op = down_leaf(SegGenFilter, window_size)
    index_op = down_leaf(SegGenIndexing, window_size)

    filter_count, filter_stats = run_leaf(filter_op, series)
    index_count, index_stats = once(
        benchmark, lambda: run_leaf(index_op, series))

    assert filter_count == index_count  # identical results
    # Computation sharing: exactly one index build, everything else O(1)
    # lookups — while the filter pays a full aggregation per candidate.
    assert index_stats["index_builds"] == 1
    assert index_stats["index_lookups"] == filter_stats["condition_evals"]
    assert filter_stats["direct_agg_evals"] == \
        filter_stats["condition_evals"]
    print(f"\nFig8a window={window_size}: candidates="
          f"{filter_stats['condition_evals']}, "
          f"filter agg evals={filter_stats['direct_agg_evals']}, "
          f"indexed lookups={index_stats['index_lookups']}")


@pytest.mark.parametrize("space", ["tiny", "full"])
def test_fig8b_small_search_space_favors_filter(benchmark, series, space):
    """Fig 8b: with a small search space the one-off index build cost is
    not amortized — SegGenFilter touches fewer values in total."""
    window_size = 20
    if space == "tiny":
        sp = SearchSpace(0, 0, 0, window_size)
    else:
        sp = SearchSpace.full(len(series))
    filter_op = down_leaf(SegGenFilter, window_size)
    index_op = down_leaf(SegGenIndexing, window_size)

    fcount, fstats = once(benchmark, lambda: run_leaf(filter_op, series, sp))
    icount, istats = run_leaf(index_op, series, sp)
    assert fcount == icount
    if space == "tiny":
        # Index build scans the whole series; the filter only pays for the
        # few candidate segments.
        touched_by_filter = fstats["condition_evals"] * window_size
        assert touched_by_filter < len(series) * 2
    print(f"\nFig8b space={space}: candidates={fstats['condition_evals']}")


def vector_leaf(cls, cond_text, window_size):
    condition = parse_condition(cond_text)
    var = VarDef("DN", True, (WindowSpec.point(2, window_size),), condition,
                 frozenset())
    return cls(var, var.window_conjunction)


def run_leaf_toggled(op, series, vectorize):
    ctx = ExecContext(series, vectorize=vectorize)
    segments = [s.bounds for s in op.eval(ctx,
                                          SearchSpace.full(len(series)),
                                          {})]
    return segments, ctx.stats


@pytest.mark.parametrize("cls,cond", [
    (SegGenFilter, "max(DN.price) - min(DN.price) >= 5.0"),
    (SegGenIndexing, "avg(DN.price) > 1.0"),
], ids=["direct", "indexed"])
def test_fig8_vector_kernels_identical_and_faster(benchmark, series, cls,
                                                  cond):
    """The numpy batch path must emit byte-identical segments and stats
    while beating the scalar loop on a full-space leaf sweep."""
    import time

    op = vector_leaf(cls, cond, 60)
    t0 = time.perf_counter()
    scalar_out, scalar_stats = run_leaf_toggled(op, series, False)
    scalar_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    vector_out, vector_stats = once(
        benchmark, lambda: run_leaf_toggled(op, series, True))
    vector_wall = time.perf_counter() - t0
    assert vector_out == scalar_out
    assert vector_stats == scalar_stats
    # Timing gate is deliberately loose (CI-scale series are small);
    # trex_bench's scan_leaf workload measures the leaf end to end.
    assert vector_wall <= scalar_wall, \
        f"vector path slower: {vector_wall:.4f}s vs {scalar_wall:.4f}s"
    print(f"\nFig8 vector {cls.__name__}: "
          f"{scalar_wall / max(vector_wall, 1e-9):.1f}x over scalar, "
          f"{len(vector_out)} segments")
