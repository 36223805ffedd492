"""Per-series symbolic summaries (PAA/SAX-style) with proven bounds.

A :class:`SeriesSummary` precomputes, per numeric column:

* the global envelope — min/max over every comparable (non-NaN) value;
* a blockwise signature — the series is cut into fixed-size blocks and
  each block's exact min/max is quantized to one of ``SYMBOLS`` levels
  over the global envelope (the SAX alphabet).  Decoding a symbol yields
  a *sound* bound: the stored lower bound never exceeds the true block
  minimum and the stored upper bound never undercuts the true block
  maximum.

Soundness is constructive: symbols are assigned by arithmetic
quantization and then *fixed up* against the exact extremes until the
decoded bounds bracket them (``numpy.linspace`` endpoints are exact, so
the fix-up loops terminate at the alphabet edges).  ``validate()``
re-derives the exact extremes and re-checks the bracketing — the
envelope-soundness oracle of the differential fuzzer calls it on every
summary the prefilter used.

Degenerate inputs fall back to storing the exact block extremes
(``exact=True``): a flat envelope, ±inf values, or an all-NaN column all
make the linspace alphabet useless, and exact bounds are trivially
sound.  Non-numeric (object-dtype) columns are recorded as unsupported;
the prefilter treats atoms over them as always-possible.

A summary is a pure function of an immutable
:class:`~repro.timeseries.series.Series`, so it is kept on the series
(:meth:`Series.derived <repro.timeseries.series.Series.derived>`, the
one residency mechanism — aggregate indexes live there too) and goes
when the series does.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import DataError
from repro.timeseries.series import Series

#: Points per signature block.  Smaller blocks prune tighter but cost
#: more probe work; the default matches
#: ``repro.optimizer.cost_params.DEFAULT_PREFILTER_BLOCK_SIZE``.
DEFAULT_BLOCK_SIZE = 64

#: Alphabet size of the symbolic signature (fits uint8).
SYMBOLS = 256


@dataclass
class ColumnSummary:
    """Signature of one column: global envelope + blockwise bounds.

    ``block_lo[k] <= min(block k)`` and ``block_hi[k] >= max(block k)``
    hold for every non-empty block (NaN entries mark empty blocks).
    ``symbols_lo``/``symbols_hi`` are the quantized SAX codes the bounds
    decode from (empty arrays in exact mode).
    """

    column: str
    n: int
    block_size: int
    #: False for non-numeric columns: no bounds, never prunes.
    supported: bool
    #: Number of comparable (non-NaN) values in the column.
    finite_count: int
    #: Global envelope over comparable values (NaN when none exist).
    global_lo: float
    global_hi: float
    block_lo: np.ndarray
    block_hi: np.ndarray
    #: True for blocks with no comparable value at all.
    block_empty: np.ndarray
    symbols_lo: np.ndarray
    symbols_hi: np.ndarray
    #: True when block_lo/block_hi are the exact extremes (degenerate
    #: envelope or quantization not applicable).
    exact: bool

    @property
    def num_blocks(self) -> int:
        return len(self.block_lo)

    def interval_possible(self, lo: float, hi: float, lo_open: bool,
                          hi_open: bool) -> bool:
        """May *any* value of the column lie in the interval?

        Sound test against the global envelope: ``False`` proves no
        element can witness the interval, ``True`` is inconclusive.
        """
        if not self.supported:
            return True
        if self.finite_count == 0:
            # No comparable value anywhere: every comparison atom fails.
            return False
        return not self._outside(self.global_lo, self.global_hi,
                                 lo, hi, lo_open, hi_open)

    def blocks_possible(self, lo: float, hi: float, lo_open: bool,
                        hi_open: bool) -> np.ndarray:
        """Boolean mask over blocks that *may* contain a value in the
        interval (sound: excluded blocks provably contain none)."""
        if not self.supported:
            return np.ones(self.num_blocks, dtype=bool)
        with warnings.catch_warnings():
            # Empty blocks carry NaN bounds; comparisons with NaN are
            # False, which the final mask turns into "impossible" —
            # exactly right for a block with no comparable values.
            warnings.simplefilter("ignore", RuntimeWarning)
            below = (self.block_hi < lo) | (
                lo_open & (self.block_hi == lo))  # trex: float-exact
            above = (self.block_lo > hi) | (
                hi_open & (self.block_lo == hi))  # trex: float-exact
            possible = ~(below | above)
        return possible & ~self.block_empty

    @staticmethod
    def _outside(value_lo: float, value_hi: float, lo: float, hi: float,
                 lo_open: bool, hi_open: bool) -> bool:
        """Is ``[value_lo, value_hi]`` provably disjoint from the atom
        interval?  Exact float equality is intentional here: an open
        endpoint excludes exactly its boundary value."""
        if value_hi < lo or (lo_open and value_hi == lo):  # trex: float-exact
            return True
        if value_lo > hi or (hi_open and value_lo == hi):  # trex: float-exact
            return True
        return False

    def validate(self, values: np.ndarray) -> None:
        """Re-check every stored bound against the exact block extremes.

        Raises :class:`~repro.errors.DataError` naming the first
        violated invariant — the envelope-soundness oracle.
        """
        if not self.supported:
            return
        if len(values) != self.n:
            raise DataError(
                f"summary for column {self.column!r} is stale: built for "
                f"{self.n} points, series has {len(values)}")
        exact_lo, exact_hi, empty = _block_extremes(values, self.block_size)
        if len(exact_lo) != self.num_blocks:
            raise DataError(
                f"summary for column {self.column!r} has "
                f"{self.num_blocks} blocks, expected {len(exact_lo)}")
        if not np.array_equal(empty, self.block_empty):
            raise DataError(
                f"summary for column {self.column!r} disagrees on empty "
                f"blocks")
        live = ~empty
        if np.any(self.block_lo[live] > exact_lo[live]):
            k = int(np.flatnonzero(self.block_lo[live]
                                   > exact_lo[live])[0])
            raise DataError(
                f"summary for column {self.column!r} violates the lower "
                f"envelope at live block {k}: stored bound exceeds the "
                f"true block minimum")
        if np.any(self.block_hi[live] < exact_hi[live]):
            k = int(np.flatnonzero(self.block_hi[live]
                                   < exact_hi[live])[0])
            raise DataError(
                f"summary for column {self.column!r} violates the upper "
                f"envelope at live block {k}: stored bound undercuts the "
                f"true block maximum")


@dataclass
class SeriesSummary:
    """All column signatures for one series, plus the point count."""

    n: int
    block_size: int
    columns: Dict[str, ColumnSummary]

    @property
    def num_blocks(self) -> int:
        return 0 if self.n == 0 else -(-self.n // self.block_size)

    def column(self, name: str) -> Optional[ColumnSummary]:
        return self.columns.get(name)

    def block_range(self, k: int) -> Tuple[int, int]:
        """Inclusive point-index range covered by block ``k``."""
        lo = k * self.block_size
        return lo, min(lo + self.block_size - 1, self.n - 1)

    def validate(self, series: Series) -> None:
        """Check freshness and every column's envelope soundness."""
        if len(series) != self.n:
            raise DataError(
                f"summary is stale: built for {self.n} points, series "
                f"has {len(series)}")
        for name, summary in sorted(self.columns.items()):
            if summary.supported:
                summary.validate(series.column(name))


def _block_extremes(values: np.ndarray, block_size: int) \
        -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-block (min, max, empty) over comparable values."""
    n = len(values)
    num_blocks = -(-n // block_size) if n else 0
    padded = np.full(num_blocks * block_size, np.nan)
    padded[:n] = values
    grid = padded.reshape(num_blocks, block_size)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        lows = np.nanmin(grid, axis=1)
        highs = np.nanmax(grid, axis=1)
    empty = np.isnan(lows)
    return lows, highs, empty


def _quantize(exact_lo: np.ndarray, exact_hi: np.ndarray,
              empty: np.ndarray, global_lo: float, global_hi: float) \
        -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encode exact block extremes as SAX symbols with proven decode.

    Returns ``(symbols_lo, symbols_hi, block_lo, block_hi)`` where the
    decoded bounds provably bracket the exact extremes.  The caller
    guarantees a non-flat global envelope with a finite span.
    """
    edges = np.linspace(global_lo, global_hi, SYMBOLS + 1)
    span = global_hi - global_lo
    live = ~empty
    sym_lo = np.zeros(len(exact_lo), dtype=np.int64)
    sym_hi = np.zeros(len(exact_hi), dtype=np.int64)
    with np.errstate(invalid="ignore"):
        sym_lo[live] = np.clip(
            np.floor((exact_lo[live] - global_lo) / span * SYMBOLS),
            0, SYMBOLS - 1).astype(np.int64)
        sym_hi[live] = np.clip(
            np.ceil((exact_hi[live] - global_lo) / span * SYMBOLS) - 1,
            0, SYMBOLS - 1).astype(np.int64)
    # Constructive soundness fix-up: rounding may land one symbol off,
    # so walk each code until its decoded bound brackets the exact
    # extreme.  linspace endpoints are exact (edges[0] == global_lo <=
    # every block min; edges[SYMBOLS] == global_hi >= every block max),
    # so both loops terminate at the alphabet edges.
    # trex: no-tick(bounded by the SAX alphabet size)
    for _ in range(SYMBOLS):
        off = live & (edges[sym_lo] > exact_lo)
        if not off.any():
            break
        sym_lo[off] -= 1
    for _ in range(SYMBOLS):
        off = live & (edges[sym_hi + 1] < exact_hi)
        if not off.any():
            break
        sym_hi[off] += 1
    block_lo = np.where(live, edges[sym_lo], np.nan)
    block_hi = np.where(live, edges[sym_hi + 1], np.nan)
    return (sym_lo.astype(np.uint8), sym_hi.astype(np.uint8),
            block_lo, block_hi)


def _summarize_column(name: str, values: np.ndarray,
                      block_size: int) -> ColumnSummary:
    n = len(values)
    num_blocks = -(-n // block_size) if n else 0
    if values.dtype.kind != "f":
        nan = np.full(num_blocks, np.nan)
        return ColumnSummary(
            column=name, n=n, block_size=block_size, supported=False,
            finite_count=0, global_lo=np.nan, global_hi=np.nan,
            block_lo=nan, block_hi=nan.copy(),
            block_empty=np.ones(num_blocks, dtype=bool),
            symbols_lo=np.empty(0, dtype=np.uint8),
            symbols_hi=np.empty(0, dtype=np.uint8), exact=True)
    exact_lo, exact_hi, empty = _block_extremes(values, block_size)
    finite_count = int(np.count_nonzero(~np.isnan(values)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        global_lo = float(np.nanmin(values)) if n else np.nan
        global_hi = float(np.nanmax(values)) if n else np.nan
    # The span itself must be finite: for an envelope such as
    # [-1.8e308, 1e292] the subtraction overflows to inf and every
    # symbol would come out as int64-min.
    quantizable = (global_lo < global_hi
                   and bool(np.isfinite(global_hi - global_lo)))
    if quantizable:
        sym_lo, sym_hi, block_lo, block_hi = _quantize(
            exact_lo, exact_hi, empty, global_lo, global_hi)
        exact = False
    else:
        # Flat/±inf/all-NaN envelope, or one too wide to subtract: store
        # exact extremes (trivially sound) instead of a meaningless
        # alphabet.
        sym_lo = np.empty(0, dtype=np.uint8)
        sym_hi = np.empty(0, dtype=np.uint8)
        block_lo, block_hi = exact_lo, exact_hi
        exact = True
    return ColumnSummary(
        column=name, n=n, block_size=block_size, supported=True,
        finite_count=finite_count, global_lo=global_lo,
        global_hi=global_hi, block_lo=block_lo, block_hi=block_hi,
        block_empty=empty, symbols_lo=sym_lo, symbols_hi=sym_hi,
        exact=exact)


def build_summary(series: Series,
                  block_size: int = DEFAULT_BLOCK_SIZE) -> SeriesSummary:
    """Summarize every column of ``series`` (sorted for determinism)."""
    if block_size < 1:
        raise DataError(f"block_size must be >= 1, got {block_size}")
    columns = {
        name: _summarize_column(name, series.column(name), block_size)
        for name in series.column_names
    }
    return SeriesSummary(n=len(series), block_size=block_size,
                         columns=columns)


def summary_for(series: Series, block_size: int = DEFAULT_BLOCK_SIZE,
                counters: Optional[Counter] = None) -> SeriesSummary:
    """The summary resident on ``series``, built on first use.

    A resident summary at another granularity than the one asked for is
    *stale* and is rebuilt in place; ``counters`` records the
    ``index_built`` / ``index_cached`` / ``index_stale`` events, which
    describe the cache, not the work a query performed.
    """
    def build() -> SeriesSummary:
        return build_summary(series, block_size)

    summary, built = series.derived(summary_for, build)
    if not built and summary.block_size != block_size:
        series.drop_derived(summary_for)
        summary, built = series.derived(summary_for, build)
        if counters is not None:
            counters["index_stale"] += 1
    if counters is not None:
        counters["index_built" if built else "index_cached"] += 1
    return summary
