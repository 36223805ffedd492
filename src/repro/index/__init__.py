"""Symbolic pruning index: per-series summaries for the prefilter stage.

The prefilter (:mod:`repro.plan.prefilter`, docs/PREFILTER.md) extracts
*necessary conditions* from a bound query and evaluates them against the
precomputed summaries in this package to skip whole series or narrow the
root :class:`~repro.plan.search_space.SearchSpace` before the full
matcher runs.  Every bound stored here is *proven*: a block's symbolic
lower/upper bound brackets the exact block min/max by construction
(:func:`repro.index.summary.build_summary` re-checks the bracketing
after quantization), so pruning can never dismiss a true match.
"""

from repro.index.summary import (DEFAULT_BLOCK_SIZE, ColumnSummary,
                                 SeriesSummary, build_summary, summary_for)

__all__ = ["DEFAULT_BLOCK_SIZE", "ColumnSummary", "SeriesSummary",
           "build_summary", "summary_for"]
