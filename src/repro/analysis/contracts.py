"""Registries for the engine contract analyzer (``repro lint --engine``).

The analyzer's rules are *scoped* and *exception-listed* here rather
than inline in the rule code, so the set of known-good sites is one
reviewable surface.  Every registry entry is effectively a standing
suppression: the analyzer records registry hits alongside pragma
suppressions in its report, keeping the exemptions auditable.

See ``docs/ENGINE_CONTRACTS.md`` for the rule catalogue.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

#: Engine packages the analyzer parses (relative to ``src/repro``).
CHECKED_PACKAGES: Tuple[str, ...] = (
    "exec", "aggregates", "baselines", "core", "index", "optimizer", "plan",
    "service")

#: Function names whose bodies root the budget-contract reachability
#: walk, per package.  ``Operator.eval`` and aggregate ``lookup`` are
#: the paper-level entry points; the rest are the engine's own hot
#: entry points into those packages.
TICK_ROOTS: Dict[str, FrozenSet[str]] = {
    "exec": frozenset({"eval"}),
    "baselines": frozenset({"eval", "match_series"}),
    "aggregates": frozenset({"lookup", "evaluate", "build_index",
                             "materialize_all"}),
}

#: Packages where TRX3xx findings are *emitted* (reachability may
#: traverse others).  ``core`` loops are engine-boundary plumbing with
#: their own budget settlement, not operator hot loops.
BUDGET_SCOPE: Tuple[str, ...] = ("exec", "aggregates", "baselines")

#: Packages where materialization sites must charge (TRX302).  Only the
#: operator layer accumulates segments against ``max_segments``; the
#: baselines intentionally skip budget accounting (they model foreign
#: systems) and aggregates retain index rows, not segments.
CHARGE_SCOPE: Tuple[str, ...] = ("exec",)

#: Packages where TRX4xx determinism findings are emitted.
DETERMINISM_SCOPE: Tuple[str, ...] = ("exec", "core", "aggregates")

#: Packages where TRX5xx numeric-safety findings are emitted.  ``exec``
#: joined when the vector kernels (exec/vector.py) started doing float
#: arithmetic of their own; their intentionally-bitwise comparisons are
#: registered in :data:`EXACT_FLOAT_SITES` below.
#: ``index`` joined with the symbolic summaries (index/summary.py):
#: their envelope probes compare floats bitwise on purpose and carry
#: ``trex: float-exact`` pragmas at each site.
NUMERIC_SCOPE: Tuple[str, ...] = ("aggregates", "exec", "index")

#: Files allowed to read clocks/environment (TRX404): the engine
#: boundary where deadlines are minted, executors selected and metrics
#: timed.  ``core/config.py`` is the *environment* boundary — the only
#: file that reads ``os.environ`` for an engine option (``TREX_FAULTS``
#: in ``core/parallel.py`` is fault-injection plumbing, not an option;
#: tests/test_engine_lint.py pins both).  Everything inside the
#: operator/aggregate layer must receive time through the
#: :class:`~repro.exec.base.ExecContext`.
CLOCK_BOUNDARY_FILES: FrozenSet[str] = frozenset({
    "core/config.py",
    "core/engine.py",
    "core/parallel.py",
    "exec/metrics.py",
})

#: Specific (file, qualname) functions allowed to read clocks outside
#: the boundary files.  ``ExecContext.tick`` *is* the deadline check
#: (``tick_batch`` is its amortized batch form).
CLOCK_BOUNDARY_FUNCTIONS: FrozenSet[Tuple[str, str]] = frozenset({
    ("exec/base.py", "ExecContext.tick"),
    ("exec/base.py", "ExecContext.tick_batch"),
})

#: Registered bitwise-exact float comparison sites (TRX501):
#: (file, qualname, short reason).  These comparisons are exact by
#: design and the differential fuzzer's threshold policy relies on
#: their two evaluation paths (direct vs. indexed) agreeing bit-for-bit.
EXACT_FLOAT_SITES: FrozenSet[Tuple[str, str, str]] = frozenset({
    ("aggregates/basic.py", "_StdIndex.__init__",
     "plateau run detection is exact by design"),
    ("aggregates/basic.py", "StdDevAggregate._direct",
     "constant-segment guard mirrors _StdIndex run detection"),
    ("aggregates/ticks.py", "_TickIndex.lookup",
     "up/down counts are integral-valued prefix sums"),
    ("exec/vector.py", "_vdiv",
     "mirrors the scalar division's bitwise b == 0 branch predicate"),
})

#: Pragma rule name -> diagnostic codes it may suppress.
PRAGMA_RULES: Dict[str, Tuple[str, ...]] = {
    "no-tick": ("TRX301", "TRX303"),
    "no-charge": ("TRX302",),
    "nondeterminism-ok": ("TRX401", "TRX402", "TRX403", "TRX404"),
    "float-exact": ("TRX501",),
    "nan-ok": ("TRX502",),
}

#: Parameter names treated as float-array carriers by the TRX501
#: type-lite inference (subscripts/elements of these compare as floats).
ARRAY_PARAM_NAMES: FrozenSet[str] = frozenset({
    "values", "arrays", "columns", "deltas", "signs"})

#: Calls whose results are treated as floats by the TRX501 inference.
FLOAT_CALL_NAMES: FrozenSet[str] = frozenset({
    "float", "range_sum", "range_mean", "lookup", "query"})

#: Calls that launder a value back to a non-float (clears TRX501).
INT_CALL_NAMES: FrozenSet[str] = frozenset({"int", "len", "bool"})

#: Call names that guard accumulations against NaN poisoning (TRX502).
NAN_GUARD_CALL_NAMES: FrozenSet[str] = frozenset({
    "isnan", "isfinite", "nan_to_num", "nansum", "nanmean"})
