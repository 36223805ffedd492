"""Grammar-level differential fuzzer with case minimization.

Four pieces, used by ``repro fuzz`` and the tier-1 corpus-replay test:

* :class:`QueryGen` — seeded random queries over the full surface grammar
  (segment/point variables, ``&``/``~``/``|``/Kleene, window conjunctions
  including zero-width windows, cross-variable references including cyclic
  sibling references, every registered aggregate) under a node budget;
* :class:`SeriesGen` — seeded short series biased toward the shapes that
  break matchers: ties, plateaus, NaNs, spikes and n in {0, 1, 2};
* the oracle matrix (:func:`oracle_check`) — each (query, series) pair runs
  through the brute-force matcher and every execution backend, diffing the
  match sets — plus metamorphic relations (:func:`metamorphic_check`) as a
  second oracle class that needs no reference implementation;
* a delta-debugging minimizer (:func:`minimize_case`) that shrinks a
  failing (query, series) pair to a minimal reproducer, serializable to
  ``tests/corpus/`` JSON via :func:`case_to_json` / :func:`replay_case`.

Queries are rendered to *text* and recompiled for every check, so the
lexer/parser/binder/rewriter sit inside the fuzzed surface, not outside it.
See docs/FUZZING.md for the triage workflow.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import make_executor
from repro.core.bruteforce import BruteForceMatcher
from repro.core.config import EngineConfig
from repro.core.engine import TRexEngine
from repro.errors import ExecutionError, TRexError
from repro.lang.query import Query, compile_query
from repro.optimizer.planner import CostBasedPlanner
from repro.timeseries.series import Series

MatchSet = Tuple[Tuple[int, int], ...]

# ---------------------------------------------------------------------------
# Query specs: a tiny mutable mirror of the pattern algebra that renders to
# surface syntax.  The minimizer edits specs, never raw text.
# ---------------------------------------------------------------------------


@dataclass
class SVar:
    """One variable occurrence: a pattern leaf plus its DEFINE clause."""

    name: str
    is_segment: bool
    cond: str

    def clone(self) -> "SVar":
        return SVar(self.name, self.is_segment, self.cond)


@dataclass
class SNode:
    """Composite pattern node: concat/and/or/not/kleene plus quantifier."""

    kind: str
    parts: List[object] = field(default_factory=list)
    quant: str = ""

    def clone(self) -> "SNode":
        return SNode(self.kind, [p.clone() for p in self.parts], self.quant)


def spec_vars(spec: object) -> List[SVar]:
    """Every variable leaf, in pattern order (duplicates preserved)."""
    if isinstance(spec, SVar):
        return [spec]
    found: List[SVar] = []
    for part in spec.parts:
        found.extend(spec_vars(part))
    return found


def spec_size(spec: object) -> int:
    """Node count of the spec tree (minimization metric)."""
    if isinstance(spec, SVar):
        return 1
    return 1 + sum(spec_size(p) for p in spec.parts)


def render_pattern(spec: object) -> str:
    if isinstance(spec, SVar):
        return spec.name
    if spec.kind == "concat":
        return "(" + " ".join(render_pattern(p) for p in spec.parts) + ")"
    if spec.kind == "and":
        return "(" + " & ".join(render_pattern(p) for p in spec.parts) + ")"
    if spec.kind == "or":
        return "(" + " | ".join(render_pattern(p) for p in spec.parts) + ")"
    if spec.kind == "not":
        return "~" + render_pattern(spec.parts[0])
    if spec.kind == "kleene":
        return "(" + render_pattern(spec.parts[0]) + ")" + spec.quant
    raise ValueError(f"unknown spec kind {spec.kind!r}")


def render_query(spec: object) -> str:
    """Full query text for a spec tree."""
    seen: Dict[str, SVar] = {}
    for var in spec_vars(spec):
        seen.setdefault(var.name, var)
    defines = ",\n  ".join(
        ("SEGMENT " if v.is_segment else "") + f"{v.name} AS {v.cond}"
        for v in seen.values())
    return (f"ORDER BY tstamp\nPATTERN {render_pattern(spec)}\n"
            f"DEFINE {defines}")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

_AGG_1COL = ("sum", "avg", "count", "min", "max", "stddev", "median",
             "max_drawdown", "mann_kendall_test", "equal_up_down_ticks")
_AGG_2COL = ("corr", "linear_regression_r2", "linear_regression_r2_signed",
             "slope")
_CMP_OPS = ("<", "<=", ">", ">=", "!=")
#: Aggregates whose direct and indexed evaluations are bitwise-identical
#: (integer counts, element selection).  Only these may be compared with
#: exact equality: derived float statistics (sum, avg, stddev, ...) are
#: computed by different formulas on the direct and index paths and may
#: legitimately differ in the last ulp, so ``= / !=`` against a threshold
#: they hit exactly is a knife-edge, not a bug (docs/FUZZING.md).
_EXACT_AGGS = frozenset({"count", "min", "max"})
_ORDER_OPS = ("<", "<=", ">", ">=")


class QueryGen:
    """Seeded random query generator over the surface grammar."""

    def __init__(self, rng: random.Random, max_nodes: int = 6):
        self.rng = rng
        self.max_nodes = max_nodes
        self._counter = 0

    # -- variables -----------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _threshold(self) -> str:
        # Series values live on the quarter-integer lattice, so exactly
        # representable statistics (stddev of two points, medians, small
        # sums) land on the 1/8 grid.  Thresholds sit on the 1/128 grid
        # *off* that lattice: a statistic can then only collide with a
        # threshold through a ~2^-45 rounding accident, which keeps every
        # comparison away from cross-path ulp knife-edges (docs/FUZZING.md).
        rng = self.rng
        base = rng.choice((-4, -2, -1, 0, 1, 2, 3, 5, 8))
        if rng.random() < 0.5:
            return str(base)
        return repr(base + rng.choice((0.2578125, 0.4921875, 0.7421875)))

    def _agg_op(self, agg: str) -> str:
        """Comparison op for an aggregate; equality only for exact ones."""
        if agg in _EXACT_AGGS:
            return self.rng.choice(_CMP_OPS)
        return self.rng.choice(_ORDER_OPS)

    def _window_cond(self, allow_zero: bool = True) -> str:
        rng = self.rng
        lo = rng.choice((0, 0, 1, 2, 3) if allow_zero else (1, 2, 3))
        hi_pool: Tuple[object, ...] = (lo, lo + 1, lo + 3, lo + 6, "null")
        hi = rng.choice(hi_pool)
        return f"window({lo}, {hi})"

    def _point_cond(self, name: str) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.15:
            return "true"
        if roll < 0.75:
            return f"{name}.val {rng.choice(_CMP_OPS)} {self._threshold()}"
        if roll < 0.85:
            return (f"{name}.val * 2 - 1 "
                    f"{rng.choice(_CMP_OPS)} {self._threshold()}")
        if roll < 0.95:
            return (f"{name}.val BETWEEN {self._threshold()} "
                    f"AND {self._threshold()}")
        return "zscore_outlier(val, 2) > 0.5"

    def _segment_cond(self, name: str) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.1:
            return "true"
        if roll < 0.2:
            return self._window_cond()
        if roll < 0.7:
            agg = rng.choice(_AGG_1COL)
            return f"{agg}({name}.val) {self._agg_op(agg)} " \
                   f"{self._threshold()}"
        if roll < 0.8:
            agg = rng.choice(_AGG_2COL)
            return f"{agg}({name}.tstamp, {name}.val) " \
                   f"{self._agg_op(agg)} " \
                   f"{rng.choice(('-0.4921875', '0.2578125', '0.7578125'))}"
        if roll < 0.9:
            return (f"last({name}.val) {rng.choice(_CMP_OPS)} "
                    f"first({name}.val)")
        agg_a = rng.choice(_AGG_1COL)
        cond_a = f"{agg_a}({name}.val) " \
                 f"{self._agg_op(agg_a)} {self._threshold()}"
        if rng.random() < 0.5:
            return f"{cond_a} AND {self._window_cond()}"
        return f"NOT ({cond_a})"

    def _leaf(self) -> SVar:
        if self.rng.random() < 0.55:
            name = self._fresh("S")
            return SVar(name, True, self._segment_cond(name))
        name = self._fresh("P")
        return SVar(name, False, self._point_cond(name))

    # -- pattern tree --------------------------------------------------------

    def _pattern(self, budget: int, depth: int) -> object:
        rng = self.rng
        if budget <= 1 or depth >= 3 or rng.random() < 0.35:
            return self._leaf()
        kind = rng.choice(("concat", "concat", "and", "or", "not", "kleene"))
        if kind == "concat":
            arity = 2 if budget < 4 or rng.random() < 0.7 else 3
            split = max(1, (budget - 1) // arity)
            parts = [self._pattern(split, depth + 1) for _ in range(arity)]
            return SNode("concat", parts)
        if kind == "and":
            left = self._pattern((budget - 1) // 2, depth + 1)
            if rng.random() < 0.5:
                name = self._fresh("W")
                right: object = SVar(name, True, self._window_cond())
            else:
                right = self._pattern((budget - 1) // 2, depth + 1)
            return SNode("and", [left, right])
        if kind == "or":
            return SNode("or", [self._pattern((budget - 1) // 2, depth + 1),
                                self._pattern((budget - 1) // 2, depth + 1)])
        if kind == "not":
            # Mirror the paper's idiom: a negated branch alongside a
            # positive conjunct keeps the complement bounded and cheap.
            positive = self._pattern((budget - 1) // 2, depth + 1)
            negated = SNode("not", [self._pattern(max(1, (budget - 1) // 2),
                                                  depth + 1)])
            if rng.random() < 0.3:
                return SNode("not", [positive])
            return SNode("and", [positive, negated])
        child = self._pattern(budget - 1, depth + 1)
        has_segment = any(v.is_segment for v in spec_vars(child))
        if has_segment:
            quant = rng.choice(("+", "{2}", "{1,2}", "{1,3}", "{2,3}"))
        else:
            quant = rng.choice(("+", "*", "?", "{0,2}", "{1,3}", "{2}"))
        return SNode("kleene", [child], quant)

    def _add_cross_refs(self, spec: object) -> None:
        """Wire cross-variable references between co-present variables.

        Only variables joined purely by concat/and are guaranteed bound in
        every match, so references never reach into ``|``, ``~`` or Kleene
        branches.  Mutual references between point siblings produce the
        cyclic cases the brute-force matcher resolves by deferral.
        """
        def certain(node: object) -> List[SVar]:
            if isinstance(node, SVar):
                return [node]
            if node.kind in ("concat", "and"):
                found: List[SVar] = []
                for part in node.parts:
                    found.extend(certain(part))
                return found
            return []

        rng = self.rng
        vars_ = certain(spec)
        if len(vars_) < 2:
            return
        a, b = rng.sample(vars_, 2)
        op = rng.choice(_CMP_OPS)
        if not a.is_segment and not b.is_segment:
            a.cond = f"{a.name}.val {op} {b.name}.val"
            if rng.random() < 0.5:  # make it cyclic
                b.cond = f"{b.name}.val {rng.choice(_CMP_OPS)} {a.name}.val"
        elif a.is_segment and not b.is_segment:
            # Exact aggregate only: a raw series value is a knife-edge
            # threshold, and derived statistics (avg, sum, ...) may
            # differ in the last ulp between the direct and indexed
            # paths (see _EXACT_AGGS above) — e.g. a prefix-sum avg of
            # a single point need not equal that point bit-for-bit.
            a.cond = f"min({a.name}.val) {op} {b.name}.val"
        elif not a.is_segment and b.is_segment:
            a.cond = f"{a.name}.val {op} first({b.name}.val)"
        else:
            a.cond = f"last({a.name}.val) {op} first({b.name}.val)"

    def generate(self) -> object:
        self._counter = 0
        budget = self.rng.randint(1, self.max_nodes)
        spec = self._pattern(budget, 0)
        if self.rng.random() < 0.4:
            name = self._fresh("W")
            spec = SNode("and",
                         [spec, SVar(name, True,
                                     self._window_cond(allow_zero=False))])
        if self.rng.random() < 0.35:
            self._add_cross_refs(spec)
        return spec


class SeriesGen:
    """Seeded random short series biased toward matcher-breaking shapes.

    ``nan_bias``/``tiny_bias`` harden the scalar/vector boundary fuzzing:
    NaN poisoning exercises the kernels' comparison and truthiness masks,
    and n in {0, 1, 2} exercises batch enumeration around empty and
    single-candidate spaces.
    """

    def __init__(self, rng: random.Random, max_len: int = 10,
                 nan_bias: float = 0.0, tiny_bias: float = 0.0):
        self.rng = rng
        self.max_len = max_len
        self.nan_bias = nan_bias
        self.tiny_bias = tiny_bias

    def _values(self, n: int) -> List[float]:
        rng = self.rng
        shape = rng.choice(("walk", "walk", "ties", "plateau", "nan",
                            "spiky"))
        if shape == "plateau":
            level = float(rng.choice((-1, 0, 2, 0.1)))
            vals = [level] * n
            for _ in range(rng.randint(0, max(0, n // 3))):
                vals[rng.randrange(n)] = level + rng.choice((-2, 1, 3))
            return vals
        pool: Sequence[float]
        if shape == "ties":
            pool = (0.0, 1.0, 1.0, 2.0)
        elif shape == "spiky":
            pool = (-100.0, -1.0, 0.0, 0.5, 2.0, 100.0)
        else:
            pool = (-3.0, -1.0, 0.0, 1.0, 2.0, 4.0, 5.5)
        vals = [float(rng.choice(pool)) for _ in range(n)]
        if shape == "nan" or (shape == "walk" and rng.random() < 0.15):
            for _ in range(rng.randint(1, max(1, n // 4))):
                vals[rng.randrange(n)] = math.nan
        if self.nan_bias:
            for i in range(n):
                if rng.random() < self.nan_bias:
                    vals[i] = math.nan
        return vals

    def generate(self) -> Tuple[List[float], List[float]]:
        """One (timestamps, values) pair; n in {0, 1, 2} with bias."""
        rng = self.rng
        roll = rng.random()
        if self.tiny_bias and rng.random() < self.tiny_bias:
            n = rng.randint(0, 2)
        elif roll < 0.06:
            n = 0
        elif roll < 0.14:
            n = 1
        elif roll < 0.22:
            n = 2
        else:
            n = rng.randint(3, self.max_len)
        if n == 0:
            return [], []
        values = self._values(n)
        if rng.random() < 0.25:
            gaps = [float(rng.choice((1, 1, 2, 3))) for _ in range(n)]
            tstamps = [float(t) for t in np.cumsum(gaps) - gaps[0]]
        else:
            tstamps = [float(i) for i in range(n)]
        if n >= 2 and rng.random() < 0.1:
            at = rng.randrange(1, n)  # tied order values are legal
            tstamps[at] = tstamps[at - 1]
            tstamps[at:] = [tstamps[at - 1] + (t - tstamps[at])
                            for t in tstamps[at:]]
        return tstamps, values


def build_series(tstamps: Sequence[float], values: Sequence[float],
                 time_unit: str = "DAY") -> Series:
    return Series({"tstamp": np.asarray(tstamps, dtype=np.float64),
                   "val": np.asarray(values, dtype=np.float64)},
                  order_column="tstamp", key=("fuzz",),
                  time_unit=time_unit)


# ---------------------------------------------------------------------------
# Oracle matrix
# ---------------------------------------------------------------------------

_PATTERN_ORDER_GAP = "unavailable in pattern order"


def _engine_backend(overrides: Dict[str, object]) \
        -> Callable[[Query, Series], MatchSet]:
    config = EngineConfig(**{"executor": "serial", **overrides})

    def run(query: Query, series: Series) -> MatchSet:
        result = TRexEngine(config).execute_query(query, [series])
        return tuple(sorted(result.per_series[0].matches))
    return run


def _baseline_backend(label: str,
                      sharing: bool) -> Callable[[Query, Series], MatchSet]:
    def run(query: Query, series: Series) -> MatchSet:
        executor = make_executor(label, query, sharing=sharing)
        return tuple(sorted(executor.match_series(series)))
    return run


#: The engine side of the matrix, as :class:`EngineConfig` overrides on
#: the product defaults (pinned to ``serial`` so the environment cannot
#: redefine a backend): planners x sharing, the process pool (the settle
#: loop's accept/replay arm) and the two differential toggles.
TREX_BACKENDS: Dict[str, Dict[str, object]] = {
    "trex:cost:auto": {},
    "trex:cost:on": {"sharing": "on"},
    "trex:cost:off": {"sharing": "off"},
    "trex:pr_left": {"optimizer": "pr_left"},
    "trex:pr_right": {"optimizer": "pr_right"},
    "trex:sm_left": {"optimizer": "sm_left"},
    "trex:sm_right": {"optimizer": "sm_right"},
    "trex:process": {"executor": "process", "workers": 2},
    "trex:novec": {"vectorize": False},
    "trex:noprefilter": {"prefilter": False},
}

#: The full backend matrix: the engine configurations above plus every
#: baseline.
BACKENDS: Dict[str, Callable[[Query, Series], MatchSet]] = {
    **{label: _engine_backend(overrides)
       for label, overrides in TREX_BACKENDS.items()},
    "trex-batch": _baseline_backend("trex-batch", True),
    "afa": _baseline_backend("afa", True),
    "afa:off": _baseline_backend("afa", False),
    "nested-afa": _baseline_backend("nested-afa", True),
    "zstream": _baseline_backend("zstream", True),
    "opencep": _baseline_backend("opencep", True),
}

#: Backends checked on every case; the rest rotate in by case index.
CORE_BACKENDS = ("trex:cost:auto", "trex:cost:on", "trex:cost:off",
                 "trex:pr_left", "trex:process", "trex:novec",
                 "trex:noprefilter",
                 "trex-batch", "afa", "zstream")
ROTATING_BACKENDS = ("trex:pr_right", "trex:sm_left", "trex:sm_right",
                     "afa:off", "nested-afa", "opencep")


@dataclass
class Discrepancy:
    """One surviving disagreement between a backend and the oracle."""

    kind: str            # "oracle" or "metamorphic:<relation>"
    backend: str         # backend label, or relation detail
    query: str
    tstamps: List[float]
    values: List[float]
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "backend": self.backend,
                "query": self.query,
                "series": {"tstamp": encode_values(self.tstamps),
                           "val": encode_values(self.values)},
                "detail": self.detail}


def oracle_check(query: Query, query_text: str, tstamps: Sequence[float],
                 values: Sequence[float],
                 backends: Sequence[str] = CORE_BACKENDS) \
        -> List[Discrepancy]:
    """Diff every backend's match set against the brute-force matcher.

    AFA-family executors that reject a query because a reference is not
    available in pattern order are skipped: evaluating conditions eagerly
    in syntactic order is the documented capability gap of the modeled
    NFA systems (docs/FUZZING.md), not a bug.
    """
    series = build_series(tstamps, values)
    try:
        expected = tuple(sorted(BruteForceMatcher(query)
                                .match_series(series)))
    except Exception as exc:  # any crash is a finding, never a campaign end
        return [Discrepancy("oracle", "brute", query_text, list(tstamps),
                            list(values),
                            f"brute-force raised {type(exc).__name__}: "
                            f"{exc}")]
    found: List[Discrepancy] = []
    for label in backends:
        runner = BACKENDS[label]
        try:
            got = runner(query, series)
        except ExecutionError as exc:
            if label.startswith(("afa", "nested-afa")) \
                    and _PATTERN_ORDER_GAP in str(exc):
                continue
            found.append(Discrepancy(
                "oracle", label, query_text, list(tstamps), list(values),
                f"raised {type(exc).__name__}: {exc}"))
            continue
        except Exception as exc:  # crashes are findings too (e.g. the
            # pre-fix mann_kendall int(NaN) ValueError)
            found.append(Discrepancy(
                "oracle", label, query_text, list(tstamps), list(values),
                f"raised {type(exc).__name__}: {exc}"))
            continue
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            found.append(Discrepancy(
                "oracle", label, query_text, list(tstamps), list(values),
                f"missing={missing} extra={extra} (brute={list(expected)})"))
    return found


# ---------------------------------------------------------------------------
# Scalar/vector deep-equality oracle
# ---------------------------------------------------------------------------

#: Names outside the byte-identical contract.  Of ``OpMetrics.to_dict``:
#: the plan-construction serial, the two wall times, and the leaf's
#: evaluation *strategy* (batch vs scalar calls), which is exactly what
#: the toggles under test change.  Of the run counters: whether a
#: touched aggregate index was found resident on its series or built —
#: the cache, not the work; reported on ``QueryResult.prefilter``, never
#: in per-series ``stats``.  Nothing else is excluded
#: (docs/ENGINE_CONTRACTS.md; tests/test_fuzz.py pins the set).
SNAPSHOT_EXCLUDED = ("op_id", "time_seconds", "self_seconds", "strategy",
                     "aggindex_built", "aggindex_cached")


def _metrics_snapshot(metrics: object) -> Optional[List[Dict[str, object]]]:
    """Per-operator metrics minus :data:`SNAPSHOT_EXCLUDED`.

    Each engine construction compiles its own plan, so raw ``op_id``
    values differ between the scalar and vector runs; ``to_list`` orders
    by op_id and plan construction is deterministic, so position ``i``
    is the same operator in both trees.
    """
    if metrics is None:
        return None
    out: List[Dict[str, object]] = []
    for rec in metrics.to_list():  # type: ignore[attr-defined]
        out.append({key: value for key, value in rec.items()
                    if key not in SNAPSHOT_EXCLUDED})
    return out


def _result_snapshot(result: object) -> Dict[str, object]:
    entries = []
    for entry in result.per_series:  # type: ignore[attr-defined]
        err = None
        if entry.error is not None:
            err = (entry.error.error, entry.error.message,
                   entry.error.kind, entry.error.partial)
        entries.append({
            "matches": tuple(entry.matches),
            "stats": tuple(sorted(entry.stats.items())),
            "metrics": _metrics_snapshot(entry.metrics),
            "error": err,
        })
    return {"series": entries,
            "plan": result.plan_explain,  # type: ignore[attr-defined]
            "interrupted": result.interrupted,  # type: ignore[attr-defined]
            "degradation": result.degradation}  # type: ignore[attr-defined]


def _first_diff(scalar: object, vector: object, path: str = "") -> str:
    """Human-readable pointer at the first differing component."""
    if type(scalar) is not type(vector):
        return f"{path or 'result'}: {scalar!r} != {vector!r}"
    if isinstance(scalar, dict):
        for key in scalar:
            if scalar[key] != vector.get(key):  # type: ignore[union-attr]
                return _first_diff(scalar[key],
                                   vector.get(key),  # type: ignore[union-attr]
                                   f"{path}.{key}" if path else str(key))
        return f"{path or 'result'}: differing keys"
    if isinstance(scalar, (list, tuple)):
        for i, (a, b) in enumerate(zip(scalar, vector)):
            if a != b:
                return _first_diff(a, b, f"{path}[{i}]")
        return (f"{path or 'result'}: length {len(scalar)} != "
                f"{len(vector)}")  # type: ignore[arg-type]
    return f"{path or 'result'}: {scalar!r} != {vector!r}"


def _deep_run(query: Query, series: Series,
              **options: object) -> Tuple[object, object]:
    """``(snapshot, result)`` of one analyzed, error-isolating serial
    run; a crash is a finding, so it comes back as the snapshot."""
    try:
        result = TRexEngine(executor="serial", analyze=True,
                            on_error="partial",
                            **options).execute_query(query, [series])
        return _result_snapshot(result), result
    except Exception as exc:  # crashes are findings too
        return ("raised", type(exc).__name__, str(exc)), None


def _stats_snapshot(query: Query, series: Series,
                    **options: object) -> object:
    """The cost-based planner's sampled statistics over ``series``, bit
    for bit (``float.hex``); a crash before sampling is the snapshot."""
    planner = CostBasedPlanner(**options)
    try:
        planner.plan(query, None, [series])
    except Exception as exc:  # crashes are findings too
        if planner.last_stats is None:
            return ("raised", type(exc).__name__, str(exc))
    stats = planner.last_stats
    return (stats.series_length, tuple(
        (name, entry.selectivity.hex(), entry.avg_length.hex(),
         entry.samples) for name, entry in stats.variables.items()))


def vector_check(query: Query, query_text: str, tstamps: Sequence[float],
                 values: Sequence[float]) -> List[Discrepancy]:
    """Deep-diff scalar vs. vector execution of the same query.

    Stronger than the match-set oracle: the whole observable result —
    matches, per-series stats counters, EXPLAIN ANALYZE per-operator
    metrics (sans wall times), structured error records and degradation
    state — must be identical under both sharing policies, because the
    vector kernels promise byte-identical ``QueryResult`` contents, not
    just equal match sets; and so must the planner's sampled statistics,
    bit for bit, which the same kernels evaluate.
    """
    series = build_series(tstamps, values)
    found: List[Discrepancy] = []
    for sharing in ("on", "off"):
        snaps = {vectorize: {
            "result": _deep_run(query, series, sharing=sharing,
                                vectorize=vectorize)[0],
            "stats": _stats_snapshot(query, series, sharing=sharing,
                                     vectorize=vectorize)}
            for vectorize in (False, True)}
        if snaps[False] != snaps[True]:
            found.append(Discrepancy(
                "vector", f"sharing={sharing}", query_text,
                list(tstamps), list(values),
                _first_diff(snaps[False], snaps[True])))
    return found


# ---------------------------------------------------------------------------
# Prefilter no-false-dismissal oracle
# ---------------------------------------------------------------------------

def _parity_slice(snap: Dict[str, object]) -> Dict[str, object]:
    """The always-identical part of a result snapshot.

    Matches, structured error records, the plan text and degradation
    state must agree between prefilter-on and prefilter-off runs no
    matter what was pruned; stats and per-operator metrics measure the
    *work performed*, which pruning exists to reduce, so those are only
    compared when the prefilter made no decision (docs/PREFILTER.md).
    """
    return {
        "series": [{"matches": e["matches"], "error": e["error"]}
                   for e in snap["series"]],  # type: ignore[union-attr]
        "plan": snap["plan"],
        "interrupted": snap["interrupted"],
        "degradation": snap["degradation"],
    }


def prefilter_check(query: Query, query_text: str, tstamps: Sequence[float],
                    values: Sequence[float]) -> List[Discrepancy]:
    """Differential no-false-dismissal oracle: prefilter on vs. off.

    Three nested guarantees, strongest applicable wins:

    * the symbolic index must be *sound* for the series — every block's
      envelope brackets the exact block min/max
      (:meth:`repro.index.summary.SeriesSummary.validate`);
    * matches, error records, plan text and degradation state must be
      byte-identical between the two runs, always;
    * when the prefilter made no pruning decision (nothing skipped or
      narrowed) the *entire* snapshot — stats counters and per-operator
      metrics included — must be byte-identical, because an inert
      prefilter promises a bit-for-bit classic run.
    """
    series = build_series(tstamps, values)
    found: List[Discrepancy] = []
    try:
        from repro.index.summary import build_summary
        build_summary(series).validate(series)
    except Exception as exc:  # soundness violations are the headline bug
        found.append(Discrepancy(
            "prefilter", "envelope", query_text, list(tstamps),
            list(values),
            f"index envelope unsound: {type(exc).__name__}: {exc}"))
    off, _ = _deep_run(query, series, prefilter=False)
    on, result = _deep_run(query, series, prefilter=True)
    report = getattr(result, "prefilter", None)  # None: crash, empty series
    pruned = bool(report and (report["series_skipped"]
                              or report["series_narrowed"]))
    if isinstance(off, dict) and isinstance(on, dict) and pruned:
        off, on = _parity_slice(off), _parity_slice(on)
    if off != on:
        found.append(Discrepancy(
            "prefilter", f"pruned={pruned}", query_text,
            list(tstamps), list(values), _first_diff(off, on)))
    return found


# ---------------------------------------------------------------------------
# Cold-vs-warm oracle (resident derived state)
# ---------------------------------------------------------------------------

def warm_check(query: Query, query_text: str, tstamps: Sequence[float],
               values: Sequence[float]) -> List[Discrepancy]:
    """The ``trex:warm`` side: the default configuration run twice on
    the *same* :class:`Series` object.

    The first run builds the series' summary, aggregate indexes and
    the planner's drawn samples, the second finds them resident; the
    whole snapshot must not move (docs/PREFILTER.md, "Resident state"),
    and neither may the planner's statistics between a cold and a warm
    sampling of one series.
    """
    series, sampled = (build_series(tstamps, values) for _ in range(2))
    cold, warm = ({"result": _deep_run(query, series)[0],
                   "stats": _stats_snapshot(query, sampled)}
                  for _ in range(2))
    if cold == warm:
        return []
    return [Discrepancy("warm", "trex:warm", query_text, list(tstamps),
                        list(values), _first_diff(cold, warm))]


# ---------------------------------------------------------------------------
# Metamorphic relations
# ---------------------------------------------------------------------------

def _run_text(query_text: str, series: Series) -> MatchSet:
    query = compile_query(query_text)
    result = TRexEngine(optimizer="cost", sharing="on") \
        .execute_query(query, [series])
    return tuple(sorted(result.per_series[0].matches))


def metamorphic_check(spec: object, tstamps: Sequence[float],
                      values: Sequence[float]) -> List[Discrepancy]:
    """Run every applicable metamorphic relation on the spec.

    Relations (docs/FUZZING.md):

    * ``window-tighten`` — tightening an outer window conjunct can only
      shrink the match set;
    * ``or-commute`` — ``P | Q`` and ``Q | P`` match identically;
    * ``double-not`` — ``~~P`` is a superset of ``P`` (equality can be
      broken by window embedding, the superset direction cannot);
    * ``prefix-extend`` — appending points to the series preserves the
      matches that end strictly before the appended suffix (skipped for
      queries whose aggregates read series context, e.g. zscore_outlier).
    """
    found: List[Discrepancy] = []
    series = build_series(tstamps, values)
    base_text = render_query(spec)
    try:
        base = _run_text(base_text, series)
    except TRexError:
        return found  # oracle_check owns crash reporting

    def record(relation: str, variant_text: str, detail: str) -> None:
        found.append(Discrepancy(f"metamorphic:{relation}", relation,
                                 base_text, list(tstamps), list(values),
                                 f"{detail}; variant:\n{variant_text}"))

    # window-tighten: outer `P & W(lo, hi)` conjunct, if present.
    tight = _tightened(spec)
    if tight is not None:
        variant_text = render_query(tight)
        try:
            got = _run_text(variant_text, series)
            if not set(got) <= set(base):
                record("window-tighten", variant_text,
                       f"tightened window gained matches "
                       f"{sorted(set(got) - set(base))}")
        except TRexError as exc:
            record("window-tighten", variant_text,
                   f"variant raised {type(exc).__name__}: {exc}")

    # or-commute: root-level alternation.
    if isinstance(spec, SNode) and spec.kind == "or":
        swapped = spec.clone()
        swapped.parts.reverse()
        variant_text = render_query(swapped)
        try:
            got = _run_text(variant_text, series)
            if got != base:
                record("or-commute", variant_text,
                       f"swap changed matches: {list(got)} vs {list(base)}")
        except TRexError as exc:
            record("or-commute", variant_text,
                   f"variant raised {type(exc).__name__}: {exc}")

    # double-not: ~~P >= P.
    doubled = SNode("not", [SNode("not", [spec.clone()])])
    variant_text = render_query(doubled)
    try:
        got = _run_text(variant_text, series)
        if not set(base) <= set(got):
            record("double-not", variant_text,
                   f"~~P lost matches {sorted(set(base) - set(got))}")
    except TRexError:
        pass  # ~~P may exceed planner support for some shapes; not a bug

    # prefix-extend: append two calm points; interior matches must agree.
    if values and "zscore_outlier" not in base_text:
        last_t = tstamps[-1]
        ext_t = list(tstamps) + [last_t + 1.0, last_t + 2.0]
        ext_v = list(values) + [0.0, 1.0]
        variant = build_series(ext_t, ext_v)
        n = len(values)
        try:
            got = _run_text(base_text, variant)
            interior = tuple(m for m in got if m[1] < n)
            if interior != base:
                record("prefix-extend", base_text,
                       f"extension changed interior matches: "
                       f"{list(interior)} vs {list(base)}")
        except TRexError as exc:
            record("prefix-extend", base_text,
                   f"extended series raised {type(exc).__name__}: {exc}")
    return found


def _tightened(spec: object) -> Optional[object]:
    """Clone with the first outer window conjunct tightened, if any."""
    if not (isinstance(spec, SNode) and spec.kind == "and"):
        return None
    clone = spec.clone()
    for part in clone.parts:
        if isinstance(part, SVar) and part.cond.startswith("window("):
            inside = part.cond[len("window("):-1]
            lo_text, hi_text = [s.strip() for s in inside.split(",")]
            lo = int(float(lo_text))
            if hi_text == "null":
                part.cond = f"window({lo + 1}, {lo + 3})"
            else:
                hi = int(float(hi_text))
                if lo + 1 > hi:
                    return None
                part.cond = f"window({lo + 1}, {hi})"
            return clone
    return None


# ---------------------------------------------------------------------------
# Delta-debugging minimizer
# ---------------------------------------------------------------------------

def _compiles(spec: object) -> Optional[str]:
    """Query text when the spec compiles, else None."""
    try:
        text = render_query(spec)
        compile_query(text)
        return text
    except (TRexError, ValueError, IndexError):
        return None


def _spec_candidates(spec: object) -> Iterator[object]:
    """Structurally smaller variants, deterministic order.

    Tries, at every composite node: replacing the node by each child,
    dropping one part from wide composites, stripping quantifiers; and at
    every leaf: relaxing the condition to ``true``.
    """
    def rebuild(path: Tuple[int, ...], replacement: object) -> object:
        def walk(node: object, depth: int) -> object:
            if depth == len(path):
                return replacement
            assert isinstance(node, SNode)
            parts = [walk(p, depth + 1) if i == path[depth] else p.clone()
                     for i, p in enumerate(node.parts)]
            return SNode(node.kind, parts, node.quant)
        return walk(spec, 0)

    def visit(node: object, path: Tuple[int, ...]) -> Iterator[object]:
        if isinstance(node, SVar):
            if node.cond != "true":
                relaxed = node.clone()
                relaxed.cond = "true"
                yield rebuild(path, relaxed)
            return
        for i, part in enumerate(node.parts):
            yield rebuild(path, part.clone())
            if len(node.parts) > 2:
                shrunk = node.clone()
                del shrunk.parts[i]
                yield rebuild(path, shrunk)
        if node.kind == "kleene" and node.quant not in ("{1}",):
            collapsed = node.clone()
            collapsed.quant = "{1}"
            yield rebuild(path, collapsed)
        for i, part in enumerate(node.parts):
            yield from visit(part, path + (i,))

    yield from visit(spec, ())


def _series_candidates(tstamps: List[float], values: List[float]) \
        -> Iterator[Tuple[List[float], List[float]]]:
    """Shorter/simpler series variants, deterministic order."""
    n = len(values)
    chunk = n // 2
    while chunk >= 1:
        for at in range(0, n, chunk):
            keep = [i for i in range(n) if not (at <= i < at + chunk)]
            yield [tstamps[i] for i in keep], [values[i] for i in keep]
        chunk //= 2
    for i in range(n):
        if values[i] != 0.0:
            simpler = list(values)
            simpler[i] = 0.0
            yield list(tstamps), simpler
    canon = [float(i) for i in range(n)]
    if tstamps != canon:
        yield canon, list(values)


def minimize_case(spec: object, tstamps: Sequence[float],
                  values: Sequence[float],
                  still_fails: Callable[[object, List[float], List[float]],
                                        bool],
                  max_steps: int = 400) \
        -> Tuple[object, List[float], List[float]]:
    """Greedy delta debugging over the spec tree and the series.

    ``still_fails(spec, tstamps, values)`` re-runs the original check;
    candidates that stop failing (or stop compiling) are discarded.  The
    pass order is fixed, so minimization is deterministic for a given
    failing case.  Returns the smallest reproducer reached within
    ``max_steps`` predicate evaluations.
    """
    best = (spec.clone(), list(tstamps), list(values))
    steps = 0
    progress = True
    while progress and steps < max_steps:
        progress = False
        for candidate in _spec_candidates(best[0]):
            if steps >= max_steps:
                break
            if _compiles(candidate) is None:
                continue
            steps += 1
            if still_fails(candidate, best[1], best[2]):
                best = (candidate, best[1], best[2])
                progress = True
                break
        for cand_t, cand_v in _series_candidates(best[1], best[2]):
            if steps >= max_steps:
                break
            steps += 1
            if still_fails(best[0], cand_t, cand_v):
                best = (best[0], cand_t, cand_v)
                progress = True
                break
    return best


# ---------------------------------------------------------------------------
# Corpus serialization
# ---------------------------------------------------------------------------

def encode_values(values: Sequence[float]) -> List[object]:
    """JSON-safe value list: non-finite floats become strings."""
    out: List[object] = []
    for v in values:
        f = float(v)
        if math.isnan(f):
            out.append("nan")
        elif math.isinf(f):
            out.append("inf" if f > 0 else "-inf")
        else:
            out.append(f)
    return out


def decode_values(values: Sequence[object]) -> List[float]:
    return [float(v) for v in values]


def case_to_json(query_text: str, tstamps: Sequence[float],
                 values: Sequence[float], kind: str, detail: str,
                 seed: Optional[int] = None) -> Dict[str, object]:
    return {
        "query": query_text,
        "series": {"tstamp": encode_values(tstamps),
                   "val": encode_values(values)},
        "time_unit": "DAY",
        "kind": kind,
        "detail": detail,
        "seed": seed,
    }


def case_name(case: Dict[str, object]) -> str:
    blob = json.dumps({"query": case["query"], "series": case["series"]},
                      sort_keys=True)
    digest = hashlib.sha1(blob.encode()).hexdigest()[:10]
    kind = str(case["kind"]).split(":")[0]
    return f"{kind}_{digest}.json"


def replay_case(case: Dict[str, object],
                backends: Sequence[str] = CORE_BACKENDS) \
        -> List[Discrepancy]:
    """Re-run a corpus case through the oracle matrix."""
    query_text = str(case["query"])
    series = case["series"]  # type: ignore[assignment]
    tstamps = decode_values(series["tstamp"])  # type: ignore[index]
    values = decode_values(series["val"])  # type: ignore[index]
    query = compile_query(query_text)
    found = oracle_check(query, query_text, tstamps, values,
                         backends=backends)
    if str(case.get("kind", "")).startswith("vector"):
        # Vector divergences can hide in stats/metrics while match sets
        # agree; replay those cases through the deep-equality oracle.
        found.extend(vector_check(query, query_text, tstamps, values))
    if str(case.get("kind", "")).startswith("prefilter"):
        found.extend(prefilter_check(query, query_text, tstamps, values))
    if str(case.get("kind", "")).startswith("warm"):
        found.extend(warm_check(query, query_text, tstamps, values))
    return found


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

@dataclass
class FuzzReport:
    """Aggregate result of one fuzzing campaign."""

    seed: int
    queries_generated: int = 0
    queries_rejected: int = 0
    cases_checked: int = 0
    oracle_checks: int = 0
    metamorphic_checks: int = 0
    vector_checks: int = 0
    prefilter_checks: int = 0
    warm_checks: int = 0
    discrepancies: List[Discrepancy] = field(default_factory=list)
    minimized: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "queries_generated": self.queries_generated,
            "queries_rejected": self.queries_rejected,
            "cases_checked": self.cases_checked,
            "oracle_checks": self.oracle_checks,
            "metamorphic_checks": self.metamorphic_checks,
            "vector_checks": self.vector_checks,
            "prefilter_checks": self.prefilter_checks,
            "warm_checks": self.warm_checks,
            "discrepancies": [d.to_dict() for d in self.discrepancies],
            "minimized": self.minimized,
        }


def _minimize_discrepancy(spec: object, disc: Discrepancy,
                          report: FuzzReport) -> Dict[str, object]:
    kind = disc.kind

    def still_fails(cand: object, tstamps: List[float],
                    values: List[float]) -> bool:
        text = _compiles(cand)
        if text is None:
            return False
        try:
            if kind == "oracle":
                return bool(oracle_check(compile_query(text), text,
                                         tstamps, values))
            if kind == "vector":
                return bool(vector_check(compile_query(text), text,
                                         tstamps, values))
            if kind == "prefilter":
                return bool(prefilter_check(compile_query(text), text,
                                            tstamps, values))
            if kind == "warm":
                return bool(warm_check(compile_query(text), text,
                                       tstamps, values))
            failures = metamorphic_check(cand, tstamps, values)
            return any(f.kind == kind for f in failures)
        except TRexError:
            return False

    small_spec, small_t, small_v = minimize_case(
        spec, disc.tstamps, disc.values, still_fails)
    case = case_to_json(render_query(small_spec), small_t, small_v,
                        disc.kind, disc.detail, seed=report.seed)
    return case


def run_fuzz(queries: int = 100, seed: int = 0, series_per_query: int = 3,
             max_nodes: int = 6, minimize: bool = True,
             on_case: Optional[Callable[[int], None]] = None) -> FuzzReport:
    """Run one fuzzing campaign; see ``repro fuzz --help``."""
    rng = random.Random(seed)
    qgen = QueryGen(rng, max_nodes=max_nodes)
    sgen = SeriesGen(rng)
    # Boundary-biased generator for the scalar/vector oracle: heavier
    # NaN poisoning and more n in {0, 1, 2} degenerate series.
    vgen = SeriesGen(rng, nan_bias=0.3, tiny_bias=0.35)
    # Long-series generator for the prefilter oracle: series spanning
    # several symbolic-index blocks so skip *and* narrow decisions both
    # fire (short fuzz series fit one block and only exercise skip).
    pgen = SeriesGen(rng, max_len=220)
    report = FuzzReport(seed=seed)
    produced = 0
    attempts = 0
    while produced < queries and attempts < queries * 10:
        attempts += 1
        report.queries_generated += 1
        spec = qgen.generate()
        text = _compiles(spec)
        if text is None:
            report.queries_rejected += 1
            continue
        query = compile_query(text)
        produced += 1
        if on_case is not None:
            on_case(produced)
        backends = list(CORE_BACKENDS)
        backends.append(ROTATING_BACKENDS[produced % len(ROTATING_BACKENDS)])
        def settle(failures: List[Discrepancy]) -> None:
            for disc in failures:
                report.discrepancies.append(disc)
                if minimize:
                    report.minimized.append(
                        _minimize_discrepancy(spec, disc, report))

        for _ in range(series_per_query):
            tstamps, values = sgen.generate()
            report.cases_checked += 1
            report.oracle_checks += len(backends)
            failures = oracle_check(query, text, tstamps, values,
                                    backends=backends)
            report.metamorphic_checks += 1
            failures.extend(metamorphic_check(spec, tstamps, values))
            report.vector_checks += 1
            failures.extend(vector_check(query, text, tstamps, values))
            report.prefilter_checks += 1
            failures.extend(prefilter_check(query, text, tstamps, values))
            report.warm_checks += 1
            failures.extend(warm_check(query, text, tstamps, values))
            settle(failures)
        # One extra boundary-biased series per query, deep-checked only.
        tstamps, values = vgen.generate()
        report.cases_checked += 1
        report.vector_checks += 1
        settle(vector_check(query, text, tstamps, values))
        # And one multi-block series through the prefilter differential
        # oracle, where narrow decisions become reachable.
        tstamps, values = pgen.generate()
        report.cases_checked += 1
        report.prefilter_checks += 1
        failures = prefilter_check(query, text, tstamps, values)
        report.warm_checks += 1
        failures.extend(warm_check(query, text, tstamps, values))
        settle(failures)
    return report
