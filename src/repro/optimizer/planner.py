"""Cost-based dynamic-programming planner (Section 5).

The planner searches the complete plan space — including bushy plans — by:

* subset DP over ``And`` chains (conjunction is commutative/associative),
* interval DP over ``Concat`` chains (order fixed, bracketing free),
* per-node physical operator selection (Sort-Merge vs Left/Right-Probe,
  MaterializeNot vs ProbeNot, SegGenFilter vs SegGenIndexing, WConcat
  fusion),

with the cardinality and cost models of Table 1 (one function per operator
family in :mod:`repro.optimizer.costmodel`) evaluated on search-space
*range sizes* and query-time sampled selectivities.  Reference dependencies
are honoured: a probed side may consume references bound by its anchor;
otherwise conditions lift into Filters (Figure 6) whose cost and
selectivity the model accounts for.  :meth:`CostBasedPlanner.price` applies
the same functions to a plan that is already built.

``allow_probes=False`` yields the paper's "T-ReX Batch" executor
(Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlanError
from repro.testing import faults as _faults
from repro.exec.and_or import SortMergeOr
from repro.exec.base import PhysicalOperator
from repro.exec.concat import WildWindowConcat
from repro.exec.filter_op import FilterOp
from repro.exec.not_op import MaterializeNot
from repro.exec.seggen import SegGenFilter, SegGenIndexing, SegGenWindow
from repro.exec.vector import compiles_statically
from repro.lang.query import Query, VarDef
from repro.lang.windows import WindowConjunction
from repro.optimizer import costmodel as CM
from repro.optimizer.construct import (AND_OPS, CONCAT_OPS, LEAF_FILTER,
                                       LEAF_INDEXING, LEFT_PROBE,
                                       NOT_MATERIALIZE, NOT_PROBE,
                                       RIGHT_PROBE, SORT_MERGE, BuildResult,
                                       Construction, validate_scoping,
                                       var_is_indexable)
from repro.optimizer.cost_params import DEFAULT_COST_PARAMS, CostParams
from repro.optimizer.stats import (StatsCatalog, check_deadlines,
                                   collect_stats)
from repro.plan.logical import (LAnd, LConcat, LKleene, LNot, LOr, LVar,
                                LogicalNode, build_logical_plan)
from repro.timeseries.series import Series

@dataclass(frozen=True)
class PendingLift:
    """Cost-model view of a condition lifted out of an unfiltered leaf."""

    owner: str
    per_row_cost: float
    selectivity: float
    needed: FrozenSet[str]


@dataclass
class Candidate:
    """One costed plan alternative for a logical (sub-)node."""

    cost: float
    out_card: float
    pending: Tuple[PendingLift, ...]
    provides_publish: FrozenSet[str]
    build: Callable[[], BuildResult]

    @property
    def estimate(self) -> CM.Estimate:
        return self.cost, self.out_card


class CostBasedPlanner:
    """Dynamic-programming plan search with the Table 1 cost model."""

    def __init__(self, allow_probes: bool = True, sharing: str = "auto",
                 params: CostParams = DEFAULT_COST_PARAMS,
                 num_series: int = 5, segments_per_var: int = 64,
                 seed: int = 7, use_wconcat: bool = True,
                 vectorize: bool = True):
        self.allow_probes = allow_probes
        self.sharing = sharing
        self.params = params
        self.num_series = num_series
        self.segments_per_var = segments_per_var
        self.seed = seed
        self.use_wconcat = use_wconcat
        #: ``EngineConfig.vectorize``: ``False`` pins sampling to the
        #: scalar loop (the same statistics, so the same plans).
        self.vectorize = vectorize
        # Populated per plan() call.
        self._stats: Optional[StatsCatalog] = None
        self._series: Optional[Series] = None
        self._n = 0
        self._query: Optional[Query] = None
        self._construction: Optional[Construction] = None
        self._memo: Dict[tuple, Candidate] = {}
        self._bounds_cache: Dict[int, CM.Bounds] = {}
        self._window_cache: Dict[int, Tuple[WindowConjunction,
                                            CM.Bounds]] = {}
        self._relaxed: Dict[int, WindowConjunction] = {}
        self._leaf_costs: Dict[tuple, Tuple[float, float, float, bool]] = {}
        self.last_estimated_cost: float = 0.0
        self.last_stats: Optional[StatsCatalog] = None
        # Absolute perf_counter() budgets for one plan() call; the DP
        # consults them every _BUDGET_STRIDE _optimize() entries so a
        # pathological search cannot outlive the engine's deadline.
        self._deadline: Optional[float] = None
        self._planning_deadline: Optional[float] = None
        self._budget_ticks = 0

    #: _optimize() entries between deadline checks.
    _BUDGET_STRIDE = 64

    # -- entry points ---------------------------------------------------------

    def plan(self, query: Query, logical: Optional[LogicalNode],
             series, deadline: Optional[float] = None,
             planning_deadline: Optional[float] = None) -> PhysicalOperator:
        if logical is None:
            logical = build_logical_plan(query)
        validate_scoping(query, logical)
        series_list = [series] if isinstance(series, Series) else list(series)
        if not series_list:
            raise PlanError("planner needs at least one series")
        candidate = self.optimize(query, logical, series_list,
                                  deadline=deadline,
                                  planning_deadline=planning_deadline)
        result = candidate.build()
        result = self._construction.apply_filter(result, logical.window)
        if result.lifted:
            raise PlanError("unresolvable lifted conditions remain at root")
        if result.op.requires:
            raise PlanError(f"plan root still requires "
                            f"{sorted(result.op.requires)}")
        from repro.analysis.plan_verify import reference_flow
        violations = reference_flow(result.op)
        if violations:
            raise PlanError("invalid physical plan: "
                            + "; ".join(diag.message for diag in violations))
        return result.op

    def optimize(self, query: Query, logical: LogicalNode,
                 series_list: Sequence[Series],
                 deadline: Optional[float] = None,
                 planning_deadline: Optional[float] = None) -> Candidate:
        """Run the DP and return the best root candidate (with its cost)."""
        if _faults.ENABLED:
            _faults.fire("planner.dp")
        self._deadline = deadline
        self._planning_deadline = planning_deadline
        self._budget_ticks = 0
        self._query = query
        self._stats = collect_stats(
            query, series_list, num_series=self.num_series,
            segments_per_var=self.segments_per_var, seed=self.seed,
            use_index=self.sharing != "off",
            deadline=deadline, planning_deadline=planning_deadline,
            vectorize=self.vectorize)
        self.last_stats = self._stats
        rng = np.random.default_rng(self.seed)
        index = int(rng.integers(0, len(series_list)))
        self._series = series_list[index]
        self._n = max(self._stats.series_length, 2)
        self._construction = Construction(
            query, sharing="off" if self.sharing == "off" else "on")
        self._memo = {}
        self._bounds_cache = {}
        self._window_cache = {}
        self._relaxed = {}
        self._leaf_costs = {}
        candidate = self._optimize(logical, float(self._n), float(self._n),
                                   frozenset())
        # Account for any filter applied at the very root.
        if candidate.pending:
            cost, card = CM.filter_estimate(
                candidate.estimate,
                [(lift.per_row_cost, lift.selectivity)
                 for lift in candidate.pending])
            candidate = Candidate(cost, card, (), candidate.provides_publish,
                                  candidate.build)
        self.last_estimated_cost = candidate.cost
        return candidate

    def price(self, plan: PhysicalOperator) -> float:
        """The DP's estimated cost of a built plan for the query of the last
        :meth:`optimize` call — its own choice or any rule-based plan.

        Walks the plan top-down with the DP's range sizes and calls the
        same :mod:`~repro.optimizer.costmodel` functions on that call's
        statistics and sample series.  Where the DP sizes a probe join from
        the probed side's cardinality over the full space, a side the plan
        does not contain, it is the DP's own estimate for that side.
        ``price(plan(...)) == last_estimated_cost``.
        """
        return self._price(plan, float(self._n), float(self._n),
                           frozenset())[0]

    # -- shared helpers -------------------------------------------------------

    def _duration_bounds(self, node: LogicalNode) -> CM.Bounds:
        bounds = self._bounds_cache.get(node.node_id)
        if bounds is None:
            bounds = CM.node_duration_bounds(node, self._series)
            self._bounds_cache[node.node_id] = bounds
        return bounds

    def _window_bounds(self, window: WindowConjunction) -> CM.Bounds:
        # Keyed by identity; the entry keeps the window alive.
        hit = self._window_cache.get(id(window))
        if hit is None:
            hit = self._window_cache[id(window)] = (
                window, CM.window_duration_bounds(window, self._series))
        return hit[1]

    def _sel_w(self, window: WindowConjunction, ls: float, le: float,
               lse: float) -> float:
        return max(CM.boxed_pair_fraction(ls, le, lse,
                                          self._window_bounds(window)),
                   1e-9)

    def _space(self, window: WindowConjunction, ls: float,
               le: float) -> Tuple[float, float, float]:
        """``(ℓ_se, Sel_w, admissible segments)`` of a boxed space."""
        lse = CM.lse_estimate(ls, le, self._n)
        sel_w = self._sel_w(window, ls, le, lse)
        return lse, sel_w, max(ls * le * sel_w, CM.MIN_CARD)

    def _interval_bounds(self, node: LConcat, i: int, j: int) -> CM.Bounds:
        """Duration bounds of ``parts[i..j]`` of a Concat chain."""
        lo = 0.0
        hi = 0.0
        for k in range(i, j + 1):
            part_lo, part_hi = self._duration_bounds(node.parts[k])
            lo += part_lo
            hi += part_hi
            if k < j:
                lo += node.gaps[k]
                hi += node.gaps[k]
        return lo, hi

    @staticmethod
    def _probes_reused(node: LConcat, i: int, j: int,
                       anchor_publish: FrozenSet[str]) -> bool:
        """Whether probes of ``parts[i..j]`` are reusable across anchors
        (the ``D()`` caching discount): not when the interval consumes
        references the anchor binds (Section 5.1)."""
        provides: set = set()
        needs: set = set()
        for k in range(i, j + 1):
            provides |= node.parts[k].provides
            needs |= node.parts[k].requires
        return not (needs - provides) & anchor_publish

    def _lift(self, var: VarDef, lse: float) -> Tuple[float, float]:
        """``(per-row cost, selectivity)`` of a lifted condition."""
        return (self._leaf_eval_costs(var, lse)[0],
                self._stats.selectivity(var.name))

    def _resolve_pending(self, candidate: Candidate,
                         available: FrozenSet[str],
                         window) -> Candidate:
        """Fold resolvable lifted conditions into a Filter cost-wise and
        construction-wise."""
        if not candidate.pending:
            return candidate
        bound = candidate.provides_publish | available
        ready = [p for p in candidate.pending if p.needed <= bound]
        if not ready:
            return candidate
        waiting = tuple(p for p in candidate.pending if not p.needed <= bound)
        cost, card = CM.filter_estimate(
            candidate.estimate,
            [(lift.per_row_cost, lift.selectivity) for lift in ready])
        construction = self._construction
        inner_build = candidate.build

        def build() -> BuildResult:
            return construction.maybe_resolve_lifts(inner_build(), available,
                                                    window)

        return Candidate(cost, card, waiting, candidate.provides_publish,
                         build)

    # -- the DP --------------------------------------------------------------

    def _optimize(self, node: LogicalNode, ls: float, le: float,
                  available: FrozenSet[str]) -> Candidate:
        self._budget_ticks += 1
        if self._budget_ticks % self._BUDGET_STRIDE == 0 and (
                self._deadline is not None
                or self._planning_deadline is not None):
            check_deadlines(self._deadline, self._planning_deadline,
                            where="cost-based DP")
        key = (node.node_id, int(ls), int(le), available)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if isinstance(node, LVar):
            candidate = self._optimize_leaf(node, ls, le, available)
        elif isinstance(node, LAnd):
            candidate = self._solve_and(node, frozenset(range(len(
                node.parts))), ls, le, available)
        elif isinstance(node, LConcat):
            candidate = self._solve_concat(node, 0, len(node.parts) - 1,
                                           ls, le, available)
        elif isinstance(node, LOr):
            candidate = self._optimize_or(node, ls, le, available)
        elif isinstance(node, LNot):
            candidate = self._optimize_not(node, ls, le, available)
        elif isinstance(node, LKleene):
            candidate = self._optimize_kleene(node, ls, le, available)
        else:
            raise PlanError(f"unknown logical node {node!r}")
        self._memo[key] = candidate
        return candidate

    # -- leaves --------------------------------------------------------------

    def _leaf_eval_costs(self, var: VarDef,
                         lse: float) -> Tuple[float, float, float, bool]:
        """(direct per-row, index build, indexed per-row, indexable),
        memoised per ``(variable, ℓ_se)`` within one plan() call."""
        key = (var.name, lse)
        if key in self._leaf_costs:
            return self._leaf_costs[key]
        params = self.params
        registry = self._query.registry
        avg_len = self._stats.avg_length(var.name)
        direct = params.expr_eval_cost
        build = 0.0
        indexed = params.expr_eval_cost
        indexable = var_is_indexable(var, self._query)
        for call in var.aggregate_calls():
            agg = registry.get(call.name)
            direct += params.f_delta(agg, avg_len)
            can_index = (agg.supports_index
                         and not getattr(agg, "needs_series_context", False)
                         and all(ref.variable in (None, var.name)
                                 for ref in call.columns))
            if can_index:
                build += params.f_ind(agg, lse)
                indexed += params.f_lookup(agg, avg_len)
            else:
                indexed += params.f_delta(agg, avg_len)
        costs = self._leaf_costs[key] = (direct, build, indexed, indexable)
        return costs

    def _leaf_estimate(self, op_name: str, var: Optional[VarDef],
                       window: WindowConjunction, ls: float,
                       le: float) -> CM.Estimate:
        """A SegGen leaf; ``var`` is ``None`` for an unfiltered
        ``SegGenWindow``."""
        params = self.params
        lse = CM.lse_estimate(ls, le, self._n)
        sel_w = self._sel_w(window, ls, le, lse)
        if var is None:
            return CM.leaf_estimate(op_name, ls, le, sel_w, params)
        direct, build, indexed, _ = self._leaf_eval_costs(var, lse)
        if op_name == "SegGenFilter":
            per_row, build, provider_kind = direct, 0.0, "direct"
        else:
            per_row, provider_kind = indexed, "indexed"
        # Per-path vector discount: batch compilation is capability-
        # gated per provider (e.g. avg() only batches on the indexed
        # path), so each side earns the discount independently.
        if compiles_statically(var, provider_kind, self._query.registry):
            per_row *= params.vector_leaf_discount
        return CM.leaf_estimate(op_name, ls, le, sel_w, params,
                                self._stats.selectivity(var.name), per_row,
                                build)

    def _optimize_leaf(self, node: LVar, ls: float, le: float,
                       available: FrozenSet[str]) -> Candidate:
        var = node.var
        construction = self._construction
        publishes = construction.publish & {var.name}

        if var.condition is None:
            cost, card = self._leaf_estimate("SegGenWindow", None,
                                             node.window, ls, le)
            return Candidate(cost, card, (), publishes,
                             lambda: construction.leaf(node))

        satisfiable = set(var.external_refs) <= set(available)
        if not satisfiable:
            # Lifted leaf: SegGenWindow now, Filter later.
            cost, card = self._leaf_estimate("SegGenWindow", None,
                                             node.window, ls, le)
            pending = PendingLift(
                var.name, *self._lift(var, CM.lse_estimate(ls, le, self._n)),
                frozenset(var.external_refs) | {var.name})
            return Candidate(cost, card, (pending,),
                             publishes | {var.name},
                             lambda: construction.leaf(node, lift=True))

        options: List[Tuple[CM.Estimate, str]] = [(self._leaf_estimate(
            "SegGenFilter", var, node.window, ls, le), LEAF_FILTER)]
        indexable = self._leaf_eval_costs(
            var, CM.lse_estimate(ls, le, self._n))[3]
        if indexable and self.sharing != "off":
            options.append((self._leaf_estimate(
                "SegGenIndexing", var, node.window, ls, le), LEAF_INDEXING))
        if self.sharing == "on" and indexable:
            # Paper rule: always index when eligible and sharing is forced.
            options = [opt for opt in options if opt[1] == LEAF_INDEXING]
        (cost, card), impl = min(options, key=lambda pair: pair[0][0])
        return Candidate(cost, card, (), publishes,
                         lambda impl=impl: construction.leaf(node, impl=impl))

    # -- And chains ----------------------------------------------------------

    def _solve_and(self, node: LAnd, indices: FrozenSet[int], ls: float,
                   le: float, avail: FrozenSet[str]) -> Candidate:
        """Best plan for the And parts ``indices`` (the subset DP)."""
        key = ("and", node.node_id, indices, ls, le, avail)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if len(indices) == 1:
            (only,) = indices
            best: Optional[Candidate] = self._resolve_pending(
                self._optimize(node.parts[only], ls, le, avail), avail,
                node.window)
        else:
            best = None
            _lse, sel_w, box = self._space(node.window, ls, le)
            members = sorted(indices)
            # Enumerate bipartitions: the lowest member is pinned to the
            # left side (And is commutative, probes cover both directions),
            # and the full mask is excluded so the right side is non-empty.
            for mask in range((1 << (len(members) - 1)) - 1):
                left_set = frozenset(
                    members[i + 1] for i in range(len(members) - 1)
                    if mask & (1 << i)) | {members[0]}
                right_set = indices - left_set
                for choice in self._and_combinations(
                        node, left_set, right_set, ls, le, sel_w, box,
                        avail):
                    resolved = self._resolve_pending(choice, avail,
                                                     node.window)
                    if best is None or resolved.cost < best.cost:
                        best = resolved
            if best is None:
                raise PlanError("no valid And combination found")
        self._memo[key] = best
        return best

    def _and_combinations(self, node, left_set, right_set, ls, le, sel_w,
                          box, avail):
        params = self.params
        left = self._solve_and(node, left_set, ls, le, avail)
        right = self._solve_and(node, right_set, ls, le, avail)
        yield self._make_binary_and(
            node, left, right, SORT_MERGE, CM.and_estimate(
                SORT_MERGE, left.estimate, right.estimate, box, sel_w,
                params), left_set, right_set)
        if not self.allow_probes:
            return
        for anchor, probe_set, probe_impl in ((left, right_set, RIGHT_PROBE),
                                              (right, left_set, LEFT_PROBE)):
            probe_avail = avail | anchor.provides_publish
            probe_full = self._solve_and(node, probe_set, ls, le,
                                         probe_avail)
            probe_unit = self._optimize_subset_at(node, probe_set,
                                                  probe_avail)
            pair = (anchor, probe_unit) if probe_impl == RIGHT_PROBE \
                else (probe_unit, anchor)
            yield self._make_binary_and(
                node, *pair, probe_impl, CM.and_estimate(
                    probe_impl, pair[0].estimate, pair[1].estimate, box,
                    sel_w, params, probe_full.out_card), left_set,
                right_set)

    def _optimize_subset_at(self, node: LAnd, indices: FrozenSet[int],
                            avail: FrozenSet[str]) -> Candidate:
        """The probe side of an And join: its parts at the probe space
        ``(1, 1)``, folded left-deep with ``RightProbeAnd`` (every part is
        evaluated at the exact segment anyway)."""
        _lse, sel_w, box = self._space(node.window, 1.0, 1.0)
        members = sorted(indices)
        result: Optional[Candidate] = None
        for done, index in enumerate(members):
            part_avail = avail if result is None \
                else avail | result.provides_publish
            part = self._resolve_pending(
                self._optimize(node.parts[index], 1.0, 1.0, part_avail),
                part_avail, node.window)
            result = part if result is None else self._make_binary_and(
                node, result, part, RIGHT_PROBE, CM.and_estimate(
                    RIGHT_PROBE, result.estimate, part.estimate, box, sel_w,
                    self.params), frozenset(members[:done]),
                frozenset({index}))
        assert result is not None
        return result

    def _make_binary_and(self, node, left: Candidate, right: Candidate,
                         impl: str, estimate: CM.Estimate, left_set,
                         right_set) -> Candidate:
        construction = self._construction

        def build() -> BuildResult:
            return construction.combine_and(left.build(), right.build(),
                                            node.window, impl,
                                            (node, left_set, right_set))

        return _joined(estimate, (left, right), build)

    # -- Concat chains -------------------------------------------------------

    def _solve_concat(self, node: LConcat, i: int, j: int, ls: float,
                      le: float, avail: FrozenSet[str]) -> Candidate:
        """Best plan for ``parts[i..j]`` (the interval DP)."""
        key = ("concat", node.node_id, i, j, int(ls), int(le), avail)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if (i, j) == (0, len(node.parts) - 1):
            window = node.window
        else:
            window = self._relaxed.get(node.node_id)
            if window is None:
                window = self._relaxed[node.node_id] = \
                    node.window.relax_lower()
        if i == j:
            best: Optional[Candidate] = self._resolve_pending(
                self._optimize(node.parts[i], ls, le, avail), avail, window)
        else:
            best = None
            lse = CM.lse_estimate(ls, le, self._n)
            window_bounds = self._window_bounds(window)
            for split in range(i, j):
                for choice in self._concat_splits(
                        node, i, j, split, ls, le, lse, window,
                        window_bounds, avail):
                    resolved = self._resolve_pending(choice, avail, window)
                    if best is None or resolved.cost < best.cost:
                        best = resolved
            if best is None:
                raise PlanError("no valid Concat split found")
        self._memo[key] = best
        return best

    def _concat_splits(self, node, i, j, split, ls, le, lse, window,
                       window_bounds, avail):
        params = self.params
        construction = self._construction
        gap = node.gaps[split]
        left_bounds = self._interval_bounds(node, i, split)
        right_bounds = self._interval_bounds(node, split + 1, j)
        origin = (node, frozenset(range(i, split + 1)),
                  frozenset(range(split + 1, j + 1)))

        def candidate(impl, left, right, probed_card=None,
                      probes_reused=True):
            return _joined(CM.concat_estimate(
                impl, left.estimate, right.estimate, lse, window_bounds,
                left_bounds, right_bounds, gap, params, probed_card,
                probes_reused), (left, right),
                lambda: construction.combine_concat(
                    left.build(), right.build(), window, impl, origin))

        left_full = self._solve_concat(node, i, split, ls, lse, avail)
        right_full = self._solve_concat(node, split + 1, j, lse, le, avail)
        yield candidate(SORT_MERGE, left_full, right_full)

        if self.allow_probes:
            # Right probe: enumerate left, probe right at (1, le).
            right_probe = self._solve_concat(
                node, split + 1, j, 1.0, le,
                avail | left_full.provides_publish)
            yield candidate(RIGHT_PROBE, left_full, right_probe,
                            right_full.out_card,
                            self._probes_reused(node, split + 1, j,
                                                left_full.provides_publish))
            # Left probe: enumerate right, probe left at (ls, 1).
            left_probe = self._solve_concat(
                node, i, split, ls, 1.0,
                avail | right_full.provides_publish)
            yield candidate(LEFT_PROBE, left_probe, right_full,
                            left_full.out_card,
                            self._probes_reused(node, i, split,
                                                right_full.provides_publish))

        # WConcat fusion when the boundary part is a pure pad.
        if self.use_wconcat:
            def is_pad(index: int) -> bool:
                part = node.parts[index]
                return (isinstance(part, LVar) and part.var.condition is None
                        and not part.var.external_refs
                        and part.var.name not in construction.publish)

            if is_pad(split) and split > i:
                yield self._wconcat_candidate(node, i, j, split, ls, le, lse,
                                              window, window_bounds, avail)
            if is_pad(split + 1) and split + 1 < j:
                yield self._wconcat_candidate(node, i, j, split + 1, ls, le,
                                              lse, window, window_bounds,
                                              avail)

    def _wconcat_candidate(self, node, i, j, pad_index, ls, le, lse, window,
                           window_bounds, avail) -> Candidate:
        """Fuse parts[i..pad_index-1] · PAD · parts[pad_index+1..j]."""
        construction = self._construction
        left = self._solve_concat(node, i, pad_index - 1, ls, lse, avail)
        right = self._solve_concat(node, pad_index + 1, j, lse, le, avail)
        origin = (node, frozenset(range(i, pad_index)),
                  frozenset(range(pad_index + 1, j + 1)))
        return _joined(CM.wconcat_estimate(
            left.estimate, right.estimate, lse, window_bounds,
            self._interval_bounds(node, i, pad_index - 1),
            self._duration_bounds(node.parts[pad_index]),
            self._interval_bounds(node, pad_index + 1, j), self.params),
            (left, right), lambda: construction.wild_concat(
                left.build(), right.build(), window, origin))

    # -- Or / Not / Kleene ---------------------------------------------------

    def _optimize_or(self, node: LOr, ls: float, le: float,
                     available: FrozenSet[str]) -> Candidate:
        construction = self._construction
        arms = [self._resolve_pending(self._optimize(part, ls, le, available),
                                      available, node.window)
                for part in node.parts]
        estimate = CM.or_estimate(
            [arm.estimate for arm in arms],
            [self._duration_bounds(part) for part in node.parts],
            self._window_bounds(node.window),
            CM.lse_estimate(ls, le, self._n), self.params)

        def build():
            result = arms[0].build()
            for index in range(1, len(arms)):
                result = construction.combine_or(
                    result, arms[index].build(), node.window,
                    (node, frozenset(range(index)), frozenset({index})))
            return result

        return _joined(estimate, arms, build)

    def _optimize_not(self, node: LNot, ls: float, le: float,
                      available: FrozenSet[str]) -> Candidate:
        params = self.params
        construction = self._construction
        _lse, _sel_w, box = self._space(node.window, ls, le)
        dedupe = _contains_concat(node.child)

        child_full = self._optimize(node.child, ls, le, available)
        if child_full.pending:
            raise PlanError("conditions cannot lift out of a Not")
        materialize = CM.not_estimate(NOT_MATERIALIZE, child_full.estimate,
                                      child_full.out_card, box, params,
                                      dedupe)
        child_unit = self._optimize(node.child, 1.0, 1.0, available)
        probe = CM.not_estimate(NOT_PROBE, child_unit.estimate,
                                child_full.out_card, box, params, dedupe)

        if probe[0] < materialize[0] and self.allow_probes:
            estimate, impl, child = probe, NOT_PROBE, child_unit
        else:
            estimate, impl, child = materialize, NOT_MATERIALIZE, child_full

        def build():
            return construction.build_not(child.build(), node, impl)

        return Candidate(*estimate, (), frozenset(), build)

    def _optimize_kleene(self, node: LKleene, ls: float, le: float,
                         available: FrozenSet[str]) -> Candidate:
        construction = self._construction
        lse = CM.lse_estimate(ls, le, self._n)
        child = self._optimize(node.child, lse, lse, available)
        if child.pending:
            raise PlanError("conditions cannot lift out of a Kleene body")
        cost, card = CM.kleene_estimate(
            child.estimate, ls, le, lse, self._window_bounds(node.window),
            self._duration_bounds(node.child), node.gap, self.params)

        def build():
            return construction.build_kleene(child.build(), node)

        return Candidate(cost, card, (), frozenset(), build)

    # -- pricing a built plan ------------------------------------------------

    def _price(self, op: PhysicalOperator, ls: float, le: float,
               avail: FrozenSet[str]) -> CM.Estimate:
        """``(cost, card)`` of ``op`` in a ``(ℓ_s, ℓ_e)`` space with the
        references ``avail`` bound by enclosing probe anchors."""
        params = self.params
        if isinstance(op, (SegGenWindow, SegGenFilter, SegGenIndexing)):
            return self._leaf_estimate(
                type(op).__name__,
                None if isinstance(op, SegGenWindow) else op.var, op.window,
                ls, le)
        if isinstance(op, FilterOp):
            lse = CM.lse_estimate(ls, le, self._n)
            return CM.filter_estimate(
                self._price(op.child, ls, le, avail),
                [self._lift(self._query.var(owner), lse)
                 for owner, _condition in op.conditions])
        if op.origin is None:  # not built by Construction
            raise PlanError(f"cannot price operator {op!r}")
        impl = _IMPL_OF.get(type(op))
        node, left_parts, right_parts = op.origin
        if isinstance(node, LConcat):
            return self._price_concat(op, impl, node, left_parts,
                                      right_parts, ls, le, avail)
        if isinstance(node, LAnd):
            _lse, sel_w, box = self._space(op.window, ls, le)
            if impl == SORT_MERGE:
                return CM.and_estimate(
                    impl, self._price(op.left, ls, le, avail),
                    self._price(op.right, ls, le, avail), box, sel_w, params)
            anchor, probe, probe_parts = (op.left, op.right, right_parts) \
                if impl == RIGHT_PROBE else (op.right, op.left, left_parts)
            probe_avail = avail | anchor.publish
            anchor_est = self._price(anchor, ls, le, avail)
            probe_est = self._price_probe_side(probe, node, probe_avail)
            full = self._solve_and(node, probe_parts, ls, le,
                                   probe_avail).out_card
            left, right = (anchor_est, probe_est) if impl == RIGHT_PROBE \
                else (probe_est, anchor_est)
            return CM.and_estimate(impl, left, right, box, sel_w, params,
                                   full)
        lse = CM.lse_estimate(ls, le, self._n)
        if isinstance(node, LOr):
            arms = []
            while isinstance(op, SortMergeOr) and op.origin[0] is node:
                arms.append(op.right)
                op = op.left
            arms.append(op)
            return CM.or_estimate(
                [self._price(arm, ls, le, avail) for arm in reversed(arms)],
                [self._duration_bounds(part) for part in node.parts],
                self._window_bounds(node.window), lse, params)
        if isinstance(node, LNot):
            _lse, _sel_w, box = self._space(op.window, ls, le)
            if isinstance(op, MaterializeNot):
                child = self._price(op.child, ls, le, avail)
                impl, full = NOT_MATERIALIZE, child[1]
            else:
                child = self._price(op.child, 1.0, 1.0, avail)
                impl = NOT_PROBE
                full = self._optimize(node.child, ls, le, avail).out_card
            return CM.not_estimate(impl, child, full, box, params,
                                   _contains_concat(node.child))
        return CM.kleene_estimate(
            self._price(op.child, lse, lse, avail), ls, le, lse,
            self._window_bounds(op.window), self._duration_bounds(node.child),
            node.gap, params)

    def _price_concat(self, op, impl, node, left_parts, right_parts, ls, le,
                      avail) -> CM.Estimate:
        lse = CM.lse_estimate(ls, le, self._n)
        window_bounds = self._window_bounds(op.window)
        i, split, j = min(left_parts), max(left_parts), max(right_parts)
        if isinstance(op, WildWindowConcat):
            return CM.wconcat_estimate(
                self._price(op.left, ls, lse, avail),
                self._price(op.right, lse, le, avail), lse, window_bounds,
                self._interval_bounds(node, i, split),
                self._duration_bounds(node.parts[split + 1]),
                self._interval_bounds(node, min(right_parts), j),
                self.params)
        probed_card = None
        probes_reused = True
        if impl == RIGHT_PROBE:
            left = self._price(op.left, ls, lse, avail)
            right = self._price(op.right, 1.0, le, avail | op.left.publish)
            probed_card = self._solve_concat(node, split + 1, j, lse, le,
                                             avail).out_card
            probes_reused = self._probes_reused(node, split + 1, j,
                                                op.left.publish)
        elif impl == LEFT_PROBE:
            right = self._price(op.right, lse, le, avail)
            left = self._price(op.left, ls, 1.0, avail | op.right.publish)
            probed_card = self._solve_concat(node, i, split, ls, lse,
                                             avail).out_card
            probes_reused = self._probes_reused(node, i, split,
                                                op.right.publish)
        else:
            left = self._price(op.left, ls, lse, avail)
            right = self._price(op.right, lse, le, avail)
        return CM.concat_estimate(
            impl, left, right, lse, window_bounds,
            self._interval_bounds(node, i, split),
            self._interval_bounds(node, split + 1, j), node.gaps[split],
            self.params, probed_card, probes_reused)

    def _price_probe_side(self, op: PhysicalOperator, node: LAnd,
                          avail: FrozenSet[str]) -> CM.Estimate:
        """The probe side of one of ``node``'s And joins: a part at
        ``(1, 1)``, or :meth:`_optimize_subset_at`'s fold of several."""
        if op.origin is None or op.origin[0] is not node:
            return self._price(op, 1.0, 1.0, avail)
        _lse, sel_w, box = self._space(op.window, 1.0, 1.0)
        return CM.and_estimate(
            RIGHT_PROBE, self._price_probe_side(op.left, node, avail),
            self._price(op.right, 1.0, 1.0, avail | op.left.publish), box,
            sel_w, self.params)


def _joined(estimate: CM.Estimate, parts: Sequence[Candidate],
            build: Callable[[], BuildResult]) -> Candidate:
    """A candidate over sub-plans: it inherits their pending lifts and the
    references they bind."""
    pending: Tuple[PendingLift, ...] = ()
    provides: FrozenSet[str] = frozenset()
    for part in parts:
        pending += part.pending
        provides |= part.provides_publish
    return Candidate(*estimate, pending, provides, build)


#: The join choice a built Concat or And operator stands for.
_IMPL_OF = {cls: impl for table in (CONCAT_OPS, AND_OPS)
            for impl, cls in table.items()}


def _contains_concat(node: LogicalNode) -> bool:
    from repro.plan.logical import walk
    return any(isinstance(sub, (LConcat, LKleene)) for sub in walk(node))
