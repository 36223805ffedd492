"""Cost-based dynamic-programming planner (Section 5).

The planner searches the complete plan space — including bushy plans — by:

* subset DP over ``And`` chains (conjunction is commutative/associative),
* interval DP over ``Concat`` chains (order fixed, bracketing free),
* per-node physical operator selection (Sort-Merge vs Left/Right-Probe,
  MaterializeNot vs ProbeNot, SegGenFilter vs SegGenIndexing, WConcat
  fusion),

with the cardinality and cost models of Table 1 evaluated on search-space
*range sizes* and query-time sampled selectivities.  Reference dependencies
are honoured: a probed side may consume references bound by its anchor;
otherwise conditions lift into Filters (Figure 6) whose cost and
selectivity the model accounts for.

``allow_probes=False`` yields the paper's "T-ReX Batch" executor
(Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlanError
from repro.testing import faults as _faults
from repro.exec.base import PhysicalOperator
from repro.exec.vector import compiles_statically
from repro.lang.query import Query, VarDef
from repro.optimizer import costmodel as CM
from repro.optimizer.construct import (LEAF_FILTER, LEAF_INDEXING,
                                       LEFT_PROBE, NOT_MATERIALIZE,
                                       NOT_PROBE, RIGHT_PROBE, SORT_MERGE,
                                       BuildResult, Construction,
                                       validate_scoping, var_is_indexable)
from repro.optimizer.cost_params import (DEFAULT_COST_PARAMS, CostParams,
                                         expected_distinct)
from repro.optimizer.stats import (StatsCatalog, check_deadlines,
                                   collect_stats)
from repro.plan.logical import (LAnd, LConcat, LKleene, LNot, LOr, LVar,
                                LogicalNode, build_logical_plan)
from repro.timeseries.series import Series

#: Guard against degenerate cardinalities.
_MIN_CARD = 1e-6


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
    def total_cost(self) -> float:
        return self.cost


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
        self._leaf_costs = {}
        candidate = self._optimize(logical, float(self._n), float(self._n),
                                   frozenset())
        # Account for any filter applied at the very root.
        for lift in candidate.pending:
            candidate = Candidate(
                candidate.cost + candidate.out_card * lift.per_row_cost,
                candidate.out_card * lift.selectivity, (),
                candidate.provides_publish, candidate.build)
        self.last_estimated_cost = candidate.cost
        return candidate

    def estimate_plan_cost(self, query: Query, logical: LogicalNode,
                           series_list: Sequence[Series]) -> float:
        """Estimated cost of the best plan (used by the NDCG experiment)."""
        return self.optimize(query, logical, series_list).cost

    # -- shared helpers -------------------------------------------------------

    def _duration_bounds(self, node: LogicalNode) -> CM.Bounds:
        bounds = self._bounds_cache.get(node.node_id)
        if bounds is None:
            bounds = CM.node_duration_bounds(node, self._series)
            self._bounds_cache[node.node_id] = bounds
        return bounds

    def _window_bounds(self, node: LogicalNode) -> CM.Bounds:
        return CM.window_duration_bounds(node.window, self._series)

    def _sel_w(self, node: LogicalNode, ls: float, le: float,
               lse: float) -> float:
        return max(CM.boxed_pair_fraction(ls, le, lse,
                                          self._window_bounds(node)),
                   1e-9)

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
        cost = candidate.cost
        card = candidate.out_card
        for lift in ready:
            cost += card * lift.per_row_cost
            card *= lift.selectivity
        construction = self._construction
        inner_build = candidate.build

        def build() -> BuildResult:
            return construction.maybe_resolve_lifts(inner_build(), available,
                                                    window)

        return Candidate(cost, max(card, _MIN_CARD), waiting,
                         candidate.provides_publish, build)

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
            candidate = self._optimize_and(node, ls, le, available)
        elif isinstance(node, LConcat):
            candidate = self._optimize_concat(node, ls, le, available)
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

    def _optimize_leaf(self, node: LVar, ls: float, le: float,
                       available: FrozenSet[str]) -> Candidate:
        var = node.var
        params = self.params
        construction = self._construction
        lse = CM.lse_estimate(ls, le, self._n)
        sel_w = self._sel_w(node, ls, le, lse)
        c_in = max(ls * le * sel_w, _MIN_CARD)
        publishes = construction.publish & {var.name}

        if var.condition is None:
            cost = params.f_op("SegGenWindow", 2 * c_in)
            return Candidate(cost, c_in, (), publishes,
                             lambda: construction.leaf(node))

        satisfiable = set(var.external_refs) <= set(available)
        if not satisfiable:
            # Lifted leaf: SegGenWindow now, Filter later.
            direct, _build, _indexed, _ = self._leaf_eval_costs(var, lse)
            needed = frozenset(var.external_refs) | {var.name}
            pending = PendingLift(var.name, direct,
                                  self._stats.selectivity(var.name), needed)
            cost = params.f_op("SegGenWindow", 2 * c_in)
            return Candidate(cost, c_in, (pending,),
                             publishes | {var.name},
                             lambda: construction.leaf(node, lift=True))

        selectivity = self._stats.selectivity(var.name)
        c_out = max(c_in * selectivity, _MIN_CARD)
        direct, build, indexed, indexable = self._leaf_eval_costs(var, lse)
        # Per-path vector discount: batch compilation is capability-
        # gated per provider (e.g. avg() only batches on the indexed
        # path), so each side earns the discount independently.
        registry = self._query.registry
        if compiles_statically(var, "direct", registry):
            direct *= params.vector_leaf_discount
        filter_cost = params.f_op("SegGenFilter", c_in + c_out) \
            + c_in * direct
        options: List[Tuple[float, str]] = [(filter_cost, LEAF_FILTER)]
        if indexable and self.sharing != "off":
            if compiles_statically(var, "indexed", registry):
                indexed *= params.vector_leaf_discount
            index_cost = params.f_op("SegGenIndexing", c_in + c_out) \
                + build + c_in * indexed
            options.append((index_cost, LEAF_INDEXING))
        if self.sharing == "on" and indexable:
            # Paper rule: always index when eligible and sharing is forced.
            options = [opt for opt in options if opt[1] == LEAF_INDEXING]
        cost, impl = min(options, key=lambda pair: pair[0])
        return Candidate(cost, c_out, (), publishes,
                         lambda impl=impl: construction.leaf(node, impl=impl))

    # -- And chains ----------------------------------------------------------

    def _optimize_and(self, node: LAnd, ls: float, le: float,
                      available: FrozenSet[str]) -> Candidate:
        params = self.params
        construction = self._construction
        lse = CM.lse_estimate(ls, le, self._n)
        sel_w = self._sel_w(node, ls, le, lse)
        box = max(ls * le * sel_w, _MIN_CARD)
        parts = node.parts
        memo: Dict[Tuple[FrozenSet[int], FrozenSet[str]], Candidate] = {}

        def provides_of(indices: FrozenSet[int]) -> FrozenSet[str]:
            names: set = set()
            for i in indices:
                names |= parts[i].provides
            return frozenset(names) & construction.publish

        def solve(indices: FrozenSet[int],
                  avail: FrozenSet[str]) -> Candidate:
            key = (indices, avail)
            hit = memo.get(key)
            if hit is not None:
                return hit
            if len(indices) == 1:
                (only,) = indices
                result = self._resolve_pending(
                    self._optimize(parts[only], ls, le, avail), avail,
                    node.window)
                memo[key] = result
                return result
            best: Optional[Candidate] = None
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
                        avail, solve, provides_of):
                    resolved = self._resolve_pending(choice, avail,
                                                     node.window)
                    if best is None or resolved.cost < best.cost:
                        best = resolved
            if best is None:
                raise PlanError("no valid And combination found")
            memo[key] = best
            return best

        return solve(frozenset(range(len(parts))), available)

    def _and_combinations(self, node, left_set, right_set, ls, le, sel_w,
                          box, avail, solve, provides_of):
        params = self.params
        construction = self._construction
        for anchor_set, probe_set, probe_impl in (
                (left_set, right_set, RIGHT_PROBE),
                (right_set, left_set, LEFT_PROBE)):
            # Sort-Merge (emitted once, from the left/right loop's first
            # iteration only to avoid duplicates).
            if probe_impl == RIGHT_PROBE:
                left = solve(left_set, avail)
                right = solve(right_set, avail)
                c_out = max(left.out_card * right.out_card / box, _MIN_CARD)
                cost = params.f_op(
                    "SortMergeAnd",
                    left.out_card + right.out_card + c_out) \
                    + left.cost + right.cost
                yield self._make_binary_and(node, left, right, SORT_MERGE,
                                            cost, c_out, provides_of,
                                            left_set, right_set)
            if not self.allow_probes:
                continue
            anchor = solve(anchor_set, avail)
            probe_avail = avail | anchor.provides_publish
            probe_full = solve(probe_set, probe_avail)
            probe_unit = self._optimize_subset_at(node, probe_set, 1.0, 1.0,
                                                  probe_avail, solve)
            c_out = max(anchor.out_card * probe_full.out_card / box,
                        _MIN_CARD)
            cost = params.f_op(
                f"{'Right' if probe_impl == RIGHT_PROBE else 'Left'}ProbeAnd",
                anchor.out_card + probe_unit.out_card + c_out) \
                + anchor.cost \
                + anchor.out_card * (probe_unit.cost / max(sel_w, 1e-9)
                                     + params.probe_overhead)
            if probe_impl == RIGHT_PROBE:
                yield self._make_binary_and(node, anchor, probe_unit,
                                            RIGHT_PROBE, cost, c_out,
                                            provides_of, left_set, right_set)
            else:
                yield self._make_binary_and(node, probe_unit, anchor,
                                            LEFT_PROBE, cost, c_out,
                                            provides_of, left_set, right_set)

    def _optimize_subset_at(self, node, indices, ls, le, avail, solve):
        """Optimize an And subset at probe-space range sizes (1, 1)."""
        if len(indices) == 1:
            (only,) = indices
            return self._resolve_pending(
                self._optimize(node.parts[only], ls, le, avail), avail,
                node.window)
        # For multi-part probe sides, re-run the subset DP at the probe
        # space; reuse solve() shape by recursing through _optimize_and-like
        # logic — approximate with a fresh nested solve at (1,1) using the
        # node-level helper.
        sub = _AndSubset(self, node, indices, avail)
        return sub.solve(ls, le)

    def _make_binary_and(self, node, left: Candidate, right: Candidate,
                         impl: str, cost: float, c_out: float, provides_of,
                         left_set, right_set) -> Candidate:
        construction = self._construction
        pending = left.pending + right.pending
        provides = left.provides_publish | right.provides_publish

        def build() -> BuildResult:
            return construction.combine_and(left.build(), right.build(),
                                            node.window, impl)

        return Candidate(cost, c_out, pending, provides, build)

    # -- Concat chains -------------------------------------------------------

    def _optimize_concat(self, node: LConcat, ls: float, le: float,
                         available: FrozenSet[str]) -> Candidate:
        construction = self._construction
        parts = node.parts
        gaps = node.gaps
        relaxed_window = node.window.relax_lower()
        memo: Dict[tuple, Candidate] = {}

        def is_pad(index: int) -> bool:
            part = parts[index]
            return (isinstance(part, LVar) and part.var.condition is None
                    and not part.var.external_refs
                    and part.var.name not in construction.publish)

        def interval_bounds(i: int, j: int) -> CM.Bounds:
            lo = 0.0
            hi = 0.0
            for k in range(i, j + 1):
                part_lo, part_hi = self._duration_bounds(parts[k])
                lo += part_lo
                hi += part_hi
                if k < j:
                    lo += gaps[k]
                    hi += gaps[k]
            return lo, hi

        def solve(i: int, j: int, sub_ls: float, sub_le: float,
                  avail: FrozenSet[str], top: bool) -> Candidate:
            window = node.window if top else relaxed_window
            key = (i, j, int(sub_ls), int(sub_le), avail, top)
            hit = memo.get(key)
            if hit is not None:
                return hit
            if i == j:
                result = self._resolve_pending(
                    self._optimize(parts[i], sub_ls, sub_le, avail), avail,
                    window)
                memo[key] = result
                return result
            lse = CM.lse_estimate(sub_ls, sub_le, self._n)
            window_bounds = CM.window_duration_bounds(window, self._series)
            best: Optional[Candidate] = None
            for split in range(i, j):
                for choice in self._concat_splits(
                        node, i, j, split, sub_ls, sub_le, lse, window,
                        window_bounds, avail, solve, interval_bounds,
                        is_pad):
                    resolved = self._resolve_pending(choice, avail, window)
                    if best is None or resolved.cost < best.cost:
                        best = resolved
            if best is None:
                raise PlanError("no valid Concat split found")
            memo[key] = best
            return best

        return solve(0, len(parts) - 1, ls, le, available, True)

    def _concat_splits(self, node, i, j, split, ls, le, lse, window,
                       window_bounds, avail, solve, interval_bounds, is_pad):
        params = self.params
        construction = self._construction
        gap = node.gaps[split]
        left_bounds = interval_bounds(i, split)
        right_bounds = interval_bounds(split + 1, j)
        cond_sel = CM.concat_window_selectivity(window_bounds, left_bounds,
                                                right_bounds, gap, lse)
        cond_sel = max(cond_sel, 1e-9)

        def interval_refs(lo_idx: int, hi_idx: int) -> FrozenSet[str]:
            provides: set = set()
            needs: set = set()
            for k in range(lo_idx, hi_idx + 1):
                provides |= node.parts[k].provides
                needs |= node.parts[k].requires
            return frozenset(needs - provides)

        left_full = solve(i, split, ls, lse, avail, False)
        right_full = solve(split + 1, j, lse, le, avail, False)
        c_out = max(left_full.out_card * right_full.out_card / max(lse, 1.0)
                    * cond_sel, _MIN_CARD)

        def build_sm(lc=left_full, rc=right_full):
            return construction.combine_concat(lc.build(), rc.build(), gap,
                                               window, SORT_MERGE)

        # Sort-Merge.
        sm_cost = params.f_op("SortMergeConcat",
                              left_full.out_card + right_full.out_card
                              + c_out) + left_full.cost + right_full.cost
        yield Candidate(sm_cost, c_out,
                        left_full.pending + right_full.pending,
                        left_full.provides_publish
                        | right_full.provides_publish, build_sm)

        if self.allow_probes:
            # Right probe: enumerate left, probe right at (1, le).
            probe_avail = avail | left_full.provides_publish
            right_probe = solve(split + 1, j, 1.0, le, probe_avail, False)
            # The D() caching discount only applies when probe results can
            # be reused across anchors, i.e. the probed side consumes no
            # references from the anchor (Section 5.1).
            if interval_refs(split + 1, j) & left_full.provides_publish:
                distinct = left_full.out_card
            else:
                distinct = expected_distinct(left_full.out_card, lse)
            rp_cost = params.f_op(
                "RightProbeConcat",
                left_full.out_card + right_probe.out_card + c_out) \
                + left_full.cost \
                + distinct * (right_probe.cost + params.probe_overhead)

            def build_rp(lc=left_full, rc=right_probe):
                return construction.combine_concat(lc.build(), rc.build(),
                                                   gap, window, RIGHT_PROBE)

            yield Candidate(rp_cost, c_out,
                            left_full.pending + right_probe.pending,
                            left_full.provides_publish
                            | right_probe.provides_publish, build_rp)

            # Left probe: enumerate right, probe left at (ls, 1).
            probe_avail = avail | right_full.provides_publish
            left_probe = solve(i, split, ls, 1.0, probe_avail, False)
            if interval_refs(i, split) & right_full.provides_publish:
                distinct = right_full.out_card
            else:
                distinct = expected_distinct(right_full.out_card, lse)
            lp_cost = params.f_op(
                "LeftProbeConcat",
                left_probe.out_card + right_full.out_card + c_out) \
                + right_full.cost \
                + distinct * (left_probe.cost + params.probe_overhead)

            def build_lp(lc=left_probe, rc=right_full):
                return construction.combine_concat(lc.build(), rc.build(),
                                                   gap, window, LEFT_PROBE)

            yield Candidate(lp_cost, c_out,
                            left_probe.pending + right_full.pending,
                            left_probe.provides_publish
                            | right_full.provides_publish, build_lp)

        # WConcat fusion when the boundary part is a pure pad.
        if self.use_wconcat:
            if is_pad(split) and split > i:
                yield from self._wconcat_candidate(
                    node, i, j, split, ls, le, lse, window, window_bounds,
                    avail, solve, interval_bounds)
            if is_pad(split + 1) and split + 1 < j:
                yield from self._wconcat_candidate(
                    node, i, j, split + 1, ls, le, lse, window,
                    window_bounds, avail, solve, interval_bounds)

    def _wconcat_candidate(self, node, i, j, pad_index, ls, le, lse, window,
                           window_bounds, avail, solve, interval_bounds):
        """Fuse parts[i..pad_index-1] · PAD · parts[pad_index+1..j]."""
        if pad_index <= i or pad_index >= j:
            return
        params = self.params
        construction = self._construction
        pad = node.parts[pad_index]
        pad_bounds = self._duration_bounds(pad)
        left = solve(i, pad_index - 1, ls, lse, avail, False)
        right = solve(pad_index + 1, j, lse, le, avail, False)
        left_bounds = interval_bounds(i, pad_index - 1)
        right_bounds = interval_bounds(pad_index + 1, j)
        pad_width = min(pad_bounds[1], lse) - pad_bounds[0] + 1
        pad_width = max(pad_width, 1.0)
        cond_sel = CM.concat_window_selectivity(
            window_bounds,
            (left_bounds[0] + pad_bounds[0],
             left_bounds[1] + min(pad_bounds[1], lse)),
            right_bounds, 0, lse)
        c_out = max(left.out_card * right.out_card * pad_width
                    / max(lse, 1.0) * max(cond_sel, 1e-9), _MIN_CARD)
        cost = params.f_op("WildWindowConcat",
                           left.out_card + right.out_card + c_out) \
            + left.cost + right.cost

        gap_left = node.gaps[pad_index - 1]
        gap_right = node.gaps[pad_index]

        def build(lc=left, rc=right):
            return construction.wild_concat(lc.build(), rc.build(),
                                            pad.window, window,
                                            gap_left, gap_right)

        yield Candidate(cost, c_out, left.pending + right.pending,
                        left.provides_publish | right.provides_publish,
                        build)

    # -- Or / Not / Kleene ---------------------------------------------------

    def _optimize_or(self, node: LOr, ls: float, le: float,
                     available: FrozenSet[str]) -> Candidate:
        params = self.params
        construction = self._construction
        lse = CM.lse_estimate(ls, le, self._n)
        window_bounds = self._window_bounds(node)
        result: Optional[Candidate] = None
        for part in node.parts:
            child = self._resolve_pending(
                self._optimize(part, ls, le, available), available,
                node.window)
            arm_sel = CM.containment_selectivity(
                window_bounds, self._duration_bounds(part), lse)
            arm_card = child.out_card * max(arm_sel, 1e-9)
            if result is None:
                result = Candidate(child.cost, arm_card, child.pending,
                                   child.provides_publish, child.build)
                continue
            c_out = result.out_card + arm_card
            cost = params.f_op("SortMergeOr",
                               result.out_card + arm_card + c_out) \
                + result.cost + child.cost
            prev = result

            def build(lc=prev, rc=child):
                return construction.combine_or(lc.build(), rc.build(),
                                               node.window)

            result = Candidate(cost, max(c_out, _MIN_CARD),
                               prev.pending + child.pending,
                               prev.provides_publish
                               | child.provides_publish, build)
        assert result is not None
        return result

    def _optimize_not(self, node: LNot, ls: float, le: float,
                      available: FrozenSet[str]) -> Candidate:
        params = self.params
        construction = self._construction
        lse = CM.lse_estimate(ls, le, self._n)
        sel_w = self._sel_w(node, ls, le, lse)
        box = max(ls * le * sel_w, _MIN_CARD)

        child_full = self._optimize(node.child, ls, le, available)
        if child_full.pending:
            raise PlanError("conditions cannot lift out of a Not")
        c_in = child_full.out_card
        if _contains_concat(node.child):
            c_in = expected_distinct(c_in, box)
        c_out = max(box - c_in, _MIN_CARD)

        mat_cost = params.f_op("MaterializeNot", c_in + c_out) \
            + child_full.cost

        child_unit = self._optimize(node.child, 1.0, 1.0, available)
        unit_in = max(child_unit.out_card, 1.0)
        probe_cost = params.f_op("ProbeNot", child_unit.out_card + c_out) \
            + box * (child_unit.cost / unit_in + params.probe_overhead)

        if probe_cost < mat_cost and self.allow_probes:
            cost, impl, child = probe_cost, NOT_PROBE, child_unit
        else:
            cost, impl, child = mat_cost, NOT_MATERIALIZE, child_full

        def build(ch=child, impl=impl):
            return construction.build_not(ch.build(), node.window, impl)

        return Candidate(cost, c_out, (), frozenset(), build)

    def _optimize_kleene(self, node: LKleene, ls: float, le: float,
                         available: FrozenSet[str]) -> Candidate:
        params = self.params
        construction = self._construction
        lse = CM.lse_estimate(ls, le, self._n)
        child = self._optimize(node.child, lse, lse, available)
        if child.pending:
            raise PlanError("conditions cannot lift out of a Kleene body")
        c_in = child.out_card
        window_bounds = self._window_bounds(node)
        child_bounds = self._duration_bounds(node.child)
        sel1 = max(CM.containment_selectivity(window_bounds, child_bounds,
                                              lse), 1e-9)
        sel2 = max(CM.concat_window_selectivity(window_bounds, child_bounds,
                                                child_bounds, node.gap, lse),
                   1e-9)
        ratio = (ls * le) / max(lse * lse, 1.0)
        c_out = c_in * ratio * sel1 + (c_in ** 2) * ratio / max(lse, 1.0) \
            * sel2
        c_out = max(c_out, _MIN_CARD)
        cost = params.f_op("MaterializeKleene", c_in + c_out) + child.cost

        def build(ch=child):
            return construction.build_kleene(ch.build(), node)

        return Candidate(cost, c_out, (), frozenset(), build)


class _AndSubset:
    """Nested And-subset DP evaluated at probe-space range sizes."""

    def __init__(self, planner: CostBasedPlanner, node: LAnd,
                 indices: FrozenSet[int], avail: FrozenSet[str]):
        self.planner = planner
        self.node = node
        self.indices = indices
        self.avail = avail

    def solve(self, ls: float, le: float) -> Candidate:
        planner = self.planner
        node = self.node
        params = planner.params
        construction = planner._construction
        lse = CM.lse_estimate(ls, le, planner._n)
        sel_w = planner._sel_w(node, ls, le, lse)
        box = max(ls * le * sel_w, _MIN_CARD)
        members = sorted(self.indices)
        # Probe-space subsets are small; fold left-deep with RightProbeAnd
        # (all children probed at the exact segment anyway).
        result = planner._resolve_pending(
            planner._optimize(node.parts[members[0]], ls, le, self.avail),
            self.avail, node.window)
        for index in members[1:]:
            avail = self.avail | result.provides_publish
            nxt = planner._resolve_pending(
                planner._optimize(node.parts[index], ls, le, avail), avail,
                node.window)
            c_out = max(result.out_card * nxt.out_card / box, _MIN_CARD)
            impl = RIGHT_PROBE if planner.allow_probes else SORT_MERGE
            cost = params.f_op(
                "RightProbeAnd" if impl == RIGHT_PROBE else "SortMergeAnd",
                result.out_card + nxt.out_card + c_out) \
                + result.cost + nxt.cost
            prev = result

            def build(lc=prev, rc=nxt, impl=impl):
                return construction.combine_and(lc.build(), rc.build(),
                                                node.window, impl)

            result = Candidate(cost, c_out, prev.pending + nxt.pending,
                               prev.provides_publish | nxt.provides_publish,
                               build)
        return result


def _contains_concat(node: LogicalNode) -> bool:
    from repro.plan.logical import walk
    return any(isinstance(sub, (LConcat, LKleene)) for sub in walk(node))
