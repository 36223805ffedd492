"""Nested-AFA baseline ([43], Section 6.3).

Evaluates nested patterns "top-down": the outer pattern runs first with
inner nested sub-patterns (Not bodies) treated as match-all placeholders;
then each inner pattern is evaluated only under the search-space conditions
inferred from the outer matches, with results materialized and shared
across outer candidates.  Only a Not that spans the whole match (the
root, or an And conjunct of it) is split off this way; one inside a
Concat, an Or or a Kleene closure stays in the outer automaton.  For
patterns without such a Not the executor reverts to plain AFA — as does
the original algorithm, which also cannot evaluate nested segments inside
a Kleene closure.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Set, Tuple

from repro.baselines.afa import AFAExecutor
from repro.lang.query import Query
from repro.plan.logical import LAnd, LNot, LogicalNode, build_logical_plan
from repro.timeseries.series import Series


def _replaceable_nots(plan: LogicalNode) -> List[LNot]:
    """Not nodes that span the whole match: the root, or reached from it
    through And nodes only (the nesting [43] can split off).  The inner
    check tests a Not body against the outer match's own bounds, so a Not
    under a Concat, an Or or a Kleene stays in the outer pattern."""
    if isinstance(plan, LNot):
        return [plan]
    if isinstance(plan, LAnd):
        return [node for part in plan.parts
                for node in _replaceable_nots(part)]
    return []


class NestedAFAExecutor:
    """Top-down nested evaluation wrapped around the AFA executor."""

    name = "Nested-AFA"

    def __init__(self, query: Query, sharing: bool = True,
                 hand_tuned: bool = True):
        self.query = query
        self.sharing = sharing
        self.hand_tuned = hand_tuned
        self.plan = build_logical_plan(query)
        self._nots = _replaceable_nots(self.plan)
        self._afa = AFAExecutor(query, sharing=sharing,
                                hand_tuned=hand_tuned)

    @property
    def is_nested(self) -> bool:
        return bool(self._nots)

    def match_series(self, series: Series) -> List[Tuple[int, int]]:
        if not self._nots:
            return self._afa.match_series(series)
        # Phase 1: outer pattern with Not bodies as match-all placeholders.
        outer = copy.deepcopy(self.plan)
        placeholder_ids = {node.node_id for node in self._nots}
        outer_afa = AFAExecutor.__new__(AFAExecutor)
        outer_afa.query = self.query
        outer_afa.plan = _with_placeholder_nots(outer, placeholder_ids)
        outer_afa.sharing = self.sharing
        outer_afa.hand_tuned = self.hand_tuned
        outer_afa.timeout_seconds = self._afa.timeout_seconds
        outer_matches = outer_afa.match_series(series)
        if not outer_matches:
            return []
        # Phase 2: evaluate each inner (negated) pattern only on the
        # segments the outer matches propose, sharing results.
        inner_cache: Dict[Tuple[int, int, int], bool] = {}
        results: List[Tuple[int, int]] = []
        full_afa = self._afa
        full_afa_ctx_ready = False
        for start, end in outer_matches:
            ok = True
            for not_node in self._nots:
                key = (not_node.node_id, start, end)
                verdict = inner_cache.get(key)
                if verdict is None:
                    if not full_afa_ctx_ready:
                        # Prepare context lazily on the real plan.
                        full_afa.match_series_prepare(series)
                        full_afa_ctx_ready = True
                    child_ends = full_afa._ends(not_node.child, start, {})
                    verdict = all(e != end for e, _env in child_ends)
                    inner_cache[key] = verdict
                if not verdict:
                    ok = False
                    break
            if ok:
                results.append((start, end))
        return sorted(results)


def _with_placeholder_nots(plan: LogicalNode,
                           placeholder_ids: Set[int]) -> LogicalNode:
    """Rewrite Not nodes into always-true placeholders in a deep copy.

    A Not constrained by a window matches exactly the windowed complement;
    as a placeholder it accepts every windowed segment, which the shared
    :class:`~repro.plan.logical.LNot` would model with an always-empty
    child.  The simplest faithful placeholder keeps the node but replaces
    its child with an unsatisfiable pattern; since building one requires a
    variable definition, we instead drop the Not from And parents and
    replace standalone Nots with their windowed universe.
    """
    from repro.lang.query import VarDef
    from repro.plan.logical import LVar

    def rewrite(node: LogicalNode) -> LogicalNode:
        if isinstance(node, LNot) and node.node_id in placeholder_ids:
            wild = VarDef(name=f"__nested_placeholder_{node.node_id}",
                          is_segment=True)
            return LVar(window=node.window, var=wild)
        for attr in ("parts",):
            if hasattr(node, attr):
                setattr(node, attr,
                        tuple(rewrite(child) for child in getattr(node, attr)))
        if hasattr(node, "child") and getattr(node, "child", None) is not None:
            node.child = rewrite(node.child)
        return node

    return rewrite(plan)
