"""Special operators (Section 4.5): sub-pattern materialization.

:class:`SubPatternCache` wraps an operator whose sub-tree appears more than
once in a physical plan; the first ``eval()`` per (search space, refs)
materializes the results, and repeats are served from the cache — the
paper's SubPattern operator.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.exec.base import Env, ExecContext, PhysicalOperator, refs_key
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment


class SubPatternCache(PhysicalOperator):
    """Memoize a repeated sub-pattern's results per (space, refs)."""

    name = "SubPattern"

    def __init__(self, child: PhysicalOperator, cache_key: str):
        super().__init__(child.window, publish=child.publish,
                         requires=child.requires)
        self.child = child
        self.cache_key = cache_key

    def children(self):
        return (self.child,)

    #: Spaces at most this many (start, end) cells stream through without
    #: caching: materializing tiny probe spaces would defeat early
    #: termination (e.g. ProbeNot closing after the first hit) and costs
    #: more than it saves.
    MIN_CELLS_TO_CACHE = 64

    def _streams(self, sp: SearchSpace) -> bool:
        return sp.start_range_size * sp.end_range_size \
            <= self.MIN_CELLS_TO_CACHE

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        if self._streams(sp):
            return self.child.eval(ctx, sp, refs)
        return iter(self._cached(ctx, sp, refs))

    def eval_spaces(self, ctx: ExecContext, spaces: Sequence[SearchSpace],
                    refs: Env) -> List[List[Segment]]:
        """The small spaces go to the child in one call, uncached; each
        large one is served from (or materialized into) the cache."""
        small = [at for at, sp in enumerate(spaces) if self._streams(sp)]
        streamed = dict(zip(small, self.child.eval_spaces(
            ctx, [spaces[at] for at in small], refs)))
        return [streamed[at] if at in streamed
                else self._cached(ctx, sp, refs)
                for at, sp in enumerate(spaces)]

    def _cached(self, ctx: ExecContext, sp: SearchSpace,
                refs: Env) -> List[Segment]:
        key = ("subpattern", self.cache_key, sp,
               refs_key(refs, self.requires))
        cached = ctx.probe_cache_get(key)
        if cached is None:
            ctx.stats["subpattern_evals"] += 1
            ctx.count(self, "subpattern_evals")
            cached = list(self.child.eval(ctx, sp, refs))
            ctx.probe_cache_put(key, cached)
        else:
            ctx.stats["subpattern_cache_hits"] += 1
            ctx.count(self, "subpattern_cache_hits")
        return cached

    def describe(self) -> str:
        return f"{self.name}({self.cache_key[:12]})"
