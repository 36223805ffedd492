"""Not physical operators (Section 4.4.2).

Both emit the windowed segments of the search space that the child does
*not* match.  :class:`MaterializeNot` evaluates the child once over the
whole space and emits the complement; :class:`ProbeNot` probes the child
per candidate segment with an exact search space, closing the child's
iterator after the first hit.  The optimizer picks between them based on
the number of candidates (Figure 10).  Both walk the windowed
candidates through the leaves' enumerator
(:func:`repro.exec.vector.candidate_runs`); :class:`MaterializeNot`
answers all its spaces at once, as an owner-tagged batch, while
:class:`ProbeNot` stays per space: its early exit is per candidate.

Thanks to the ``refs`` argument, the negated sub-pattern may freely
reference variables matched outside the Not — no post-processing needed.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, Sequence

import numpy as np

from repro.exec import vector
from repro.exec.base import (Env, ExecContext, PhysicalOperator, SetOperator,
                             clamp_spaces)
from repro.exec.batch import Batch
from repro.lang.windows import WindowConjunction
from repro.plan.search_space import SearchSpace
from repro.timeseries.segment import Segment


class _NotBase(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, window: WindowConjunction,
                 publish: FrozenSet[str] = frozenset(),
                 requires: FrozenSet[str] = frozenset()):
        super().__init__(window, publish=publish, requires=requires)
        self.child = child

    def children(self):
        return (self.child,)


class MaterializeNot(SetOperator, _NotBase):
    """Materialize all child matches, emit the windowed complement."""

    name = "MaterializeNot"

    def answer(self, ctx: ExecContext, spaces: Sequence[SearchSpace],
               refs: Env) -> Batch:
        self.check_refs(refs)
        owners, live = clamp_spaces(ctx, spaces)
        matched = self.drain(ctx, self.child, live,
                             [owners[owner] for owner in live], refs)
        owner, starts, ends = vector.candidates(self.window, ctx, owners,
                                                live)
        n = len(ctx.series)
        free = ~np.isin((owner * n + starts) * n + ends,
                        (matched.owners * n + matched.starts) * n
                        + matched.ends)
        return Batch.leaf(owner[free], starts[free], ends[free], len(spaces))


class ProbeNot(_NotBase):
    """Probe the child once per windowed candidate segment."""

    name = "ProbeNot"

    def eval(self, ctx: ExecContext, sp: SearchSpace,
             refs: Env) -> Iterator[Segment]:
        self.check_refs(refs)
        sp = sp.clamp(len(ctx.series))
        if sp.is_empty():
            return
        for start, end in vector.pairs(
                *vector.candidate_runs(self.window, ctx, sp)):
            ctx.tick()
            probe = SearchSpace.exact(start, end)
            ctx.stats["probe_calls"] += 1
            ctx.count(self, "probe_calls")
            # The iterator is closed after the first hit (cheap negation).
            hit = next(iter(self.child.eval(ctx, probe, refs)), None)
            if hit is None:
                ctx.stats["segments_emitted"] += 1
                yield Segment(start, end)
