"""Search spaces: boxed ranges of admissible start/end positions.

A :class:`SearchSpace` ``(S = [s_lo, s_hi], E = [e_lo, e_hi])`` constrains
the segments an operator may emit: start in ``S``, end in ``E`` (both
inclusive), and implicitly ``start <= end``.  The root operator gets the
full space ``(S = [0, n-1], E = [0, n-1])`` (Section 4.1).

Concatenation *expands* the space handed to its children; probe operators
*shrink* the probed child's space to a single start (or an exact segment) —
that asymmetry is the paper's core pruning mechanism (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SearchSpace:
    """Inclusive ranges for segment start and end positions."""

    s_lo: int
    s_hi: int
    e_lo: int
    e_hi: int

    @staticmethod
    def empty() -> "SearchSpace":
        """The canonical empty space (``S = E = [0, -1]``).

        All empty spaces produced by :meth:`full` and :meth:`clamp` are
        normalized to this value so that downstream range arithmetic
        (``concat_left``/``concat_right`` offsets, ``span_size``) never
        manipulates arbitrary negative bounds — and in particular never
        hands a negative position to numpy, where it would silently wrap
        around to the end of the series.
        """
        return _EMPTY

    @staticmethod
    def full(n: int) -> "SearchSpace":
        """The root search space over a series of ``n`` points."""
        if n <= 0:
            return _EMPTY
        return SearchSpace(0, n - 1, 0, n - 1)

    @staticmethod
    def exact(start: int, end: int) -> "SearchSpace":
        """The space containing only the segment ``[start, end]``."""
        return SearchSpace(start, start, end, end)

    @property
    def start_range_size(self) -> int:
        """ℓ_s — number of admissible start positions."""
        return max(0, self.s_hi - self.s_lo + 1)

    @property
    def end_range_size(self) -> int:
        """ℓ_e — number of admissible end positions."""
        return max(0, self.e_hi - self.e_lo + 1)

    @property
    def span_size(self) -> int:
        """ℓ_se — size of the combined start–end span ``[s_lo, e_hi]``."""
        return max(0, self.e_hi - self.s_lo + 1)

    def is_empty(self) -> bool:
        """True when no segment can satisfy the space."""
        return (self.s_lo > self.s_hi or self.e_lo > self.e_hi
                or self.s_lo > self.e_hi)

    def contains(self, start: int, end: int) -> bool:
        return (self.s_lo <= start <= self.s_hi
                and self.e_lo <= end <= self.e_hi and start <= end)

    def clamp(self, n: int) -> "SearchSpace":
        """Clamp the ranges to a series of ``n`` points.

        Results that admit no segment come back as the canonical
        :meth:`empty` space rather than as whatever negative bounds the
        raw clamping arithmetic yields.
        """
        if n <= 0:
            return _EMPTY
        if self.s_lo >= 0 and self.e_lo >= 0 and self.s_hi < n \
                and self.e_hi < n:
            # Already inside (every probe space is): nothing to build.
            return _EMPTY if self.is_empty() else self
        clamped = SearchSpace(max(self.s_lo, 0), min(self.s_hi, n - 1),
                              max(self.e_lo, 0), min(self.e_hi, n - 1))
        if clamped.is_empty():
            return _EMPTY
        return clamped

    def intersect(self, other: "SearchSpace") -> "SearchSpace":
        return SearchSpace(max(self.s_lo, other.s_lo),
                           min(self.s_hi, other.s_hi),
                           max(self.e_lo, other.e_lo),
                           min(self.e_hi, other.e_hi))

    # -- concatenation propagation (Section 4.3) ---------------------------

    def concat_left(self, gap: int) -> "SearchSpace":
        """Space for a Concatenation's left child.

        Same start range; end range widens to every possible join point:
        ``E = [s_lo, e_hi - gap]`` (``gap`` is 1 for disjoint point-joins,
        0 for shared-boundary segment-joins).
        """
        return SearchSpace(self.s_lo, self.s_hi, self.s_lo, self.e_hi - gap)

    def concat_right(self, gap: int) -> "SearchSpace":
        """Space for a Concatenation's right child (mirror of the left)."""
        return SearchSpace(self.s_lo + gap, self.e_hi, self.e_lo, self.e_hi)

    def kleene_child(self) -> "SearchSpace":
        """Space handed to a Kleene's child: anywhere within the span."""
        return SearchSpace(self.s_lo, self.e_hi, self.s_lo, self.e_hi)

    def describe(self) -> str:
        return (f"(S=[{self.s_lo},{self.s_hi}], E=[{self.e_lo},{self.e_hi}])")


_EMPTY = SearchSpace(0, -1, 0, -1)
