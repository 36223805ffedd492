"""Window specifications (Section 2.1, footnote 4).

Two window families exist:

* point-based ``window(lo, hi)`` — constrains the *index duration*
  ``end - start`` of a segment to ``lo <= end - start <= hi``;
* time-based ``window(col, lo, hi, unit)`` — constrains the *time duration*
  ``col[end] - col[start]``.

Fixed-size forms ``window(size)`` / ``window(col, size, unit)`` set
``lo == hi``.  A *wild* window has no constraint at all (``W AS true``).
``hi`` may be ``None`` for "unbounded above".

Windows measure **duration**, not point count: a ``w``-day window on a
daily series admits exactly ``n - w`` start positions, matching the match
counting in the paper's footnote 3.  See DESIGN.md §3.

Because a variable can accumulate several window constraints (its own plus
pushed-down parent windows), the embedded window of a plan node is a
:class:`WindowConjunction` — the intersection of point- and time-based
specs, reduced to a contiguous range of valid end positions per start
position on a concrete series.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import BindError
from repro.timeseries.series import Series
from repro.timeseries.timeunits import to_base_units


@dataclass(frozen=True)
class WindowSpec:
    """One window constraint.

    ``kind`` is ``'point'`` or ``'time'``.  For time windows ``column`` and
    ``unit`` identify the timestamp column and the unit of ``lo``/``hi``.
    """

    kind: str
    lo: float = 0.0
    hi: Optional[float] = None
    column: Optional[str] = None
    unit: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("point", "time"):
            raise BindError(f"window kind must be 'point' or 'time', got "
                            f"{self.kind!r}")
        if self.lo < 0:
            raise BindError(f"window lower bound must be >= 0, got {self.lo}")
        if self.hi is not None and self.hi < self.lo:
            raise BindError(f"window upper bound {self.hi} < lower {self.lo}")
        if self.kind == "time" and self.unit is None:
            raise BindError("time-based window needs a unit")

    @staticmethod
    def point(lo: float, hi: Optional[float]) -> "WindowSpec":
        return WindowSpec("point", float(lo),
                          None if hi is None else float(hi))

    @staticmethod
    def point_fixed(size: float) -> "WindowSpec":
        return WindowSpec("point", float(size), float(size))

    @staticmethod
    def time(column: Optional[str], lo: float, hi: Optional[float],
             unit: str) -> "WindowSpec":
        return WindowSpec("time", float(lo), None if hi is None else float(hi),
                          column, unit)

    @property
    def is_wild(self) -> bool:
        """True when the spec never rejects any segment."""
        return self.lo <= 0 and self.hi is None

    def relax_lower(self) -> "WindowSpec":
        """Keep only the upper bound (used by window push-down)."""
        return WindowSpec(self.kind, 0.0, self.hi, self.column, self.unit)

    def bounds_on(self, series: Series) -> Tuple[float, Optional[float]]:
        """(lo, hi) expressed in the series' native duration units."""
        if self.kind == "point":
            return self.lo, self.hi
        lo = to_base_units(self.lo, self.unit, series.time_unit)
        hi = None if self.hi is None else to_base_units(
            self.hi, self.unit, series.time_unit)
        return lo, hi

    def describe(self) -> str:
        hi = "inf" if self.hi is None else f"{self.hi:g}"
        if self.kind == "point":
            return f"window({self.lo:g}, {hi})"
        return f"window({self.column}, {self.lo:g}, {hi}, {self.unit})"


#: The wild window: accepts every segment.
WILD = WindowSpec.point(0.0, None)


class WindowConjunction:
    """Intersection of zero or more window specs, bound to nothing yet.

    An empty conjunction is wild.  On a concrete series the conjunction maps
    each start position to one contiguous range of admissible end positions
    (both point- and time-duration constraints are monotone in the end
    index since timestamps are sorted).
    """

    __slots__ = ("specs", "_point", "_timed")

    def __init__(self, specs: Optional[List[WindowSpec]] = None):
        merged: List[WindowSpec] = []
        for spec in specs or []:
            if not spec.is_wild:
                merged.append(spec)
        self.specs = tuple(merged)
        #: The point specs folded into one (lo, hi) index-duration bound,
        #: so end_range/start_range only loop over the time specs.
        lo = 0
        hi: Optional[int] = None
        for spec in merged:
            if spec.kind != "point":
                continue
            lo = max(lo, int(math.ceil(spec.lo)))
            if spec.hi is not None:
                spec_hi = int(math.floor(spec.hi))
                hi = spec_hi if hi is None else min(hi, spec_hi)
        self._point = (lo, hi)
        self._timed = tuple(spec for spec in merged
                            if spec.kind != "point")

    @staticmethod
    def wild() -> "WindowConjunction":
        return WindowConjunction()

    @property
    def is_wild(self) -> bool:
        return not self.specs

    def and_also(self, other: "WindowConjunction") -> "WindowConjunction":
        """Intersection of two conjunctions."""
        return WindowConjunction(list(self.specs) + list(other.specs))

    def with_spec(self, spec: WindowSpec) -> "WindowConjunction":
        return WindowConjunction(list(self.specs) + [spec])

    def relax_lower(self) -> "WindowConjunction":
        """Push-down form: only upper bounds survive (Section 3)."""
        relaxed = [spec.relax_lower() for spec in self.specs]
        return WindowConjunction(relaxed)

    def point_duration_bounds(self) -> Tuple[int, Optional[int]]:
        """Combined bounds on index duration from the point specs only."""
        return self._point

    def end_range(self, series: Series, start: int) -> Tuple[int, int]:
        """Admissible ``[end_lo, end_hi]`` for segments starting at ``start``.

        Returns an empty range (``end_lo > end_hi``) when no end position is
        admissible.  Both bounds are clamped to the series.
        """
        n = len(series)
        lo, hi = self._point
        end_lo = start + lo
        end_hi = n - 1 if hi is None else min(n - 1, start + hi)
        for spec in self._timed:
            lo, hi = spec.bounds_on(series)
            column = spec.column or series.order_column
            timestamps = series.column(column)
            base = timestamps[start]
            # Smallest end with duration >= lo; the bisect uses
            # base + lo, so fix the boundary up against the canonical
            # duration predicate (ts[e] - base), which can differ by
            # one ULP from the bisect key.
            candidate = bisect.bisect_left(timestamps, base + lo,
                                           lo=start, hi=n)
            while candidate > start and \
                    timestamps[candidate - 1] - base >= lo:
                candidate -= 1
            while candidate < n and timestamps[candidate] - base < lo:
                candidate += 1
            end_lo = max(end_lo, candidate)
            if hi is not None:
                # Largest end with duration <= hi (same fix-up).
                candidate = bisect.bisect_right(timestamps, base + hi,
                                                lo=start, hi=n) - 1
                while candidate + 1 < n and \
                        timestamps[candidate + 1] - base <= hi:
                    candidate += 1
                while candidate >= start and \
                        timestamps[candidate] - base > hi:
                    candidate -= 1
                end_hi = min(end_hi, candidate)
        return end_lo, end_hi

    def start_range(self, series: Series, end: int) -> Tuple[int, int]:
        """Admissible ``[start_lo, start_hi]`` for segments ending at ``end``
        (mirror of :meth:`end_range`)."""
        lo, hi = self._point
        start_lo = 0 if hi is None else max(0, end - hi)
        start_hi = end - lo
        for spec in self._timed:
            lo, hi = spec.bounds_on(series)
            column = spec.column or series.order_column
            timestamps = series.column(column)
            base = timestamps[end]
            # Largest start with duration >= lo, fixed up against the
            # canonical duration predicate (base - ts[s]).
            candidate = bisect.bisect_right(timestamps, base - lo,
                                            lo=0, hi=end + 1) - 1
            while candidate + 1 <= end and \
                    base - timestamps[candidate + 1] >= lo:
                candidate += 1
            while candidate >= 0 and base - timestamps[candidate] < lo:
                candidate -= 1
            start_hi = min(start_hi, candidate)
            if hi is not None:
                # Smallest start with duration <= hi (same fix-up).
                candidate = bisect.bisect_left(timestamps, base - hi,
                                               lo=0, hi=end + 1)
                while candidate > 0 and \
                        base - timestamps[candidate - 1] <= hi:
                    candidate -= 1
                while candidate <= end and \
                        base - timestamps[candidate] > hi:
                    candidate += 1
                start_lo = max(start_lo, candidate)
        return start_lo, start_hi

    def accepts(self, series: Series, start: int, end: int) -> bool:
        """Whether the inclusive ``[start, end]`` satisfies all specs."""
        for spec in self.specs:
            lo, hi = spec.bounds_on(series)
            if spec.kind == "point":
                duration = end - start
            else:
                column = spec.column or series.order_column
                values = series.column(column)
                duration = float(values[end] - values[start])
            if duration < lo:
                return False
            if hi is not None and duration > hi:
                return False
        return True

    def describe(self) -> str:
        if self.is_wild:
            return "wild"
        return " & ".join(spec.describe() for spec in self.specs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowConjunction):
            return NotImplemented
        return self.specs == other.specs

    def __hash__(self) -> int:
        return hash(self.specs)

    def __repr__(self) -> str:
        return f"WindowConjunction({self.describe()})"
