"""Segments: the unit of data flowing through the T-ReX executor.

A segment is a contiguous ``[start, end]`` (inclusive) index range of one
series.  Physical operators exchange :class:`Segment` objects; a segment may
carry a *payload* mapping variable names to the sub-segments they matched,
which implements the reference-passing mechanism of Section 4.1.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class Segment:
    """A matched segment ``[start, end]`` with an optional payload.

    The payload maps variable names to ``(start, end)`` tuples of the
    segments matched by referenced sub-patterns.  Payload entries travel up
    the plan tree until no operator above needs them (Section 4.1).

    Segments are immutable value objects: equality and hashing consider both
    the index range and the payload, so operators can deduplicate emissions
    without conflating matches that bound references differently.
    """

    __slots__ = ("start", "end", "_payload", "_key", "_hash")

    def __init__(self, start: int, end: int,
                 payload: Optional[Dict[str, Tuple[int, int]]] = None):
        if start > end:
            raise ValueError(f"segment start {start} > end {end}")
        self.start = int(start)
        self.end = int(end)
        self._payload = dict(payload) if payload else {}
        self._key = None
        self._hash = None

    @property
    def payload(self) -> Dict[str, Tuple[int, int]]:
        """Referenced sub-matches carried by this segment (read-only view)."""
        return self._payload

    @property
    def bounds(self) -> Tuple[int, int]:
        """The ``(start, end)`` tuple."""
        return (self.start, self.end)

    @property
    def duration(self) -> int:
        """Index-space duration ``end - start`` (0 for a single point)."""
        return self.end - self.start

    @property
    def num_points(self) -> int:
        """Number of points covered, ``end - start + 1``."""
        return self.end - self.start + 1

    def is_point(self) -> bool:
        """True when the segment covers exactly one point."""
        return self.start == self.end

    def with_payload(self, extra: Dict[str, Tuple[int, int]]) -> "Segment":
        """Return a copy with ``extra`` merged into the payload."""
        if not extra:
            return self
        merged = dict(self._payload)
        merged.update(extra)
        return Segment(self.start, self.end, merged)

    def without_payload(self) -> "Segment":
        """Return a payload-free copy (used once references are consumed)."""
        if not self._payload:
            return self
        return Segment(self.start, self.end)

    def project_payload(self, keep: frozenset) -> "Segment":
        """Return a copy keeping only payload keys in ``keep``."""
        if not self._payload:
            return self
        kept = {k: v for k, v in self._payload.items() if k in keep}
        if len(kept) == len(self._payload):
            return self
        return Segment(self.start, self.end, kept)

    def payload_key(self) -> Tuple[Tuple[str, Tuple[int, int]], ...]:
        """A hashable canonical form of the payload (computed once)."""
        if self._key is None:
            self._key = tuple(sorted(self._payload.items()))
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Segment):
            return NotImplemented
        return (self.start == other.start and self.end == other.end
                and self._payload == other._payload)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.start, self.end, self.payload_key()))
        return self._hash

    def __repr__(self) -> str:
        if self._payload:
            refs = ", ".join(f"{k}={v}"
                             for k, v in sorted(self._payload.items()))
            return f"Segment[{self.start}, {self.end}; {refs}]"
        return f"Segment[{self.start}, {self.end}]"
