"""Aggregate interface with computation sharing (Section 4.2).

An :class:`Aggregate` evaluates a scalar over one segment's column values
(or, for multi-segment aggregates like ``corr``, over several segments').
Aggregates that can amortize work across overlapping segments additionally
implement :meth:`Aggregate.build_index`, returning an
:class:`AggregateIndex` whose :meth:`AggregateIndex.lookup` answers a single
segment in (near-)constant time.  This is the paper's ``index()`` /
``lookup()`` primitive pair.

Cost shapes (``'C'``/``'L'``/``'Q'`` for constant/linear/quadratic) annotate
how indexing cost scales with the search-space start–end range size and how
per-segment evaluation cost scales with segment length; the optimizer's cost
model consumes them (Appendix D.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AggregateError

#: Valid cost-shape annotations.
COST_SHAPES = ("C", "L", "Q")

#: An exact batch form: ``kernel(starts, ends) -> float64 values`` over
#: parallel int64 bound arrays.
BatchKernel = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Cap on the cells of any 2-D temporary a batch kernel materializes
#: (pairwise-sign blocks, context-window rows), so a kernel's transient
#: memory is a few hundred KiB whatever the batch or segment size.
BLOCK_CELLS = 1 << 14


class AggregateIndex(ABC):
    """Query-time index over a whole series for one aggregate call."""

    #: ``True`` when lookups materialize more of the index after it is
    #: built: the series it is resident on then re-reads its size.
    grows = False

    @abstractmethod
    def lookup(self, start: int, end: int) -> float:
        """Aggregate value over the inclusive segment ``[start, end]``."""

    # trex: no-tick(scalar loop over one already-ticked candidate batch)
    def lookup_batch(self, starts: np.ndarray,
                     ends: np.ndarray) -> np.ndarray:
        """Vector of :meth:`lookup` values over parallel bound arrays.

        The default scalar loop is correct for any index.  An index
        whose aggregate declares :attr:`Aggregate.batch_lookup` overrides
        it with an array implementation that reproduces ``lookup``
        bit-for-bit; that declaration is what admits the aggregate to
        the vector leaf (``repro.exec.vector``).
        """
        out = np.empty(len(starts), dtype=np.float64)
        for i in range(len(starts)):
            out[i] = self.lookup(int(starts[i]), int(ends[i]))
        return out

    def materialize_all(self) -> None:
        """Eagerly build the complete index.

        Indexes that materialize lazily override this; forced computation
        sharing (the baselines of Figure 22b) calls it so the full upfront
        cost is actually paid, as in the paper's eager ``index()``.
        """


class Aggregate(ABC):
    """A named aggregate over segment column values.

    Subclasses set:

    ``name``
        registry key (lowercase).
    ``num_columns``
        number of column arguments (each resolved to a value array over a
        segment before evaluation).
    ``num_extra``
        number of scalar extra arguments (e.g. a context size).
    ``direct_cost_shape``
        cost of one direct evaluation as a function of segment length.
    ``index_cost_shape`` / ``lookup_cost_shape``
        cost of building the index as a function of the start–end range
        size, and of one lookup as a function of segment length; ``None``
        when the aggregate does not support indexing.
    ``batch_lookup``
        ``True`` when :meth:`build_index` returns an index whose
        ``lookup_batch`` is an exact array form of ``lookup``.  The
        direct-evaluation counterpart is declared by overriding
        :meth:`batch_kernel`.  Both are capability declarations the
        vector leaf reads instead of a name list, so a registered UDA
        with exact batch forms joins without touching the executor;
        ``tests/test_batch_kernel_parity.py`` holds every declaration to
        bitwise equality with the scalar form.
    """

    name: str = ""
    num_columns: int = 1
    num_extra: int = 0
    direct_cost_shape: str = "L"
    index_cost_shape: Optional[str] = None
    lookup_cost_shape: Optional[str] = None
    batch_lookup: bool = False
    #: Evaluated through ``evaluate_with_context`` (the full column plus
    #: the segment bounds) instead of :meth:`evaluate` over slices.
    needs_series_context: bool = False

    @property
    def supports_index(self) -> bool:
        """Whether :meth:`build_index` is implemented."""
        return self.index_cost_shape is not None

    @property
    def has_batch_kernel(self) -> bool:
        """Whether the aggregate overrides :meth:`batch_kernel`."""
        return type(self).batch_kernel is not Aggregate.batch_kernel

    @abstractmethod
    def evaluate(self, arrays: Sequence[np.ndarray],
                 extra: Sequence[float]) -> float:
        """Direct evaluation over already-sliced column arrays."""

    def build_index(self, columns: Sequence[np.ndarray],
                    extra: Sequence[float]) -> AggregateIndex:
        """Build a whole-series index (only if :attr:`supports_index`).

        ``columns`` are the *full* series arrays, not segment slices.
        """
        raise AggregateError(
            f"aggregate {self.name!r} does not support indexing")

    def batch_kernel(self, columns: Sequence[np.ndarray],
                     extra: Sequence[float]) -> Optional[BatchKernel]:
        """Exact batch form of direct evaluation over one series.

        ``columns`` are the *full* float64 series arrays.  The returned
        kernel maps parallel ``(starts, ends)`` arrays to the values
        :meth:`evaluate` (or ``evaluate_with_context``) returns for each
        segment, bit for bit; whatever it precomputes lives as long as
        the caller keeps it (one leaf over one series).  ``None`` means
        "no exact batch form for these arguments": the caller evaluates
        per segment, so argument errors surface from the scalar site.
        """
        return None

    def validate_call(self, n_columns: int, n_extra: int) -> None:
        """Raise :class:`AggregateError` when the call shape is wrong."""
        if n_columns != self.num_columns or n_extra != self.num_extra:
            raise AggregateError(
                f"{self.name}() expects {self.num_columns} column argument(s) "
                f"and {self.num_extra} scalar argument(s); got {n_columns} "
                f"and {n_extra}")

    def __repr__(self) -> str:
        return f"<aggregate {self.name}>"


# trex: no-tick(bounded by the aggregate's column arity)
def as_float_arrays(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Coerce column slices to float arrays, rejecting non-numeric data."""
    out = []
    for arr in arrays:
        if arr.dtype == object:
            raise AggregateError("aggregate applied to non-numeric column")
        out.append(np.asarray(arr, dtype=np.float64))
    return out


def segment_pair(arrays: Sequence[np.ndarray]) \
        -> Tuple[np.ndarray, np.ndarray]:
    """Unpack exactly two column arrays (helper for binary aggregates)."""
    if len(arrays) != 2:
        raise AggregateError(f"expected 2 column arguments, got {len(arrays)}")
    first, second = as_float_arrays(arrays)
    return first, second
