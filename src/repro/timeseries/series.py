"""In-memory columnar time series.

A :class:`Series` stores one ordered partition of the input data.  Columns
are numpy arrays; one column is designated the *order column* (typically the
timestamp) and must be non-decreasing.  Segments address the series by
integer index positions, so a segment ``[i, j]`` can be sliced in O(1).

A series is immutable (read-only columns), so state that is a pure
function of it — symbolic summary, aggregate indexes, plan-cache
fingerprint — is kept *on* it (:meth:`Series.derived`) and lives as long
as it does: new data is a new ``Series``, identity is the invalidation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from repro.errors import DataError

#: Cap on the resident bytes of state derived from one series
#: (:meth:`Series.derived`); least recently used entries go first.
DERIVED_BYTES_CAP = 32 << 20

#: Charged per entry on top of its array bytes: the key, the entry and
#: the Python objects around the arrays (a drawn sample measures ~1.4
#: KiB of them), so many small entries are bounded like a few big ones.
DERIVED_ENTRY_BYTES = 2 << 10


def resident_bytes(value: object, _seen: Optional[Set[int]] = None) -> int:
    """Array bytes reachable from ``value`` (an index, a summary);
    containers are snapshotted before they are walked, so an index can
    be measured while another thread grows it by whole-row replacement."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if value is None or isinstance(value, (int, float, str)):
        return 0
    seen = set() if _seen is None else _seen
    if id(value) in seen:
        return 0
    seen.add(id(value))
    if isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, (list, tuple)):
        value = [getattr(value, name, None) for klass in type(value).__mro__
                 for name in klass.__dict__.get("__slots__", ())] \
            + list(getattr(value, "__dict__", {}).values())
    return sum(resident_bytes(part, seen) for part in value)


class Series:
    """One ordered time series partition.

    Parameters
    ----------
    columns:
        Mapping of column name to a 1-D sequence of values.  Numeric columns
        are stored as ``float64`` numpy arrays; non-numeric columns (e.g.
        string tickers) are stored as object arrays and may only be used in
        equality conditions.
    order_column:
        Name of the column the series is ordered by (must be non-decreasing).
    key:
        Partition key value(s), kept for labeling results.
    time_unit:
        Unit in which the order column counts time (``'DAY'``, ``'HOUR'``,
        ...).  Used to convert time-based window bounds.
    nan_policy:
        What to do with non-finite values (NaN/±inf) in numeric columns:
        ``'allow'`` (default) keeps them — aggregates then see them
        verbatim; ``'raise'`` rejects the series with a
        :class:`~repro.errors.DataError` naming the first offending cell;
        ``'omit'`` masks out every row that has a non-finite value in any
        numeric column.  See docs/ROBUSTNESS.md.
    """

    NAN_POLICIES = ("allow", "raise", "omit")

    def __init__(self, columns: Dict[str, Sequence], order_column: str,
                 key: Optional[tuple] = None, time_unit: str = "DAY",
                 nan_policy: str = "allow"):
        if order_column not in columns:
            raise DataError(
                f"order column {order_column!r} missing from columns "
                            f"{sorted(columns)}")
        if nan_policy not in self.NAN_POLICIES:
            raise DataError(f"nan_policy must be one of "
                            f"{self.NAN_POLICIES}, got {nan_policy!r}")
        self._columns: Dict[str, np.ndarray] = {}
        length = None
        for name, values in columns.items():
            arr = self._to_array(name, values)
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise DataError(f"column {name!r} has length {len(arr)}, "
                                f"expected {length}")
            self._columns[name] = arr
        if nan_policy != "allow":
            self._apply_nan_policy(nan_policy, key)
        self.order_column = order_column
        self.key = key if key is not None else ()
        self.time_unit = time_unit
        order = self._columns[order_column]
        if len(order) > 1 and np.any(np.diff(order.astype(np.float64)) < 0):
            raise DataError(f"order column {order_column!r} is not sorted for "
                            f"partition {key!r}")
        for arr in self._columns.values():
            arr.flags.writeable = False
        self._init_derived()

    # -- resident derived state ---------------------------------------------

    def _init_derived(self) -> None:
        #: key -> [value, resident bytes], least recently used first.
        self._derived: "OrderedDict[Hashable, list]" = OrderedDict()
        self._derived_bytes = 0
        self._derived_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Derived state stays with its process: a worker payload never grows.
        return {name: value for name, value in self.__dict__.items()
                if not name.startswith("_derived")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_derived()

    def derived(self, key: Hashable,
                build: Callable[[], object]) -> Tuple[object, bool]:
        """``(value, built)``: the value resident under ``key``, built on
        first use by ``build()``, a pure function of this series.  It
        runs outside the lock (slow, may raise — then nothing is stored);
        of racing builders the first to publish wins for all of them."""
        with self._derived_lock:
            entry = self._derived.get(key)
            if entry is not None:
                self._derived.move_to_end(key)
                return entry[0], False
        value = build()
        with self._derived_lock:
            entry = self._derived.setdefault(key, [value, 0])
        if entry[0] is value:
            self.settle_derived((key,))
        return entry[0], True

    def settle_derived(self, keys: Iterable[Hashable]) -> None:
        """Re-read the sizes under ``keys`` (an index may grow after it
        is stored) and evict down to :data:`DERIVED_BYTES_CAP`; an entry
        over the cap on its own is not kept."""
        with self._derived_lock:
            for entry in filter(None, map(self._derived.get, keys)):
                size = resident_bytes(entry[0]) + DERIVED_ENTRY_BYTES
                self._derived_bytes += size - entry[1]
                entry[1] = size
            while self._derived_bytes > DERIVED_BYTES_CAP and self._derived:
                self._derived_bytes -= self._derived.popitem(last=False)[1][1]

    def drop_derived(self, key: Optional[Hashable] = None) -> None:
        """Forget the entry under ``key``, or everything when ``None``."""
        with self._derived_lock:
            for each in list(self._derived) if key is None else [key]:
                self._derived_bytes -= self._derived.pop(each, (None, 0))[1]

    def _apply_nan_policy(self, nan_policy: str,
                          key: Optional[tuple]) -> None:
        keep: Optional[np.ndarray] = None
        for name in sorted(self._columns):
            arr = self._columns[name]
            if arr.dtype.kind != "f":
                continue
            finite = np.isfinite(arr)
            if finite.all():
                continue
            if nan_policy == "raise":
                row = int(np.flatnonzero(~finite)[0])
                raise DataError(
                    f"column {name!r} has a non-finite value at row {row} "
                    f"for partition {key!r} (nan_policy='raise'); load "
                    f"with nan_policy='omit' to mask such rows")
            keep = finite if keep is None else (keep & finite)
        if keep is not None:
            self._columns = {name: arr[keep]
                             for name, arr in self._columns.items()}

    @staticmethod
    def _to_array(name: str, values: Sequence) -> np.ndarray:
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise DataError(
                f"column {name!r} must be 1-D, got shape {arr.shape}")
        if arr.dtype.kind in "iuf b".replace(" ", ""):
            return arr.astype(np.float64)
        return arr.astype(object)

    def __len__(self) -> int:
        return len(self._columns[self.order_column])

    @property
    def column_names(self) -> List[str]:
        """Names of all columns, sorted for determinism."""
        return sorted(self._columns)

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def column(self, name: str) -> np.ndarray:
        """The full array for a column."""
        try:
            return self._columns[name]
        except KeyError:
            raise DataError(f"unknown column {name!r}; available: "
                            f"{self.column_names}") from None

    def is_numeric(self, name: str) -> bool:
        """Whether ``name`` exists and is stored as a float64 column."""
        arr = self._columns.get(name)
        return arr is not None and arr.dtype == np.float64

    def float_column(self, name: str) -> np.ndarray:
        """The contiguous float64 buffer for a numeric column.

        The vectorized kernels (``repro.exec.vector``) index these
        arrays wholesale; construction already stores numeric columns as
        C-contiguous float64 (:meth:`_to_array`), so this is a dict
        lookup plus a dtype guard, never a copy.
        """
        arr = self.column(name)
        if arr.dtype != np.float64:
            numeric = [c for c in self.column_names if self.is_numeric(c)]
            raise DataError(f"column {name!r} is not numeric; numeric "
                            f"columns: {numeric}")
        return arr

    def values(self, name: str, start: int, end: int) -> np.ndarray:
        """Values of ``name`` over the inclusive segment ``[start, end]``."""
        return self._columns[name][start:end + 1]

    def value_at(self, name: str, index: int) -> object:
        """Single value of column ``name`` at ``index``."""
        try:
            return self._columns[name][index]
        except KeyError:
            raise DataError(f"unknown column {name!r}; available: "
                            f"{self.column_names}") from None

    @property
    def timestamps(self) -> np.ndarray:
        """The order column's values."""
        return self._columns[self.order_column]

    def duration(self, start: int, end: int) -> float:
        """Time-duration of the inclusive segment ``[start, end]``."""
        order = self._columns[self.order_column]
        return float(order[end] - order[start])

    def label(self) -> str:
        """Human-readable partition label."""
        if not self.key:
            return "<series>"
        return "/".join(str(part) for part in self.key)

    def __repr__(self) -> str:
        return (f"Series(key={self.key!r}, n={len(self)}, "
                f"columns={self.column_names})")


def concat_keys(keys: Iterable[tuple]) -> List[tuple]:
    """Stable, deterministic ordering of partition keys."""
    return sorted(keys, key=lambda k: tuple(str(part) for part in k))
