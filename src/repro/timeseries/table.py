"""Relational input tables and PARTITION BY / ORDER BY series construction."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import DataError
from repro.timeseries.series import Series, concat_keys


def _first_seen_rank(values: np.ndarray) -> np.ndarray:
    """Rank of each element's value by first appearance (equal -> same)."""
    seen: Dict[object, int] = {}
    return np.fromiter((seen.setdefault(value, len(seen))
                        for value in values), np.int64, len(values))


class Table:
    """A columnar relational table of timestamped records.

    This is the substrate the query's ``PARTITION BY`` / ``ORDER BY`` clauses
    operate on: :meth:`partition` groups rows by the partition columns, sorts
    each group by the order column and yields one :class:`Series` per group
    (Section 3, "Time Series Data Model").

    A table is immutable (read-only column views) and memoises its
    partitions, so every query over it sees the same :class:`Series`
    objects and the state resident on them; new data is a new ``Table``.
    """

    def __init__(self, columns: Dict[str, Sequence], time_unit: str = "DAY",
                 nan_policy: str = "allow"):
        if nan_policy not in Series.NAN_POLICIES:
            raise DataError(f"nan_policy must be one of "
                            f"{Series.NAN_POLICIES}, got {nan_policy!r}")
        self._columns: Dict[str, np.ndarray] = {}
        length = None
        for name, values in columns.items():
            arr = np.asarray(values)
            if arr.ndim != 1:
                raise DataError(f"column {name!r} must be 1-D")
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise DataError(f"column {name!r} has length {len(arr)}, "
                                f"expected {length}")
            # A read-only *view*: the caller's own array stays writable.
            arr = arr.view()
            arr.flags.writeable = False
            self._columns[name] = arr
        if length is None:
            raise DataError("a table needs at least one column")
        self._length = length
        self.time_unit = time_unit
        #: Non-finite handling threaded into every Series this table
        #: partitions into (see :class:`Series` for the semantics).
        self.nan_policy = nan_policy
        self._partitions: Dict[tuple, List[Series]] = {}

    def __len__(self) -> int:
        return self._length

    @property
    def column_names(self) -> List[str]:
        return sorted(self._columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise DataError(f"unknown column {name!r}; available: "
                            f"{self.column_names}") from None

    def partition(self, partition_by: Optional[Sequence[str]],
                  order_by: str) -> List[Series]:
        """Build one ordered :class:`Series` per partition key.

        ``partition_by`` may be ``None`` or empty for single-series tables.
        Partitions are returned in deterministic (sorted key) order.
        The series are built once per ``(partition_by, order_by,
        time_unit, nan_policy)``; the list is the caller's own.
        """
        key = (tuple(partition_by or ()), order_by, self.time_unit,
               self.nan_policy)
        series_list = self._partitions.get(key)
        if series_list is None:
            # setdefault: of racing builders the first to publish wins.
            series_list = self._partitions.setdefault(
                key, self._build_partitions(partition_by, order_by))
        return list(series_list)

    def _build_partitions(self, partition_by: Optional[Sequence[str]],
                          order_by: str) -> List[Series]:
        if order_by not in self._columns:
            raise DataError(f"ORDER BY column {order_by!r} not in table")
        partition_by = list(partition_by or [])
        for name in partition_by:
            if name not in self._columns:
                raise DataError(f"PARTITION BY column {name!r} not in table")

        if not partition_by:
            order = np.argsort(self._columns[order_by], kind="stable")
            columns = {name: arr[order] for name, arr in self._columns.items()}
            return [Series(columns, order_by, key=(),
                           time_unit=self.time_unit,
                           nan_policy=self.nan_policy)]

        if not self._length:
            return []
        key_arrays = [self._columns[name] for name in partition_by]
        # One stable sort puts equal keys side by side, each group still in
        # table order; object columns (not sortable in general) are ranked
        # by first appearance instead.
        order = np.lexsort([_first_seen_rank(arr) if arr.dtype == object
                            else arr for arr in reversed(key_arrays)])
        boundary = np.zeros(self._length - 1, dtype=bool)
        for arr in key_arrays:
            ranked = arr[order]
            boundary |= ranked[1:] != ranked[:-1]
        # Keyed in order of first appearance, as concat_keys' stable sort
        # expects for keys that print alike.
        groups: Dict[tuple, np.ndarray] = {
            tuple(arr[rows[0]] for arr in key_arrays): rows
            for rows in sorted(np.split(order, np.flatnonzero(boundary) + 1),
                               key=lambda rows: rows[0])}

        series_list: List[Series] = []
        for key in concat_keys(groups):
            rows = groups[key]
            rows = rows[np.argsort(self._columns[order_by][rows],
                                   kind="stable")]
            columns = {name: arr[rows] for name, arr in self._columns.items()}
            series_list.append(
                Series(columns, order_by, key=key, time_unit=self.time_unit,
                       nan_policy=self.nan_policy))
        return series_list

    @classmethod
    def from_series(cls, series_list: Sequence[Series],
                    partition_column: str = "series_id") -> "Table":
        """Flatten already-built series back into one table (testing aid)."""
        if not series_list:
            raise DataError("no series given")
        names = set(series_list[0].column_names)
        columns: Dict[str, list] = {name: [] for name in names}
        keys: List[object] = []
        for idx, series in enumerate(series_list):
            if set(series.column_names) != names:
                raise DataError("series have inconsistent columns")
            for name in names:
                columns[name].extend(series.column(name).tolist())
            label = series.key[0] if series.key else idx
            keys.extend([label] * len(series))
        columns[partition_column] = keys
        return cls(columns, time_unit=series_list[0].time_unit)

    def __repr__(self) -> str:
        return f"Table(n={self._length}, columns={self.column_names})"
