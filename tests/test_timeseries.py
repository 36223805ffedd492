"""Unit tests for the time-series substrate (series, tables, segments)."""

import numpy as np
import pytest

from repro.errors import DataError
from repro.timeseries.segment import Segment
from repro.timeseries.series import Series, concat_keys
from repro.timeseries.table import Table
from repro.timeseries.timeunits import to_base_units

from tests.conftest import make_series


class TestSegment:
    def test_bounds_and_duration(self):
        segment = Segment(3, 7)
        assert segment.bounds == (3, 7)
        assert segment.duration == 4
        assert segment.num_points == 5

    def test_single_point(self):
        segment = Segment(5, 5)
        assert segment.is_point()
        assert segment.duration == 0

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            Segment(7, 3)

    def test_equality_includes_payload(self):
        base = Segment(1, 4)
        with_ref = Segment(1, 4, {"UP": (0, 2)})
        assert base != with_ref
        assert with_ref == Segment(1, 4, {"UP": (0, 2)})

    def test_hash_consistency(self):
        a = Segment(1, 4, {"X": (0, 1)})
        b = Segment(1, 4, {"X": (0, 1)})
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_with_payload_merges(self):
        segment = Segment(1, 4, {"A": (1, 2)})
        merged = segment.with_payload({"B": (3, 4)})
        assert merged.payload == {"A": (1, 2), "B": (3, 4)}
        # Original untouched.
        assert segment.payload == {"A": (1, 2)}

    def test_with_payload_empty_returns_self(self):
        segment = Segment(1, 4)
        assert segment.with_payload({}) is segment

    def test_project_payload(self):
        segment = Segment(1, 4, {"A": (1, 2), "B": (3, 4)})
        projected = segment.project_payload(frozenset({"B"}))
        assert projected.payload == {"B": (3, 4)}

    def test_without_payload(self):
        segment = Segment(1, 4, {"A": (1, 2)})
        assert segment.without_payload().payload == {}

    def test_payload_key_sorted(self):
        segment = Segment(0, 9, {"B": (1, 2), "A": (3, 4)})
        assert segment.payload_key() == (("A", (3, 4)), ("B", (1, 2)))

    def test_repr_mentions_refs(self):
        assert "UP" in repr(Segment(0, 3, {"UP": (0, 1)}))


class TestSeries:
    def test_basic_access(self):
        series = make_series([1.0, 2.0, 3.0])
        assert len(series) == 3
        assert series.value_at("val", 1) == 2.0
        assert list(series.values("val", 1, 2)) == [2.0, 3.0]

    def test_duration_uses_order_column(self):
        series = make_series([1, 2, 3], timestamps=[0.0, 10.0, 25.0])
        assert series.duration(0, 2) == 25.0

    def test_unsorted_order_column_rejected(self):
        with pytest.raises(DataError):
            make_series([1, 2, 3], timestamps=[2.0, 1.0, 3.0])

    def test_missing_order_column_rejected(self):
        with pytest.raises(DataError):
            Series({"val": [1.0]}, "tstamp")

    def test_ragged_columns_rejected(self):
        with pytest.raises(DataError):
            Series({"tstamp": [0.0, 1.0], "val": [1.0]}, "tstamp")

    def test_unknown_column_rejected(self):
        series = make_series([1.0])
        with pytest.raises(DataError):
            series.column("nope")

    def test_object_columns_allowed(self):
        series = make_series([1.0, 2.0],
                             extra={"name": np.asarray(["x", "y"],
                                                       dtype=object)})
        assert series.value_at("name", 1) == "y"

    def test_label(self):
        assert make_series([1.0], key=("NYC", 3)).label() == "NYC/3"
        assert make_series([1.0], key=()).label() == "<series>"

    def test_integer_columns_become_float(self):
        series = make_series([1, 2, 3])
        assert series.column("val").dtype == np.float64


class TestTable:
    def test_partition_by_key(self, small_table):
        series_list = small_table.partition(["ticker"], "tstamp")
        assert [s.key for s in series_list] == [("A",), ("B",)]
        assert all(len(s) == 30 for s in series_list)

    def test_partition_orders_rows(self):
        table = Table({"tstamp": [3.0, 1.0, 2.0], "val": [30, 10, 20]})
        (series,) = table.partition(None, "tstamp")
        assert list(series.column("val")) == [10.0, 20.0, 30.0]

    def test_partition_none_single_series(self, small_table):
        series_list = small_table.partition(None, "tstamp")
        assert len(series_list) == 1
        assert len(series_list[0]) == 60

    def test_unknown_partition_column(self, small_table):
        with pytest.raises(DataError):
            small_table.partition(["nope"], "tstamp")

    def test_unknown_order_column(self, small_table):
        with pytest.raises(DataError):
            small_table.partition(["ticker"], "nope")

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            Table({})

    def test_from_series_round_trip(self, small_table):
        series_list = small_table.partition(["ticker"], "tstamp")
        rebuilt = Table.from_series(series_list, partition_column="sid")
        again = rebuilt.partition(["sid"], "tstamp")
        assert len(again) == 2
        assert [len(s) for s in again] == [30, 30]

    def test_partition_keys_deterministic(self, rng):
        names = np.asarray(list("zyxw") * 5, dtype=object)
        table = Table({"tstamp": np.arange(20.0), "k": names,
                       "val": rng.normal(size=20)})
        keys = [s.key for s in table.partition(["k"], "tstamp")]
        assert keys == sorted(keys)

    @staticmethod
    def _row_loop_partition(table, partition_by, order_by):
        """The per-row grouping ``Table.partition`` used to do: the
        reference its sort-based grouping must reproduce exactly."""
        groups = {}
        key_arrays = [table.column(name) for name in partition_by]
        for row in range(len(table)):
            groups.setdefault(tuple(arr[row] for arr in key_arrays),
                              []).append(row)
        out = []
        for key in concat_keys(groups):
            rows = np.asarray(groups[key], dtype=np.int64)
            rows = rows[np.argsort(table.column(order_by)[rows],
                                   kind="stable")]
            out.append((key, {name: table.column(name)[rows]
                              for name in table.column_names}))
        return out

    @pytest.mark.parametrize("partition_by", [
        ["name"], ["code"], ["level"], ["tag"],
        ["name", "code"], ["level", "code", "name"], ["tag", "level"]])
    def test_partition_matches_row_loop(self, rng, partition_by):
        n = 400
        table = Table({
            # Unsorted, with ties: ORDER BY must sort each group stably.
            "tstamp": rng.integers(0, 50, size=n).astype(float),
            "val": rng.normal(size=n),
            "name": rng.choice(np.asarray(["b", "a", "ab", "B", "10", "9"]),
                               size=n),
            "code": rng.integers(-3, 12, size=n),
            "level": rng.choice(np.asarray([0.5, -1.0, 10.0, 9.0, 1e300]),
                                size=n),
            "tag": rng.choice(np.asarray(["x", None, 3, 2.5], dtype=object),
                              size=n),
        })
        got = table.partition(partition_by, "tstamp")
        want = self._row_loop_partition(table, partition_by, "tstamp")
        assert [s.key for s in got] == [key for key, _ in want]
        for series, (key, columns) in zip(got, want):
            assert [type(part) for part in series.key] == \
                [type(part) for part in key]
            for name, values in columns.items():
                if values.dtype.kind in "iu":  # Series stores ints as floats
                    values = values.astype(np.float64)
                assert np.array_equal(series.column(name), values), name

    def test_partition_empty_table(self):
        table = Table({"tstamp": np.empty(0), "k": np.empty(0)})
        assert table.partition(["k"], "tstamp") == []


class TestTimeUnits:
    def test_day_to_hour(self):
        assert to_base_units(2, "DAY", "HOUR") == 48.0

    def test_minute_to_second(self):
        assert to_base_units(5, "MINUTE", "SECOND") == 300.0

    def test_identity(self):
        assert to_base_units(7, "WEEK", "WEEK") == 7.0

    def test_unknown_unit(self):
        with pytest.raises(DataError):
            to_base_units(1, "FORTNIGHT", "DAY")

    def test_unknown_series_unit(self):
        with pytest.raises(DataError):
            to_base_units(1, "DAY", "EON")
