"""Window specs and conjunctions: ranges, counting, selectivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BindError
from repro.lang.windows import WILD, WindowConjunction, WindowSpec

from tests.conftest import make_series


def conj(*specs):
    return WindowConjunction(list(specs))


class TestWindowSpec:
    def test_point_bounds(self):
        spec = WindowSpec.point(2, 5)
        assert (spec.lo, spec.hi) == (2.0, 5.0)
        assert not spec.is_wild

    def test_fixed(self):
        spec = WindowSpec.point_fixed(4)
        assert (spec.lo, spec.hi) == (4.0, 4.0)

    def test_wild(self):
        assert WILD.is_wild

    def test_unbounded_not_wild_with_lower(self):
        assert not WindowSpec.point(1, None).is_wild

    def test_negative_lower_rejected(self):
        with pytest.raises(BindError):
            WindowSpec.point(-1, 5)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(BindError):
            WindowSpec.point(5, 2)

    def test_time_needs_unit(self):
        with pytest.raises(BindError):
            WindowSpec("time", 0, 5, "tstamp", None)

    def test_relax_lower(self):
        relaxed = WindowSpec.point(3, 9).relax_lower()
        assert (relaxed.lo, relaxed.hi) == (0.0, 9.0)

    def test_time_bounds_convert_units(self):
        series = make_series(np.zeros(5), time_unit="HOUR")
        spec = WindowSpec.time("tstamp", 1, 2, "DAY")
        assert spec.bounds_on(series) == (24.0, 48.0)


class TestEndRange:
    def test_point_window(self):
        series = make_series(np.zeros(20))
        window = conj(WindowSpec.point(2, 5))
        assert window.end_range(series, 3) == (5, 8)

    def test_clamps_to_series(self):
        series = make_series(np.zeros(10))
        window = conj(WindowSpec.point(2, 50))
        assert window.end_range(series, 5) == (7, 9)

    def test_time_window_irregular_timestamps(self):
        series = make_series(np.zeros(6),
                             timestamps=[0.0, 1.0, 4.0, 5.0, 9.0, 30.0])
        window = conj(WindowSpec.time("tstamp", 0, 5, "DAY"))
        lo, hi = window.end_range(series, 0)
        assert lo == 0
        assert hi == 3  # timestamps up to 5.0

    def test_conjunction_intersects(self):
        series = make_series(np.zeros(30))
        window = conj(WindowSpec.point(2, 20), WindowSpec.point(0, 6))
        assert window.end_range(series, 0) == (2, 6)

    def test_empty_when_unsatisfiable(self):
        series = make_series(np.zeros(5))
        window = conj(WindowSpec.point(10, 20))
        lo, hi = window.end_range(series, 0)
        assert lo > hi


class TestStartRange:
    def test_mirror_of_end_range(self):
        series = make_series(np.zeros(20))
        window = conj(WindowSpec.point(2, 5))
        assert window.start_range(series, 10) == (5, 8)

    def test_time_window(self):
        series = make_series(np.zeros(6),
                             timestamps=[0.0, 1.0, 4.0, 5.0, 9.0, 30.0])
        window = conj(WindowSpec.time("tstamp", 0, 5, "DAY"))
        lo, hi = window.start_range(series, 3)
        # Starts with duration <= 5 ending at ts=5.0: ts >= 0.0 -> all of
        # 0..3 qualify for the upper bound; lower bound 0 keeps start <= 3.
        assert (lo, hi) == (0, 3)

    def test_consistency_with_accepts(self):
        series = make_series(np.zeros(25))
        window = conj(WindowSpec.point(3, 7))
        for end in range(len(series)):
            lo, hi = window.start_range(series, end)
            for start in range(0, end + 1):
                expected = window.accepts(series, start, end)
                got = lo <= start <= hi
                assert got == expected, (start, end)


class TestFoldedPointBounds:
    """Point specs are folded into one bound at construction; the ranges
    must still be exactly the positions ``accepts`` admits."""

    @given(st.lists(st.tuples(st.sampled_from([0, 0.5, 1, 2, 2.5, 7]),
                              st.sampled_from([None, 0, 1, 2.5, 5, 40])),
                    max_size=3),
           st.integers(1, 24))
    @settings(max_examples=150, deadline=None)
    def test_ranges_are_exactly_the_accepted_positions(self, bounds, n):
        window = conj(*(WindowSpec.point(lo, hi) for lo, hi in bounds
                        if hi is None or lo <= hi))
        series = make_series(np.zeros(n))
        for anchor in range(n):
            lo, hi = window.end_range(series, anchor)
            assert [e for e in range(anchor, n) if lo <= e <= hi] == \
                [e for e in range(anchor, n)
                 if window.accepts(series, anchor, e)]
            lo, hi = window.start_range(series, anchor)
            assert [s for s in range(anchor + 1) if lo <= s <= hi] == \
                [s for s in range(anchor + 1)
                 if window.accepts(series, s, anchor)]

    def test_mixed_conjunction_keeps_the_time_bound(self):
        series = make_series(np.zeros(6),
                             timestamps=[0.0, 1.0, 4.0, 5.0, 9.0, 30.0])
        window = conj(WindowSpec.point(1, None),
                      WindowSpec.time("tstamp", 0, 5, "DAY"))
        assert window.end_range(series, 0) == (1, 3)
        assert window.start_range(series, 3) == (0, 2)


class TestIterate:
    def test_matches_accepts(self):
        series = make_series(np.zeros(12))
        window = conj(WindowSpec.point(1, 4))
        pairs = set(window.iterate(series, 0, 11, 0, 11))
        expected = {(s, e) for s in range(12) for e in range(s, 12)
                    if window.accepts(series, s, e)}
        assert pairs == expected

    def test_boxed(self):
        series = make_series(np.zeros(12))
        window = conj(WindowSpec.point(0, 3))
        pairs = set(window.iterate(series, 2, 4, 5, 6))
        assert pairs == {(2, 5), (3, 5), (3, 6), (4, 5), (4, 6)}

    def test_iterate_by_end_same_pairs(self):
        series = make_series(np.zeros(15))
        window = conj(WindowSpec.point(1, 5))
        a = set(window.iterate(series, 0, 14, 0, 14))
        b = set(window.iterate_by_end(series, 0, 14, 0, 14))
        assert a == b

    def test_iterate_box_picks_cheap_direction(self):
        series = make_series(np.zeros(15))
        window = conj(WindowSpec.point(0, 4))
        # End pinned: box iteration must still yield the right pairs.
        pairs = set(window.iterate_box(series, 0, 14, 9, 9))
        assert pairs == {(s, 9) for s in range(5, 10)}

    def test_count_pairs(self):
        series = make_series(np.zeros(10))
        window = conj(WindowSpec.point(2, 2))
        assert window.count_pairs(series, 0, 9, 0, 9) == 8


class TestSelectivity:
    def test_wild_full_box(self):
        series = make_series(np.zeros(10))
        sel = WindowConjunction.wild().selectivity(series, 0, 9, 0, 9)
        assert sel == pytest.approx(55 / 100)

    def test_exact_small(self):
        series = make_series(np.zeros(10))
        window = conj(WindowSpec.point(0, 2))
        count = window.count_pairs(series, 0, 9, 0, 9)
        sel = window.selectivity(series, 0, 9, 0, 9)
        assert sel == pytest.approx(count / 100)

    def test_empty_box(self):
        series = make_series(np.zeros(10))
        assert conj(WindowSpec.point(0, 2)).selectivity(
            series, 5, 3, 0, 9) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(lo=st.integers(0, 4), width=st.integers(0, 6),
           n=st.integers(3, 24))
    def test_count_matches_enumeration(self, lo, width, n):
        series = make_series(np.zeros(n))
        window = conj(WindowSpec.point(lo, lo + width))
        count = window.count_pairs(series, 0, n - 1, 0, n - 1)
        expected = sum(1 for s in range(n) for e in range(s, n)
                       if lo <= e - s <= lo + width)
        assert count == expected


class TestConjunction:
    def test_and_also(self):
        combined = conj(WindowSpec.point(0, 9)).and_also(
            conj(WindowSpec.point(2, 5)))
        assert len(combined.specs) == 2

    def test_wild_specs_dropped(self):
        assert conj(WILD).is_wild

    def test_equality_and_hash(self):
        a = conj(WindowSpec.point(1, 3))
        b = conj(WindowSpec.point(1, 3))
        assert a == b and hash(a) == hash(b)

    def test_relax_lower(self):
        relaxed = conj(WindowSpec.point(3, 8)).relax_lower()
        (spec,) = relaxed.specs
        assert (spec.lo, spec.hi) == (0.0, 8.0)

    def test_point_duration_bounds(self):
        window = conj(WindowSpec.point(2, 10), WindowSpec.point(0, 7))
        assert window.point_duration_bounds() == (2, 7)

    def test_describe(self):
        assert "window(1, 5)" in conj(WindowSpec.point(1, 5)).describe()
        assert WindowConjunction.wild().describe() == "wild"


class TestIrregularTimestamps:
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(st.floats(min_value=0.1, max_value=5.0,
                                    allow_nan=False),
                          min_size=3, max_size=20),
           lo=st.floats(min_value=0, max_value=10),
           width=st.floats(min_value=0, max_value=10))
    def test_ranges_consistent_with_accepts(self, steps, lo, width):
        import numpy as np
        timestamps = np.concatenate([[0.0], np.cumsum(steps)])
        series = make_series(np.zeros(len(timestamps)),
                             timestamps=timestamps)
        window = conj(WindowSpec.time("tstamp", lo, lo + width, "DAY"))
        n = len(series)
        for start in range(n):
            e_lo, e_hi = window.end_range(series, start)
            for end in range(start, n):
                expected = window.accepts(series, start, end)
                assert (e_lo <= end <= e_hi) == expected, (start, end)

    @settings(max_examples=30, deadline=None)
    @given(steps=st.lists(st.floats(min_value=0.1, max_value=5.0,
                                    allow_nan=False),
                          min_size=3, max_size=16),
           hi=st.floats(min_value=0.5, max_value=12))
    def test_iterate_directions_agree(self, steps, hi):
        import numpy as np
        timestamps = np.concatenate([[0.0], np.cumsum(steps)])
        series = make_series(np.zeros(len(timestamps)),
                             timestamps=timestamps)
        window = conj(WindowSpec.time("tstamp", 0, hi, "DAY"))
        n = len(series)
        forward = set(window.iterate(series, 0, n - 1, 0, n - 1))
        backward = set(window.iterate_by_end(series, 0, n - 1, 0, n - 1))
        assert forward == backward
