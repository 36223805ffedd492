"""SearchSpace algebra tests."""

from repro.plan.search_space import SearchSpace


class TestBasics:
    def test_full(self):
        sp = SearchSpace.full(10)
        assert (sp.s_lo, sp.s_hi, sp.e_lo, sp.e_hi) == (0, 9, 0, 9)
        assert sp.start_range_size == 10
        assert sp.end_range_size == 10
        assert sp.span_size == 10

    def test_exact(self):
        sp = SearchSpace.exact(3, 7)
        assert sp.contains(3, 7)
        assert not sp.contains(3, 8)
        assert sp.start_range_size == 1

    def test_contains_requires_order(self):
        sp = SearchSpace.full(10)
        assert not sp.contains(5, 3)

    def test_empty(self):
        assert SearchSpace(5, 3, 0, 9).is_empty()
        assert SearchSpace(8, 9, 0, 3).is_empty()  # s_lo > e_hi
        assert not SearchSpace.full(4).is_empty()

    def test_clamp(self):
        sp = SearchSpace(-5, 100, -2, 200).clamp(10)
        assert (sp.s_lo, sp.s_hi, sp.e_lo, sp.e_hi) == (0, 9, 0, 9)

    def test_intersect(self):
        a = SearchSpace(0, 8, 2, 9)
        b = SearchSpace(3, 10, 0, 5)
        c = a.intersect(b)
        assert (c.s_lo, c.s_hi, c.e_lo, c.e_hi) == (3, 8, 2, 5)


class TestConcatPropagation:
    def test_left_child_expands_ends(self):
        sp = SearchSpace(2, 4, 7, 9)
        left = sp.concat_left(0)
        assert (left.s_lo, left.s_hi) == (2, 4)
        assert (left.e_lo, left.e_hi) == (2, 9)

    def test_right_child_expands_starts(self):
        sp = SearchSpace(2, 4, 7, 9)
        right = sp.concat_right(0)
        assert (right.s_lo, right.s_hi) == (2, 9)
        assert (right.e_lo, right.e_hi) == (7, 9)

    def test_gap_shifts_boundaries(self):
        sp = SearchSpace(0, 5, 5, 9)
        assert sp.concat_left(1).e_hi == 8
        assert sp.concat_right(1).s_lo == 1

    def test_kleene_child_spans(self):
        sp = SearchSpace(2, 4, 7, 9)
        child = sp.kleene_child()
        assert (child.s_lo, child.s_hi) == (2, 9)
        assert (child.e_lo, child.e_hi) == (2, 9)

    def test_describe(self):
        assert "S=[0,3]" in SearchSpace(0, 3, 1, 2).describe()
