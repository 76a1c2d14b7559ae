"""Extended-real conventions and interval algebra."""

import pytest

from gouruin.errors import IndeterminateFormError
from gouruin.intervals import Interval, IntervalSet
from gouruin.numerics import (
    INF,
    NEG_INF,
    checked_add,
    ext_from_json,
    ext_to_json,
    sgn,
)


class TestCheckedArithmetic:
    def test_inf_minus_inf_is_a_hard_error(self):
        with pytest.raises(IndeterminateFormError):
            checked_add(INF, NEG_INF)

    def test_ordinary_values_pass_through(self):
        assert checked_add(INF, 5.0) == INF

    def test_sign_dead_band(self):
        assert sgn(5e-13) == 0
        assert sgn(-5e-13) == 0
        assert sgn(2e-12) == 1
        assert sgn(NEG_INF) == -1

    def test_json_encoding(self):
        assert ext_to_json(INF) == "inf"
        assert ext_from_json("-inf") == NEG_INF
        assert ext_from_json(ext_to_json(1.5)) == 1.5


class TestIntervals:
    def test_merge_touching(self):
        s = IntervalSet([Interval(0, 1), Interval(1, 2)])
        assert len(s.intervals) == 1
        assert s.intervals[0] == Interval(0, 2)

    def test_open_endpoints_do_not_merge(self):
        s = IntervalSet([Interval(0, 1, hi_open=True), Interval(1, 2, lo_open=True)])
        assert len(s.intervals) == 2
        assert not s.contains(1.0)

    def test_half_open_plus_point_closes(self):
        s = IntervalSet([Interval(0, 1, hi_open=True), Interval(1, 1)])
        assert len(s.intervals) == 1
        assert s.contains(1.0)

    def test_sup_at_most(self):
        s = IntervalSet([Interval(0, 1), Interval(2, 3)])
        assert s.sup_at_most(5.0) == 3.0
        assert s.sup_at_most(2.5) == 2.5
        assert s.sup_at_most(1.5) == 1.0
        assert s.sup_at_most(-1.0) == NEG_INF

    def test_intersection(self):
        a = IntervalSet([Interval(0, 2)])
        b = IntervalSet([Interval(1, 3), Interval(-5, -4)])
        c = a.intersect(b)
        assert c.intervals == (Interval(1, 2),)

    def test_infinite_endpoints_are_open(self):
        iv = Interval(NEG_INF, 0.0)
        assert iv.lo_open
        assert not iv.contains(NEG_INF)
        assert iv.contains(0.0)
