"""Unit tests for repro.common: intervals, RNG, errors."""

import pytest

from repro.common import Interval, make_rng
from repro.common.errors import ReproError, ParseError, PolicyError


class TestInterval:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Interval(10, 3)

    def test_degenerate_point_interval(self):
        iv = Interval(5, 5)
        assert iv.overlaps(Interval(5, 9))
        assert not iv.overlaps(Interval(6, 9))

    def test_overlap_is_symmetric(self):
        a, b = Interval(1, 5), Interval(4, 9)
        assert a.overlaps(b) and b.overlaps(a)

    def test_disjoint_intervals(self):
        assert not Interval(1, 3).overlaps(Interval(4, 6))
        assert Interval(1, 4).overlaps(Interval(4, 6))  # closed: share 4

    def test_works_with_strings(self):
        iv = Interval("a", "m")
        assert iv.overlaps(Interval("hello", "world"))
        assert not iv.overlaps(Interval("x", "z"))


class TestRng:
    def test_deterministic(self):
        assert make_rng(1, "x").random() == make_rng(1, "x").random()

    def test_streams_decorrelated(self):
        a = [make_rng(1, "a").random() for _ in range(3)]
        b = [make_rng(1, "b").random() for _ in range(3)]
        assert a != b

    def test_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ParseError, ReproError)
        assert issubclass(PolicyError, ReproError)

    def test_parse_error_position(self):
        err = ParseError("bad token", position=17)
        assert "17" in str(err)
        assert err.position == 17
