"""Tests for the text drawing helpers of ``repro top``'s dashboard."""

from repro.monitoring.cluster import bar, sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series_is_flat(self):
        line = sparkline([5, 5, 5])
        assert len(set(line)) == 1

    def test_min_and_max_mapped_to_extremes(self):
        line = sparkline([0, 10])
        assert line[0] == " "
        assert line[-1] == "█"

    def test_long_series_compressed(self):
        line = sparkline(range(1000), width=50)
        assert len(line) <= 50

    def test_monotone_series_is_nondecreasing(self):
        blocks = " ▁▂▃▄▅▆▇█"
        line = sparkline(range(20), width=20)
        levels = [blocks.index(c) for c in line]
        assert levels == sorted(levels)


class TestBar:
    def test_full_bar(self):
        assert bar(10, 10, width=4) == "████"

    def test_half_bar(self):
        assert bar(5, 10, width=4) == "██··"

    def test_overflow_clamped(self):
        assert bar(100, 10, width=4) == "████"

    def test_zero_max(self):
        assert bar(1, 0) == ""
