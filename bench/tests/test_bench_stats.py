"""The percentile rule and the spread."""

import pytest

from bench.stats import percentile, spread, tail, tail_quantile


@pytest.mark.parametrize("n", [21, 40, 114, 600, 999, 1000, 2500, 100_000])
def test_tail_has_at_least_ten_samples_beyond(n):
    samples = list(range(n))
    q, value = tail(samples)
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= 10
    assert q <= 0.99
    if q < 0.99:  # below the cap it is the highest such percentile
        assert beyond == 10


def test_tail_quantile_values():
    assert tail_quantile(1000) == 0.99
    assert tail_quantile(40) == 0.75
    assert tail_quantile(20) == 0.5
    assert tail_quantile(3) == 0.5


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3, 2, 4], 0.5) == 3
    assert percentile([1, 2, 3, 4], 0.5) == 2
    assert percentile([7], 0.99) == 7


def test_spread_is_range_over_median():
    assert spread([90, 100, 120]) == pytest.approx(0.3)
    assert spread([5, 5, 5]) == 0.0
