"""The few statistics the benchmark reports, in one place."""

from __future__ import annotations

import math
import statistics

median = statistics.median


def spread(values) -> float:
    """``(max - min) / median`` of the per-pass values of one metric."""
    values = list(values)
    mid = median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least *q* of
    the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it.

    Capped at p99 and floored at the median: 1000 samples or more give
    0.99, 40 samples give 0.75, twenty or fewer give 0.5.
    """
    if n <= 20:
        return 0.5
    return min(0.99, (n - 10) / n)


def tail(samples) -> tuple[float, float]:
    """``(quantile, value)`` of the tail percentile the sample supports."""
    q = tail_quantile(len(samples))
    return q, percentile(samples, q)


def quantile(samples, q: float) -> float:
    """Linearly interpolated quantile (``q`` in 0..1) of *samples*."""
    ordered = sorted(samples)
    x = q * (len(ordered) - 1)
    lo = int(x)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (x - lo)


def windows(done, window_s: float) -> list:
    """Cut a sorted series of completion times into back-to-back windows:
    ``(start, end, count)`` each.

    A window is ``k`` consecutive completions, ``k`` chosen so that a
    window lasts about *window_s* (and never fewer than three), timed
    from the completion before its first to its last, so a window never
    starts or ends in the middle of a piece of work that one worker does
    after another. A series too short for one window is one window.
    """
    done = list(done)
    n = len(done) - 1  # timed completions: the first one only opens the clock
    span = done[-1] - done[0] if n > 0 else 0.0
    if span <= 0:
        return []
    k = min(n, max(3, round(n * window_s / span)))
    return [(done[i], done[i + k], k) for i in range(0, n - k + 1, k) if done[i + k] > done[i]]
