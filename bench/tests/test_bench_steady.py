"""Windows, the steady state of a pass and the host-speed factor."""

import numpy as np
import pytest

from bench.check import Ledger, stamp_block
from bench.harness import HostSpeed
from bench.stats import quantile, windows
from bench.workloads import WINDOW_S, steady_state


def test_windows_tile_the_series_between_completions():
    done = [i * 0.1 for i in range(51)]  # 10 per second for 5 s
    cut = windows(done, window_s=1.0)
    assert [count for _, _, count in cut] == [10] * 5
    assert cut[0][0] == done[0] and cut[-1][1] == done[50]
    assert all(a2 == b1 for (_, b1, _), (a2, _, _) in zip(cut, cut[1:]))
    assert [count / (b - a) for a, b, count in cut] == pytest.approx([10.0] * 5)


def test_a_slow_lane_still_gets_three_completions_per_window():
    done = [i * 0.4 for i in range(13)]  # 2.5 per second
    assert [count for _, _, count in windows(done, window_s=1.0)] == [3, 3, 3, 3]


def test_a_series_too_short_for_a_window_is_one_window_or_none():
    assert windows([0.0, 0.5, 1.0], window_s=1.0) == [(0.0, 1.0, 2)]
    assert windows([1.0], window_s=1.0) == []
    assert windows([], window_s=1.0) == []


def test_quantile_interpolates():
    assert quantile([1, 2, 3, 4, 5], 0.75) == 4
    assert quantile([10, 20], 0.75) == 17.5
    assert quantile([7], 0.75) == 7


def ledger_of(completions: dict) -> Ledger:
    """completions: device -> [(due, done)] in order."""
    ledger = Ledger({d: len(c) for d, c in completions.items()}, lambda d, s: 0)
    block = np.zeros((2, 4))
    for device, lane in completions.items():
        for seq, (due, done) in enumerate(lane):
            ledger.produced(device, seq, due)
            ledger.arrived(stamp_block(block, device, seq), done, worker=device)
    return ledger


def test_steady_state_leaves_out_ramp_and_drain():
    # Device 0 completes every 0.1 s from t=1.0 to t=6.0; device 1 starts
    # late (t=2.0) and runs dry early (t=4.0).
    lanes = {0: [(1.0 + i * 0.1 - 0.05, 1.0 + i * 0.1) for i in range(51)],
             1: [(2.0 + i * 0.1 - 0.05, 2.0 + i * 0.1) for i in range(21)]}
    rates, latencies = steady_state(ledger_of(lanes))
    # Both at work from 2.0 to 4.0: 20 completions a second together.
    assert len(rates) == round(2.0 / WINDOW_S)
    assert rates == pytest.approx([20.0] * len(rates), rel=0.06)
    # Latencies: every message due from t=2.0 on, the drain's included.
    assert len(latencies) == 40 + 20
    assert latencies == pytest.approx([0.05] * len(latencies))


def test_host_speed_factor_is_the_median_loop_time_over_the_reference():
    speed = HostSpeed()
    ref = HostSpeed.REFERENCE_S
    speed.samples = {1: ([0.0, 1.0, 2.0, 3.0], [ref, 2 * ref, 2 * ref, ref]),
                     2: ([0.5, 2.5], [2 * ref, 4 * ref])}
    assert speed.factor(0.9, 2.1) == pytest.approx(2.0)  # thread 2 lends its last sample
    assert speed.factor(2.4, 3.1) == pytest.approx(2.5)  # median of ref and 4 ref
    assert HostSpeed().factor(0.0, 1.0) == 1.0


def test_a_slow_host_reads_like_a_fast_one_at_the_reference_speed():
    """The same work on a host half as fast: half the rate, twice the
    latency as measured, the same once stated at the reference speed."""
    def run(slowness):
        lanes = {0: [(i * 0.1 * slowness, (i + 1) * 0.1 * slowness) for i in range(60)]}
        speed = HostSpeed()
        speed.samples = {0: ([i * 0.1 * slowness for i in range(61)],
                             [HostSpeed.REFERENCE_S * slowness] * 61)}
        return steady_state(ledger_of(lanes), speed)

    fast, slow = run(1.0), run(2.0)
    assert fast[0][0] == pytest.approx(10.0) and slow[0][0] == pytest.approx(10.0)
    assert slow[1] == pytest.approx([0.1] * len(slow[1]))


def test_host_speed_samples_at_most_every_interval():
    speed = HostSpeed()
    for _ in range(3):
        speed.sample()
    (times, loops), = speed.samples.values()
    assert len(times) == len(loops) == 1 and loops[0] > 0
