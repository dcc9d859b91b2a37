"""Tests for the autoscaler and the events it journals."""

import threading

import pytest

from repro.core import AutoScaler, ScalingPolicy


class TestScalingPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScalingPolicy(min_consumers=5, max_consumers=2)
        with pytest.raises(ValueError):
            ScalingPolicy(scale_up_lag=5, scale_down_lag=10)


class TestAutoScaler:
    def make(self, lag_values, policy=None):
        lags = iter(lag_values)
        state = {"scaled": []}
        scaler = AutoScaler(
            lag_fn=lambda: next(lags),
            scale_fn=lambda d: state["scaled"].append(d),
            policy=policy
            or ScalingPolicy(min_consumers=1, max_consumers=4, scale_up_lag=10,
                             scale_down_lag=2, cooldown=0.0),
        )
        return scaler, state

    def test_scales_up_on_lag(self):
        scaler, state = self.make([50])
        assert scaler.evaluate(now=100.0) == 1
        assert state["scaled"] == [1]
        assert scaler.current_consumers == 2

    def test_respects_max(self):
        scaler, state = self.make([50] * 10)
        for i in range(10):
            scaler.evaluate(now=100.0 + i)
        assert scaler.current_consumers == 4

    def test_scales_down_advisory(self):
        scaler, state = self.make([50, 0])
        scaler.evaluate(now=1.0)
        assert scaler.evaluate(now=2.0) == -1
        assert scaler.current_consumers == 1
        # Scale-down does not call scale_fn (advisory only).
        assert state["scaled"] == [1]

    def test_respects_min(self):
        scaler, _ = self.make([0, 0])
        assert scaler.evaluate(now=1.0) == 0
        assert scaler.current_consumers == 1

    def test_idle_band_no_action(self):
        scaler, state = self.make([5])  # between down(2) and up(10)
        assert scaler.evaluate(now=1.0) == 0
        assert state["scaled"] == []

    def test_cooldown_blocks_consecutive_actions(self):
        lags = iter([50, 50, 50])
        scaled = []
        scaler = AutoScaler(
            lag_fn=lambda: next(lags),
            scale_fn=scaled.append,
            policy=ScalingPolicy(max_consumers=8, scale_up_lag=10,
                                 scale_down_lag=2, cooldown=10.0),
        )
        assert scaler.evaluate(now=100.0) == 1
        assert scaler.evaluate(now=105.0) == 0  # inside cooldown
        assert scaler.evaluate(now=111.0) == 1  # cooldown passed

    def test_events_published(self):
        lags = iter([50, 0])
        scaler = AutoScaler(
            lag_fn=lambda: next(lags),
            scale_fn=lambda d: None,
            policy=ScalingPolicy(max_consumers=4, scale_up_lag=10,
                                 scale_down_lag=2, cooldown=0.0),
        )
        scaler.evaluate(now=1.0)
        scaler.evaluate(now=2.0)
        events = scaler.events.events()
        assert [e.type for e in events] == ["load_peak", "load_normal"]
        assert {e.origin for e in events} == {"autoscaler"}

    def test_actions_log(self):
        scaler, _ = self.make([50])
        scaler.evaluate(now=7.0)
        assert [(e.type, e.fields) for e in scaler.events.events()] == [
            ("load_peak", {"lag": 50, "consumers": 2})
        ]

    def test_background_loop_runs(self):
        calls, second_tick = [], threading.Event()

        def lag():
            calls.append(1)
            if len(calls) == 2:
                second_tick.set()
            return 0

        scaler = AutoScaler(lag_fn=lag, scale_fn=lambda d: None, interval=0.01)
        scaler.start()
        with pytest.raises(RuntimeError):
            scaler.start()  # double start rejected
        assert second_tick.wait(10)
        scaler.stop()
        assert len(calls) >= 2
