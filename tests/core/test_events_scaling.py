"""Tests for the event bus and autoscaler."""

import threading

import pytest

from repro.core import AutoScaler, EventBus, ScalingPolicy
from repro.core.events import LOAD_NORMAL, LOAD_PEAK


class TestEventBus:
    def test_publish_subscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe("a", lambda e: seen.append(e.payload["v"]))
        bus.publish("a", v=1)
        bus.publish("b", v=2)  # not subscribed
        assert seen == [1]

    def test_wildcard_subscription(self):
        bus = EventBus()
        seen = []
        bus.subscribe("*", lambda e: seen.append(e.type))
        bus.publish("x")
        bus.publish("y")
        assert seen == ["x", "y"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsub = bus.subscribe("a", lambda e: seen.append(1))
        bus.publish("a")
        unsub()
        bus.publish("a")
        assert seen == [1]

    def test_handler_errors_counted_and_isolated(self):
        bus = EventBus()
        bus.subscribe("a", lambda e: 1 / 0)
        seen = []
        bus.subscribe("a", lambda e: seen.append(1))
        bus.publish("a")
        assert bus.handler_errors == 1
        assert seen == [1]

    def test_history(self):
        bus = EventBus()
        bus.publish("a", x=1)
        bus.publish("b")
        bus.publish("a", x=2)
        assert len(bus.history()) == 3
        assert [e.payload["x"] for e in bus.history("a")] == [1, 2]

    def test_events_have_identity(self):
        bus = EventBus()
        e1 = bus.publish("a")
        e2 = bus.publish("a")
        assert e1.event_id != e2.event_id
        assert e2.timestamp >= e1.timestamp


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
        bus = EventBus()
        lags = iter([50, 0])
        scaler = AutoScaler(
            lag_fn=lambda: next(lags),
            scale_fn=lambda d: None,
            policy=ScalingPolicy(max_consumers=4, scale_up_lag=10,
                                 scale_down_lag=2, cooldown=0.0),
            event_bus=bus,
        )
        scaler.evaluate(now=1.0)
        scaler.evaluate(now=2.0)
        assert len(bus.history(LOAD_PEAK)) == 1
        assert len(bus.history(LOAD_NORMAL)) == 1

    def test_actions_log(self):
        scaler, _ = self.make([50])
        scaler.evaluate(now=7.0)
        assert scaler.actions == [(7.0, 1, 50)]

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
