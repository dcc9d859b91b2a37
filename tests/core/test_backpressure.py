"""Producer backpressure: a device's in-flight window, stepped by hand.

Each test steps one ``EdgeDevice`` against an in-process broker and
counts its messages processed itself, so the window's state is set, not
raced for.
"""

import threading

import pytest

from repro.core import PipelineConfig


def step_in_thread(device):
    """Run one round on a thread; returns the thread and the list its
    result lands in."""
    out: list = []
    thread = threading.Thread(target=lambda: out.append(device.step()), daemon=True)
    thread.start()
    return thread, out


class TestBackpressure:
    def test_bounded_inflight(self, halves):
        run = halves(max_inflight=3, messages_per_device=20)
        device = run.device()
        assert device.step() == 3
        run.process(0, 1)
        assert device.step() == 1
        run.process(0, 4)
        assert device.step() == 3
        # Bounded by max_inflight exactly: a round is sized from the free
        # room, and counted produced once it is sent.
        progress = run.progress
        assert progress.produced_count == 7
        assert progress.produced_count - progress.processed_count == 3

    def test_a_full_window_parks_until_the_drain(self, halves, park_signal):
        run = halves(max_inflight=3, messages_per_device=20)
        run.progress.changed = park_signal()
        device = run.device()
        assert device.step() == 3
        thread, out = step_in_thread(device)
        assert run.progress.changed.parked.wait(10)
        run.process(0, 2)
        thread.join(10)
        assert out == [2]
        # One stall is one counted wait.
        assert run.collector.counter("backpressure_waits") == 1

    def test_abort_releases_a_parked_device(self, halves, park_signal):
        run = halves(max_inflight=3, messages_per_device=20)
        run.progress.changed = park_signal()
        device = run.device()
        assert device.step() == 3
        thread, out = step_in_thread(device)
        assert run.progress.changed.parked.wait(10)
        run.progress.finish(abort=True)
        thread.join(10)
        assert out == [None]
        assert run.progress.produced_count == 3

    def test_a_device_gets_room_only_from_its_own_drain(self, halves, park_signal):
        run = halves(num_devices=2, max_inflight=3, messages_per_device=20)
        first, second = run.device(0), run.device(1)
        assert first.step() == 3
        assert second.step() == 3
        run.process(1, 3)  # device 1's window drains; none of device 0's
        run.progress.changed = park_signal()
        thread, out = step_in_thread(first)
        assert run.progress.changed.parked.wait(10)
        assert out == []
        run.process(0, 1)
        thread.join(10)
        assert out == [1]
        assert second.step() == 3
        assert run.collector.counter("backpressure_waits") == 1

    def test_unbounded_by_default(self, halves):
        run = halves(messages_per_device=10)
        device = run.device()
        assert [device.step() for _ in range(10)] == [1] * 10
        assert device.step() is None
        assert run.progress.produced_count == 10
        assert run.collector.counter("backpressure_waits") == 0

    def test_invalid_config(self):
        from repro.util.validation import ValidationError

        with pytest.raises(ValidationError):
            PipelineConfig(max_inflight=-1)
