"""When a message counts as processed: once its function has run.

A polled message is claimed at once, so a redelivery is not run again,
and leaves its device's in-flight window only after the poll's records
have run. The class steps the ``halves`` fixture (no pilot, thread or
sleep); the last test races consumer threads on one ``Progress``.
"""

import sys
import threading

import pytest

from repro.core.edge import Progress


class Stop(BaseException):
    """A consumer stopped mid-batch (not a processing error)."""


class TestProcessedWhenTheFunctionHasRun:
    def test_the_window_holds_a_message_until_its_poll_has_run(self, halves):
        seen = []

        def cloud_fn(context, block):
            seen.append(run.progress.processed_by(0))
            return block

        run = halves(cloud_fn=cloud_fn, max_inflight=4, messages_per_device=8)
        device, consumer = run.device(), run.consumer()
        assert device.step() == 4
        assert consumer.step() == 4
        # Inside process_cloud none of the four is processed yet; after
        # the poll's records have run, all four are, and free their room.
        assert seen == [0, 0, 0, 0]
        assert run.progress.processed_by(0) == 4
        assert device.step() == 4

    def test_a_function_that_raises_still_frees_its_slot(self, halves):
        def cloud_fn(context, block):
            raise ValueError("bad block")

        run = halves(cloud_fn=cloud_fn, max_inflight=2, messages_per_device=4)
        device, consumer = run.device(), run.consumer()
        for _ in range(2):
            assert device.step() == 2
            assert consumer.step() == 2
        assert run.progress.processed_by(0) == 4
        assert run.collector.counter("processing_errors") == 4
        assert [where for where, _ in run.errors] == [f"process[run/d0/m{seq}]" for seq in range(4)]
        assert run.progress.done.is_set()

    def test_a_message_polled_twice_runs_and_counts_once(self, halves):
        calls = []

        def cloud_fn(context, block):
            calls.append(block)
            return block

        run = halves(cloud_fn=cloud_fn, max_inflight=0, messages_per_device=6)
        device, consumer = run.device(), run.consumer()
        for _ in range(3):
            device.step()
        assert consumer.step() == 3
        consumer.consumer.seek(run.config.topic, 0, 0)  # redeliver what ran
        assert consumer.step() == 3
        assert len(calls) == 3
        assert run.progress.processed_count == run.progress.processed_by(0) == 3
        assert run.collector.counter("duplicate_deliveries") == 3
        assert not run.progress.done.is_set()

    def test_a_message_the_edge_function_absorbs_counts_at_once(self, halves):
        made = []

        def edge_fn(context, block):
            made.append(block)
            return None if len(made) % 2 else block  # absorb m0, m2

        run = halves(edge_fn=edge_fn, max_inflight=2, messages_per_device=4)
        device, consumer = run.device(), run.consumer()
        assert device.step() == 2  # m1 and m3 sent
        assert run.progress.processed_by(0) == 2
        assert run.collector.counter("messages_absorbed_at_edge") == 2
        assert consumer.step() == 2
        assert run.progress.processed_by(0) == 4
        assert run.progress.done.is_set()

    def test_a_consumer_that_stops_mid_batch_leaves_the_run_incomplete(self, halves):
        def cloud_fn(context, block):
            raise Stop

        run = halves(cloud_fn=cloud_fn, max_inflight=4, messages_per_device=4)
        device, consumer = run.device(), run.consumer()
        assert device.step() == 4
        with pytest.raises(Stop):
            consumer.step()
        # Not processed: the run does not read complete.
        assert run.progress.processed_count == 0
        assert not run.progress.done.is_set()
        # The stopped poll released its claims, so a redelivery runs them.
        run.functions = (None, lambda context, block: block)
        consumer.consumer.seek(run.config.topic, 0, 0)
        assert consumer.step() == 4
        assert run.progress.processed_count == 4
        assert run.collector.counter("duplicate_deliveries") == 0
        assert run.progress.done.is_set()


def test_claims_and_counts_hold_across_threads():
    """Eight consumers race to claim every id of four devices: each id is
    won once, so each is counted processed once."""
    devices, per_device = 4, 1000
    ids = [(f"d{d}/m{m}", d) for m in range(per_device) for d in range(devices)]
    progress = Progress(devices * per_device, devices)

    start_together = threading.Barrier(8)

    def consume():
        start_together.wait(30)
        for start in range(0, len(ids), 8):
            polled = ids[start:start + 8]
            won = progress.claim([message_id for message_id, _ in polled])
            progress.count_processed([device for (_, device), new in zip(polled, won) if new])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=consume) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert progress.processed_count == devices * per_device
    assert [progress.processed_by(d) for d in range(devices)] == [per_device] * devices
    assert progress.done.is_set()
