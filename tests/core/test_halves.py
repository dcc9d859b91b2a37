"""The pipeline's edge and cloud halves, driven one round at a time.

One ``EdgeDevice`` and one ``CloudConsumer`` share a run's progress and
metrics against an in-process ``Broker``; every stamp they take comes
from the fake clock the test advances. No pilot, task or sleep.
"""

from repro.core import cloud as cloud_module


class TestOneDeviceOneConsumer:
    def test_a_message_goes_device_to_consumer_on_the_handed_clock(self, halves):
        run = halves(max_inflight=4, messages_per_device=6)
        device, consumer = run.device(), run.consumer()

        assert device.step() == 4
        assert (run.progress.produced_count, run.progress.processed_count) == (4, 0)
        run.clock.advance(0.25)
        assert consumer.step() == 4
        assert run.progress.processed_count == 4

        assert device.step() == 2
        assert device.step() is None  # all six made
        run.clock.advance(0.5)
        assert consumer.step() == 2
        assert run.progress.done.is_set()
        assert len(run.results.to_list()) == 6
        assert run.errors == []

        # Message -> (produced, processed), as the fake clock read.
        rows = run.collector.columns()
        stamps = dict(zip(rows["message_id"], zip(rows["produce"], rows["process_end"])))
        assert stamps == {
            **{f"run/d0/m{seq}": (1000.0, 1000.25) for seq in range(4)},
            **{f"run/d0/m{seq}": (1000.25, 1000.75) for seq in range(4, 6)},
        }
        assert (rows["broker_in"] == rows["produce"]).all()
        assert (rows["dequeue"] == rows["consume"]).all()
        assert (rows["consume"] == rows["process_end"]).all()

    def test_a_round_is_one_poll_of_at_most_a_poll_batch(self, halves):
        run = halves(max_inflight=0, messages_per_device=20)
        device, consumer = run.device(), run.consumer()
        for _ in range(20):
            device.step()
        batch = cloud_module._POLL_BATCH
        polled = [consumer.step() for _ in range(3)]
        assert polled == [batch, batch, 20 - 2 * batch]
        assert consumer.handled == 20

    def test_the_consumer_commits_every_commit_interval(self, halves, monkeypatch):
        monkeypatch.setattr(cloud_module, "_COMMIT_INTERVAL", 10)
        run = halves(max_inflight=0, messages_per_device=16)
        device, consumer = run.device(), run.consumer()
        for _ in range(16):
            device.step()
        group, topic = consumer.consumer.group_id, run.config.topic
        consumer.step()
        assert run.broker.committed_offset(group, topic, 0) is None  # 8 < 10
        consumer.step()
        assert run.broker.committed_offset(group, topic, 0) == 16  # 16 >= 10
