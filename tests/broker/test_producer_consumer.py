"""Tests for producer and consumer clients."""

import threading
import zlib

import numpy as np
import pytest

from repro.broker import Broker, Consumer, Producer
from repro.data.serde import decode_block, encode_block
from repro.util.validation import ValidationError


class _ParkSignal(threading.Condition):
    """A partition's data condition that tells the test when a fetch parks."""

    def __init__(self, lock) -> None:
        super().__init__(lock)
        self.parked = threading.Event()

    def wait(self, timeout=None):
        self.parked.set()
        return super().wait(timeout)


@pytest.fixture
def topic_broker(broker):
    broker.create_topic("t", 4)
    return broker


class TestPartitioners:
    """A send without ``partition=`` picks one from the record's key."""

    def test_key_hash_is_stable(self, topic_broker):
        producer = Producer(topic_broker)
        first = producer.send("t", b"x", key=b"key").partition
        assert producer.send("t", b"y", key=b"key").partition == first

    def test_key_hash_within_range(self, topic_broker):
        producer = Producer(topic_broker)
        for i in range(50):
            key = f"k{i}".encode()
            assert producer.send("t", b"x", key=key).partition == zlib.crc32(key) % 4

    def test_keyless_round_robins(self, topic_broker):
        producer = Producer(topic_broker)
        picks = [producer.send("t", b"x").partition for _ in range(8)]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]


class TestProducer:
    def test_send_explicit_partition(self, topic_broker):
        producer = Producer(topic_broker)
        md = producer.send("t", b"x", partition=2)
        assert md.partition == 2

    def test_send_via_partitioner(self, topic_broker):
        # Keyless sends and batches take turns on one rotation.
        producer = Producer(topic_broker)
        first = producer.send("t", b"x").partition
        batch = producer.send_many("t", [b"y", b"z"]).partition
        assert (first, batch, producer.send("t", b"w").partition) == (0, 1, 2)

    def test_serde_applied(self, topic_broker):
        # Buffers are stored as the bytes they hold.
        producer = Producer(topic_broker)
        producer.send("t", bytearray(b"ab"), partition=0)
        producer.send("t", memoryview(b"cd"), partition=0)
        values = [r.value for r in topic_broker.fetch("t", 0, 0)]
        assert values == [b"ab", b"cd"]
        assert all(type(v) is bytes for v in values)

    def test_block_serde_roundtrip(self, topic_broker):
        block = np.arange(12.0).reshape(3, 4)
        Producer(topic_broker).send("t", encode_block(block), partition=0)
        consumer = Consumer(topic_broker)
        consumer.assign([("t", 0)])
        [record] = consumer.poll()
        np.testing.assert_array_equal(decode_block(record.value), block)

    def test_acks_values(self, topic_broker):
        for acks in (1, "leader", "all"):
            assert Producer(topic_broker, acks=acks).acks == acks
        for acks in (0, 2, "none"):
            with pytest.raises(ValidationError):
                Producer(topic_broker, acks=acks)

    def test_metrics(self, topic_broker):
        producer = Producer(topic_broker)
        producer.send("t", b"abc", partition=0)
        stats = producer.stats()
        assert stats["records_sent"] == 1
        assert stats["bytes_sent"] == 3


class TestBatchedProducer:
    def test_send_many_offsets_and_metrics(self, topic_broker):
        producer = Producer(topic_broker)
        md = producer.send_many("t", [b"a", b"bb", b"ccc"], partition=2)
        assert md.partition == 2
        assert md.base_offset == 0
        assert md.count == 3
        assert md.last_offset == 2
        assert producer.records_sent == 3
        assert producer.bytes_sent == 6

    def test_send_many_routes_whole_batch_to_one_partition(self, topic_broker):
        producer = Producer(topic_broker)
        md = producer.send_many("t", [b"a", b"b", b"c"])
        assert topic_broker.latest_offset("t", md.partition) == 3

    def test_send_many_applies_serde(self, topic_broker):
        # A value that is not bytes is refused, and none of its batch lands.
        producer = Producer(topic_broker)
        with pytest.raises(TypeError):
            producer.send_many("t", [b"a", {"b": 2}], partition=0)
        with pytest.raises(TypeError):
            producer.send("t", "text", partition=0)
        assert topic_broker.latest_offset("t", 0) == 0
        assert producer.records_sent == 0

    def test_send_many_empty_rejected(self, topic_broker):
        with pytest.raises(ValidationError):
            Producer(topic_broker).send_many("t", [])


class TestConsumerManualAssign:
    def test_assign_and_poll(self, topic_broker):
        Producer(topic_broker).send("t", b"v", partition=1)
        consumer = Consumer(topic_broker)
        consumer.assign([("t", 1)])
        records = consumer.poll()
        assert len(records) == 1

    def test_position_advances(self, topic_broker):
        producer = Producer(topic_broker)
        for _ in range(3):
            producer.send("t", b"x", partition=0)
        consumer = Consumer(topic_broker)
        consumer.assign([("t", 0)])
        consumer.poll(max_records=2)
        assert consumer.position("t", 0) == 2

    def test_seek(self, topic_broker):
        producer = Producer(topic_broker)
        for i in range(5):
            producer.send("t", bytes([i]), partition=0)
        consumer = Consumer(topic_broker)
        consumer.assign([("t", 0)])
        consumer.poll(max_records=10)
        consumer.seek("t", 0, 2)
        records = consumer.poll(max_records=10)
        assert [r.offset for r in records] == [2, 3, 4]

    def test_seek_unassigned_rejected(self, topic_broker):
        consumer = Consumer(topic_broker)
        consumer.assign([("t", 0)])
        with pytest.raises(ValidationError):
            consumer.seek("t", 3, 0)

    def test_lag(self, topic_broker):
        producer = Producer(topic_broker)
        for _ in range(7):
            producer.send("t", b"x", partition=0)
        consumer = Consumer(topic_broker)
        consumer.assign([("t", 0)])
        consumer.poll(max_records=3)
        assert consumer.lag()[("t", 0)] == 4

    def test_subscribe_without_group_rejected(self, topic_broker):
        consumer = Consumer(topic_broker)
        with pytest.raises(ValidationError):
            consumer.subscribe("t")

    def test_closed_consumer_rejects_poll(self, topic_broker):
        consumer = Consumer(topic_broker)
        consumer.assign([("t", 0)])
        consumer.close()
        with pytest.raises(ValidationError):
            consumer.poll()

    def test_blocking_poll_timeout(self, topic_broker):
        import time

        consumer = Consumer(topic_broker)
        consumer.assign([("t", 0)])
        t0 = time.monotonic()
        assert consumer.poll(timeout=0.05) == []
        assert time.monotonic() - t0 >= 0.04

    def test_blocking_poll_multi_partition_timeout(self, topic_broker):
        import time

        consumer = Consumer(topic_broker)
        consumer.assign([("t", p) for p in range(4)])
        t0 = time.monotonic()
        assert consumer.poll(timeout=0.05) == []
        assert time.monotonic() - t0 >= 0.04

    def test_blocking_poll_wakes_on_any_partition(self, topic_broker):
        # A blocked poll must observe data on whichever assigned
        # partition it lands on — not just the first — well before the
        # timeout expires.
        import threading
        import time

        producer = Producer(topic_broker)
        consumer = Consumer(topic_broker)
        consumer.assign([("t", p) for p in range(4)])

        def late_append():
            time.sleep(0.05)
            producer.send("t", b"wake", partition=3)

        t = threading.Thread(target=late_append)
        t0 = time.monotonic()
        t.start()
        records = consumer.poll(timeout=5.0)
        elapsed = time.monotonic() - t0
        t.join()
        assert [r.value for r in records] == [b"wake"]
        assert elapsed < 2.0, f"poll blocked {elapsed:.2f}s on the wrong partition"

    def test_timed_poll_waits_for_fetch_min_bytes(self, topic_broker):
        log = topic_broker.partition_log("t", 0)
        log._data_available = _ParkSignal(log._lock)
        producer = Producer(topic_broker)
        producer.send("t", b"0123456789", partition=0)
        consumer = Consumer(topic_broker, fetch_min_bytes=20)
        consumer.assign([("t", 0)])
        polled = []
        poller = threading.Thread(
            target=lambda: polled.extend(consumer.poll(timeout=30.0))
        )
        poller.start()
        # 10 bytes are short of 20: the poll parks instead of answering.
        parked = log._data_available.parked.wait(5.0)
        producer.send("t", b"abcdefghij", partition=0)
        poller.join(timeout=35.0)
        assert not poller.is_alive()
        assert parked
        assert [r.value for r in polled] == [b"0123456789", b"abcdefghij"]

    def test_consume_metrics(self, topic_broker):
        Producer(topic_broker).send("t", b"abc", partition=0)
        consumer = Consumer(topic_broker)
        consumer.assign([("t", 0)])
        consumer.poll()
        assert consumer.stats()["records_consumed"] == 1
        assert consumer.stats()["bytes_consumed"] == 3


class TestConsumerGroups:
    def test_single_consumer_gets_all_partitions(self, topic_broker):
        consumer = Consumer(topic_broker, group_id="g")
        consumer.subscribe("t")
        assert len(consumer.assignment) == 4

    def test_two_consumers_split_partitions(self, topic_broker):
        c1 = Consumer(topic_broker, group_id="g")
        c1.subscribe("t")
        c2 = Consumer(topic_broker, group_id="g")
        c2.subscribe("t")
        c1.poll()  # triggers rebalance refresh
        assigned = sorted(c1.assignment + c2.assignment)
        assert assigned == [("t", p) for p in range(4)]
        assert len(c1.assignment) == 2
        assert len(c2.assignment) == 2

    def test_leave_triggers_rebalance(self, topic_broker):
        c1 = Consumer(topic_broker, group_id="g")
        c1.subscribe("t")
        c2 = Consumer(topic_broker, group_id="g")
        c2.subscribe("t")
        c2.close()
        c1.poll()
        assert len(c1.assignment) == 4

    def test_commit_resume(self, topic_broker):
        producer = Producer(topic_broker)
        for i in range(6):
            producer.send("t", bytes([i]), partition=0)
        c1 = Consumer(topic_broker, group_id="g")
        c1.subscribe("t")
        c1.poll(max_records=3)
        c1.commit()
        c1.close()
        c2 = Consumer(topic_broker, group_id="g")
        c2.subscribe("t")
        records = c2.poll(max_records=10)
        # Resumes after the committed offset on partition 0.
        p0 = [r for r in records if r.partition == 0]
        assert [r.offset for r in p0] == [3, 4, 5]

    def test_commit_without_group_rejected(self, topic_broker):
        consumer = Consumer(topic_broker)
        consumer.assign([("t", 0)])
        with pytest.raises(ValidationError):
            consumer.commit()

    def test_mixing_subscribe_and_assign_rejected(self, topic_broker):
        consumer = Consumer(topic_broker, group_id="g")
        consumer.subscribe("t")
        with pytest.raises(ValidationError):
            consumer.assign([("t", 0)])

    def test_context_manager_leaves_group(self, topic_broker):
        with Consumer(topic_broker, group_id="g") as c:
            c.subscribe("t")
            assert topic_broker.coordinator.members("g") == [c.client_id]
        assert topic_broker.coordinator.members("g") == []

    def test_group_consumption_covers_all_messages(self, topic_broker):
        producer = Producer(topic_broker)
        for i in range(20):
            producer.send("t", bytes([i]))
        c1 = Consumer(topic_broker, group_id="g")
        c1.subscribe("t")
        c2 = Consumer(topic_broker, group_id="g")
        c2.subscribe("t")
        seen = []
        for _ in range(10):
            seen.extend(r.value for r in c1.poll(max_records=50))
            seen.extend(r.value for r in c2.poll(max_records=50))
        assert sorted(seen) == [bytes([i]) for i in range(20)]
