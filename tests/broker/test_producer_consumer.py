"""Tests for producer and consumer clients."""

import numpy as np
import pytest

from repro.broker import (
    BlockSerde,
    Broker,
    Consumer,
    JsonSerde,
    KeyHashPartitioner,
    Producer,
    RoundRobinPartitioner,
    StickyPartitioner,
)
from repro.util.validation import ValidationError


@pytest.fixture
def topic_broker(broker):
    broker.create_topic("t", 4)
    return broker


class TestPartitioners:
    def test_key_hash_is_stable(self):
        p = KeyHashPartitioner()
        assert p.select(b"key", 4) == p.select(b"key", 4)

    def test_key_hash_within_range(self):
        p = KeyHashPartitioner()
        for i in range(50):
            assert 0 <= p.select(f"k{i}".encode(), 4) < 4

    def test_keyless_round_robins(self):
        p = KeyHashPartitioner()
        picks = [p.select(None, 4) for _ in range(8)]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_round_robin_ignores_key(self):
        p = RoundRobinPartitioner()
        picks = [p.select(b"same", 3) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_sticky_batches(self):
        p = StickyPartitioner(batch_size=3)
        picks = [p.select(None, 4) for _ in range(9)]
        assert picks[:3] == [0, 0, 0]
        assert picks[3:6] == [1, 1, 1]

    def test_sticky_respects_keys(self):
        p = StickyPartitioner(batch_size=2)
        assert p.select(b"k", 4) == p.select(b"k", 4)


class TestProducer:
    def test_send_explicit_partition(self, topic_broker):
        producer = Producer(topic_broker)
        md = producer.send("t", b"x", partition=2)
        assert md.partition == 2

    def test_send_via_partitioner(self, topic_broker):
        producer = Producer(topic_broker, partitioner=RoundRobinPartitioner())
        partitions = [producer.send("t", b"x").partition for _ in range(4)]
        assert partitions == [0, 1, 2, 3]

    def test_serde_applied(self, topic_broker):
        producer = Producer(topic_broker, serde=JsonSerde())
        producer.send("t", {"a": 1}, partition=0)
        record = topic_broker.fetch("t", 0, 0)[0]
        assert record.value == b'{"a":1}'

    def test_block_serde_roundtrip(self, topic_broker):
        block = np.arange(12.0).reshape(3, 4)
        producer = Producer(topic_broker, serde=BlockSerde())
        producer.send("t", block, partition=0)
        consumer = Consumer(topic_broker, serde=BlockSerde())
        consumer.assign([("t", 0)])
        [decoded] = consumer.poll_values()
        np.testing.assert_array_equal(decoded, block)

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
        producer = Producer(topic_broker, partitioner=RoundRobinPartitioner())
        md = producer.send_many("t", [b"a", b"b", b"c"])
        assert topic_broker.latest_offset("t", md.partition) == 3

    def test_send_many_applies_serde(self, topic_broker):
        producer = Producer(topic_broker, serde=JsonSerde())
        producer.send_many("t", [{"a": 1}, {"b": 2}], partition=0)
        values = [r.value for r in topic_broker.fetch("t", 0, 0, max_records=4)]
        assert values == [b'{"a":1}', b'{"b":2}']

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

    def test_latest_offset_reset(self, topic_broker):
        producer = Producer(topic_broker)
        producer.send("t", b"old", partition=0)
        consumer = Consumer(topic_broker, auto_offset_reset="latest")
        consumer.assign([("t", 0)])
        assert consumer.poll() == []
        producer.send("t", b"new", partition=0)
        assert consumer.poll()[0].value == b"new"

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

    def test_invalid_offset_reset(self, topic_broker):
        with pytest.raises(ValidationError):
            Consumer(topic_broker, auto_offset_reset="middle")

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
        producer = Producer(topic_broker, partitioner=RoundRobinPartitioner())
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
