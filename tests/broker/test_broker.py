"""Tests for the broker node."""

import pytest

from repro.broker import (
    Broker,
    UnknownPartitionError,
    UnknownTopicError,
)
from repro.broker.errors import TopicExistsError
from repro.util.validation import ValidationError


class TestTopicManagement:
    def test_create_and_list(self, broker):
        broker.create_topic("a", 2)
        broker.create_topic("b", 1)
        assert broker.list_topics() == ["a", "b"]

    def test_duplicate_create_rejected(self, broker):
        broker.create_topic("a")
        with pytest.raises(TopicExistsError):
            broker.create_topic("a")

    def test_exist_ok(self, broker):
        t1 = broker.create_topic("a", 2)
        t2 = broker.create_topic("a", 9, exist_ok=True)
        assert t1 is t2
        assert t2.num_partitions == 2  # original config kept

    def test_unknown_topic(self, broker):
        with pytest.raises(UnknownTopicError):
            broker.topic("missing")

    def test_auto_create(self):
        broker = Broker(auto_create_topics=True)
        broker.append("auto", 0, b"x")
        assert broker.list_topics() == ["auto"]

    def test_invalid_partition_count(self, broker):
        with pytest.raises(ValidationError):
            broker.create_topic("a", 0)


class TestDataPath:
    def test_append_returns_metadata(self, broker):
        broker.create_topic("t", 2)
        md = broker.append("t", 1, b"x")
        assert (md.topic, md.partition, md.offset) == ("t", 1, 0)

    def test_append_to_unknown_partition(self, broker):
        broker.create_topic("t", 1)
        with pytest.raises(UnknownPartitionError):
            broker.append("t", 5, b"x")

    def test_fetch_roundtrip(self, broker):
        broker.create_topic("t", 1)
        broker.append("t", 0, b"hello")
        records = broker.fetch("t", 0, 0)
        assert records[0].value == b"hello"

    def test_offsets_introspection(self, broker):
        broker.create_topic("t", 1)
        assert broker.earliest_offset("t", 0) == 0
        assert broker.latest_offset("t", 0) == 0
        broker.append("t", 0, b"x")
        assert broker.latest_offset("t", 0) == 1


class TestCommittedOffsets:
    def test_commit_and_read(self, broker):
        broker.create_topic("t", 1)
        broker.commit_offset("g", "t", 0, 5)
        assert broker.committed_offset("g", "t", 0) == 5

    def test_no_commit_returns_none(self, broker):
        broker.create_topic("t", 1)
        assert broker.committed_offset("g", "t", 0) is None

    def test_commits_are_monotonic(self, broker):
        broker.create_topic("t", 1)
        broker.commit_offset("g", "t", 0, 10)
        broker.commit_offset("g", "t", 0, 3)  # stale commit
        assert broker.committed_offset("g", "t", 0) == 10

    def test_commits_isolated_per_group(self, broker):
        broker.create_topic("t", 1)
        broker.commit_offset("g1", "t", 0, 5)
        assert broker.committed_offset("g2", "t", 0) is None

    def test_commit_unknown_topic(self, broker):
        with pytest.raises(UnknownTopicError):
            broker.commit_offset("g", "missing", 0, 1)


class TestStats:
    def test_stats_shape(self, broker):
        broker.create_topic("t", 2)
        broker.append("t", 0, b"abc")
        stats = broker.stats()
        assert stats["topics"]["t"]["records_in"] == 1
        assert stats["topics"]["t"]["bytes_in"] == 3
        assert stats["topics"]["t"]["partitions"] == 2
