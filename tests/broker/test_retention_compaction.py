"""Tests for time retention and offset-for-time lookup."""

import time

import pytest

from repro.broker import OffsetOutOfRangeError, PartitionLog


class TestTimeRetention:
    def test_old_records_dropped(self):
        log = PartitionLog("t", 0, retention_seconds=0.03)
        log.append(b"old")
        time.sleep(0.05)
        log.append(b"new")
        log.enforce_retention()
        records = log.fetch(log.earliest_offset, max_records=10)
        assert [r.value for r in records] == [b"new"]

    def test_retention_enforced_on_append(self):
        log = PartitionLog("t", 0, retention_seconds=0.02)
        log.append(b"a")
        time.sleep(0.04)
        log.append(b"b")  # append triggers retention of "a"
        assert log.earliest_offset == 1

    def test_head_offset_unaffected(self):
        log = PartitionLog("t", 0, retention_seconds=0.01)
        for _ in range(3):
            log.append(b"x")
        time.sleep(0.03)
        log.enforce_retention()
        assert log.latest_offset == 3

    def test_newest_record_always_kept(self):
        log = PartitionLog("t", 0, retention_seconds=0.01)
        log.append(b"only")
        time.sleep(0.03)
        log.enforce_retention()
        assert len(log) == 1


class TestOffsetForTime:
    def test_finds_first_at_or_after(self):
        log = PartitionLog("t", 0)
        log.append(b"a")
        t_mid = time.monotonic()
        time.sleep(0.005)
        log.append(b"b")
        assert log.offset_for_time(0.0) == 0
        assert log.offset_for_time(t_mid) == 1

    def test_none_when_everything_older(self):
        log = PartitionLog("t", 0)
        log.append(b"a")
        assert log.offset_for_time(time.monotonic() + 100) is None

    def test_empty_log(self):
        log = PartitionLog("t", 0)
        assert log.offset_for_time(0.0) is None
