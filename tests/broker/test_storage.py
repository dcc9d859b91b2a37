"""Durable segment-backed partition logs: codec, store, recovery, retention."""

import errno
import mmap
import os
import random
import sys
import threading
import time
import tracemalloc

import pytest

from repro.broker import OffsetOutOfRangeError, PartitionLog
from repro.broker.message import Record
from repro.broker.storage import (
    GroupCommitFlusher,
    SegmentStore,
    StorageConfig,
    StorageError,
)
from repro.broker.storage.segment import (
    LOG_SUFFIX,
    decode_batch,
    encode_batch,
    read_batch_info,
    scan_batches,
)
from repro.broker.storage.store import SNAPSHOT_FILE

# A minute-long window and payloads far below the 1 MiB urgent mark:
# tests control flush timing explicitly via store.flush(), so nothing
# races in the background.
MANUAL = StorageConfig(segment_bytes=100 * 1024 * 1024, flush_ms=60_000.0)


class _Clock:
    """A hand-set ``now`` for the flusher and the store."""

    t = 0.0

    def __call__(self):
        return self.t


def make_records(base, values, topic="t", partition=0, key=None, headers=None):
    return [
        Record(topic, partition, base + i, v, key, dict(headers or {}), 1.0, 2.0)
        for i, v in enumerate(values)
    ]


def make_store(tmp_path, name="t-0", config=MANUAL, topic="t", partition=0):
    return SegmentStore(str(tmp_path / name), topic, partition, config=config)


def crash(store):
    """Abandon *store* as a SIGKILL would: nothing pending is flushed, the
    active segment is not sealed and no producer snapshot is written."""
    with store._lock:
        store._closed = True
    os.close(store._active_fd)
    for seg in store._sealed:
        seg.close()


def tear(store, seed):
    """Crash *store* mid-flush, as a power loss does: its pending batches
    are encoded and written, the file is cut at a seeded byte past its
    last fsynced end, and the store is abandoned (see :func:`crash`)."""
    path = store._active_path
    durable = os.path.getsize(path)
    with open(path, "ab") as fh:
        for batch in store._pending:
            fh.write(b"".join(bytes(b) for b in batch.encode()))
    os.truncate(path, random.Random(seed).randrange(durable + 1, os.path.getsize(path)))
    crash(store)


def enospc(fd, buffers):
    """``os.writev`` on a full disk: part of the data lands, then ENOSPC."""
    data = b"".join(bytes(b) for b in buffers)
    os.write(fd, data[: len(data) // 2])
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def log_files(directory):
    return sorted(n for n in os.listdir(directory) if n.endswith(LOG_SUFFIX))


class TestSegmentCodec:
    def test_roundtrip_preserves_records_and_metadata(self):
        records = make_records(
            7, [b"alpha", b"", b"gamma" * 100], key=b"k", headers={"h": 1}
        )
        buffers, nbytes = encode_batch(
            records, producer_id=3, producer_epoch=2, base_sequence=40, write_ts=9.5
        )
        blob = b"".join(bytes(b) for b in buffers)
        assert len(blob) == nbytes
        info = read_batch_info(blob, 0, len(blob), verify_crc=True)
        assert info is not None
        assert (info.base_offset, info.count) == (7, 3)
        assert (info.producer_id, info.producer_epoch, info.base_sequence) == (3, 2, 40)
        assert info.write_ts == 9.5
        out = decode_batch(blob, info, "t", 0)
        assert [r.offset for r in out] == [7, 8, 9]
        assert [bytes(r.value) for r in out] == [b"alpha", b"", b"gamma" * 100]
        assert out[0].key == b"k" and out[0].headers == {"h": 1}
        assert out[1].produce_ts == 1.0 and out[1].append_ts == 2.0

    def test_scan_stops_at_torn_tail(self):
        b1, _ = encode_batch(make_records(0, [b"one"]))
        b2, _ = encode_batch(make_records(1, [b"two"]))
        blob = b"".join(bytes(b) for b in b1) + b"".join(bytes(b) for b in b2)
        torn = blob[:-3]  # body runs past EOF
        infos = list(scan_batches(torn, 0, len(torn), verify_crc=True))
        assert [i.base_offset for i in infos] == [0]

    def test_crc_mismatch_detected(self):
        buffers, nbytes = encode_batch(make_records(0, [b"payload"]))
        blob = bytearray(b"".join(bytes(b) for b in buffers))
        blob[-1] ^= 0xFF
        assert read_batch_info(blob, 0, nbytes, verify_crc=True) is None
        # Without CRC verification the framing still parses.
        assert read_batch_info(blob, 0, nbytes) is not None


class TestSegmentStore:
    def test_append_flush_read_roundtrip(self, tmp_path):
        store = make_store(tmp_path)
        store.append_batch(make_records(0, [b"a", b"b"]))
        store.append_batch(make_records(2, [b"c"]))
        assert store.next_offset == 3
        assert store.flushed_offset == 0  # nothing flushed yet
        store.flush()
        assert store.flushed_offset == 3
        # All data still in the active segment: reads come from the deque
        # layer above, not the store.
        assert store.read(0, 10) == []
        store.close()

    def test_roll_seals_and_mmap_read_is_zero_copy(self, tmp_path):
        config = StorageConfig(segment_bytes=256, flush_ms=60_000.0)
        store = make_store(tmp_path, config=config)
        for i in range(6):
            store.append_batch(make_records(i * 4, [b"x" * 50] * 4))
            store.flush()
        assert store.counters["segments_sealed"] >= 2
        assert store.active_base > 0
        out = store.read(0, store.active_base)
        assert [r.offset for r in out] == list(range(store.active_base))
        # Sealed reads are memoryview slices of the mapping (zero-copy).
        assert isinstance(out[0].value, memoryview)
        assert bytes(out[0].value) == b"x" * 50
        store.close()

    def test_wait_durable_blocks_until_flush(self, tmp_path):
        store = make_store(tmp_path)
        store.append_batch(make_records(0, [b"v"]))
        assert store.wait_durable(1, timeout=0.05) is False
        store.flush()
        assert store.wait_durable(1, timeout=0.05) is True
        store.close()

    def test_recovery_empty_active_segment(self, tmp_path):
        store = make_store(tmp_path)
        store.close()  # creates an empty active segment file
        again = make_store(tmp_path)
        assert again.recovered.next_offset == 0
        assert again.recovered.records == []
        assert again.recovered.scan_bytes == 0
        again.close()

    def test_recovery_truncates_crc_corrupt_tail(self, tmp_path):
        store = make_store(tmp_path)
        store.append_batch(make_records(0, [b"good"] * 3))
        store.flush()
        store.append_batch(make_records(3, [b"bad"] * 2))
        store.flush()
        path = store._active_path
        crash(store)  # a clean close() would seal the segment
        # Corrupt the last byte: the final batch fails its CRC.
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0xFF]))
        again = make_store(tmp_path)
        assert again.recovered.next_offset == 3
        assert [bytes(r.value) for r in again.recovered.records] == [b"good"] * 3
        assert again.recovered.truncated_bytes > 0
        # The file itself was truncated, so a further restart is clean.
        assert os.path.getsize(path) == again.recovered.scan_bytes - again.recovered.truncated_bytes
        again.close()

    def test_reopened_store_reads_sealed_segments_in_order(self, tmp_path):
        config = StorageConfig(segment_bytes=200, flush_ms=60_000.0)
        store = make_store(tmp_path, config=config)
        for i in range(8):
            store.append_batch(make_records(i * 2, [b"y" * 40] * 2))
            store.flush()
        assert store.counters["segments_sealed"] >= 2
        directory = store.directory
        store.close()
        # Segments and the producer snapshot are the whole on-disk format.
        names = os.listdir(directory)
        assert SNAPSHOT_FILE in names
        assert all(n.endswith(LOG_SUFFIX) for n in names if n != SNAPSHOT_FILE)
        # A directory written by an older version may still hold sparse
        # index files; recovery looks at *.log only.
        stale = os.path.join(directory, names[0][: -len(LOG_SUFFIX)] + ".index")
        with open(stale, "wb") as fh:
            fh.write(b"not an index")
        again = make_store(tmp_path, config=config)
        assert again.recovered.segments >= 2
        out = again.read(0, again.active_base)
        assert [r.offset for r in out] == list(range(again.active_base))
        again.close()

    def test_torn_write_injection_and_recovery(self, tmp_path):
        for seed in range(5):
            name = f"t-{seed}"
            store = make_store(tmp_path, name=name)
            store.append_batch(make_records(0, [b"acked"] * 2))
            store.flush()
            store.append_batch(make_records(2, [b"doomed"] * 2))
            tear(store, seed)
            again = make_store(tmp_path, name=name)
            # The flushed batch survived; the torn one was CRC-truncated.
            assert again.recovered.next_offset == 2
            assert again.recovered.truncated_bytes > 0
            assert [bytes(r.value) for r in again.recovered.records] == [b"acked"] * 2
            again.close()

    def test_truncate_within_active_segment(self, tmp_path):
        store = make_store(tmp_path)
        store.append_batch(make_records(0, [b"a"] * 4))
        store.append_batch(make_records(4, [b"b"] * 4))
        store.flush()
        assert store.truncate_to(6) is None  # mid-batch: prefix survives
        assert store.next_offset == 6
        store.append_batch(make_records(6, [b"c"]))
        store.flush()
        again_path = store.directory
        crash(store)  # keep the cut segment active for the scan below
        again = SegmentStore(again_path, "t", 0, config=MANUAL)
        assert again.recovered.next_offset == 7
        assert [bytes(r.value) for r in again.recovered.records] == (
            [b"a"] * 4 + [b"b"] * 2 + [b"c"]
        )
        again.close()

    def test_truncate_unwinds_sealed_segments(self, tmp_path):
        config = StorageConfig(segment_bytes=120, flush_ms=60_000.0)
        store = make_store(tmp_path, config=config)
        for i in range(5):
            store.append_batch(make_records(i * 2, [b"s" * 40] * 2))
            store.flush()
        assert store.active_base >= 4
        survivors = store.truncate_to(3)
        # The segment containing the cut was unwound: its records below
        # the cut survive and become the new active segment's content.
        assert survivors is not None
        assert [r.offset for r in survivors] == [2]
        assert store.next_offset == 3
        store.append_batch(make_records(3, [b"new"]))
        store.flush()
        assert store.next_offset == 4
        store.close()

    def test_retention_drops_sealed_segments(self, tmp_path):
        config = StorageConfig(segment_bytes=150, flush_ms=60_000.0)
        store = make_store(tmp_path, config=config)
        for i in range(10):
            store.append_batch(make_records(i * 2, [b"r" * 40] * 2))
            store.flush()
        dropped, new_base = store.enforce_retention(300, 0.0)
        assert dropped > 0 and new_base > 0
        assert store.earliest_offset == new_base
        assert store.counters["segments_deleted"] >= 1
        store.close()

    def test_swallowed_failures_are_counted(self, tmp_path, monkeypatch):
        # A flush the background flusher cannot land does not kill its
        # thread — but it does not vanish: it counts into the store's
        # counters, and the store refuses what follows.
        config = StorageConfig(segment_bytes=150, flush_ms=1.0)
        clock = _Clock()
        flusher = GroupCommitFlusher(config.flush_ms, now=clock)
        store = SegmentStore(
            str(tmp_path / "t-0"), "t", 0, config=config, flusher=flusher, now=clock
        )
        for i in range(6):
            store.append_batch(make_records(i * 2, [b"r" * 40] * 2))
            store.flush()
        sealed = store.counters["segments_sealed"]
        monkeypatch.setattr(os, "writev", enospc)
        store.append_batch(make_records(12, [b"doomed"]))
        clock.t += 1.0
        assert flusher.step() is None  # survived the failed flush
        assert store.counters["flush_errors"] == 1
        with pytest.raises(StorageError, match="No space left"):
            store.wait_durable(13, timeout=10.0)
        with pytest.raises(StorageError):
            store.append_batch(make_records(13, [b"refused"]))
        store.close()
        assert store.counters["segments_sealed"] == sealed

    def test_crash_recovery_copies_each_record_once(self, tmp_path):
        # A whole-file read plus a copy per value peaked at about twice
        # the segment; scanning a mapping leaves only the copies.
        store = make_store(tmp_path)
        for i in range(8):
            store.append_batch(make_records(i * 8, [bytes([i]) * 65536] * 8))
        store.flush()
        size = os.path.getsize(store._active_path)
        crash(store)
        tracemalloc.start()
        try:
            again = make_store(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again.recovered.scan_bytes == size
        assert len(again.recovered.records) == 64
        assert bytes(again.recovered.records[-1].value) == bytes([7]) * 65536
        assert peak <= 1.25 * size, (peak, size)
        again.close()


class TestCleanClose:
    """A clean ``close()`` seals the active segment after its last fsync,
    so a restart adopts every segment without scanning one."""

    def _fill(self, store, batches=4, per=3):
        for i in range(batches):
            store.append_batch(make_records(i * per, [b"v%d" % (i * per + j)
                                                      for j in range(per)]))
        store.flush()
        return batches * per

    def test_restart_scans_nothing_and_reads_every_offset(self, tmp_path):
        store = make_store(tmp_path)
        total = self._fill(store)
        store.close()
        again = make_store(tmp_path)
        assert again.recovered.scan_bytes == 0
        assert again.recovered.records == []
        assert again.recovered.segments == 1
        assert again.counters["recovered_records"] == 0
        assert again.active_base == again.next_offset == total
        out = again.read(0, 100)
        assert [r.offset for r in out] == list(range(total))
        assert [bytes(r.value) for r in out] == [b"v%d" % i for i in range(total)]
        again.close()

    def test_idempotent_replay_after_restart_acks_the_original_offsets(self, tmp_path):
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=MANUAL)
        log.append_many([b"plain"] * 3)
        first = log.append_many([b"v1", b"v2"], producer_id=7, producer_epoch=1,
                                base_sequence=0)
        log.close()
        again = PartitionLog("t", 0, log_dir=str(tmp_path), storage=MANUAL)
        assert again.storage.recovered.scan_bytes == 0
        replay = again.append_many([b"v1", b"v2"], producer_id=7, producer_epoch=1,
                                   base_sequence=0)
        assert [r.offset for r in replay] == [r.offset for r in first] == [3, 4]
        assert again.latest_offset == 5 and again.duplicates_dropped == 2
        again.close()

    def test_a_failed_store_is_not_sealed_and_recovery_truncates_it(
        self, tmp_path, monkeypatch
    ):
        flusher = GroupCommitFlusher(MANUAL.flush_ms, now=_Clock())
        store = SegmentStore(
            str(tmp_path / "t-0"), "t", 0, config=MANUAL, flusher=flusher
        )
        store.append_batch(make_records(0, [b"acked"] * 2))
        store.flush()
        store.append_batch(make_records(2, [b"doomed"] * 2))
        monkeypatch.setattr(os, "writev", enospc)
        flusher.stop()  # ends the window: the flush fails on a full disk
        assert store.counters["flush_errors"] == 1
        with pytest.raises(StorageError):
            store.append_batch(make_records(4, [b"refused"]))
        store.close()
        assert store.counters["segments_sealed"] == 0
        assert log_files(store.directory) == [f"{0:020d}{LOG_SUFFIX}"]
        again = make_store(tmp_path)
        assert again.recovered.segments == 0
        assert again.recovered.truncated_bytes > 0
        assert [bytes(r.value) for r in again.recovered.records] == [b"acked"] * 2
        again.close()

    def test_truncate_after_restart_unwinds_the_sealed_tail(self, tmp_path):
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=MANUAL)
        log.append_many([b"a"] * 4)
        log.append_many([b"b"] * 4)
        log.close()
        again = PartitionLog("t", 0, log_dir=str(tmp_path), storage=MANUAL)
        assert again.storage.active_base == 8
        assert again.truncate_to(6) == 2
        assert again.storage.active_base == 0  # the sealed segment was unwound
        assert [bytes(r.value) for r in again.fetch(0, 100)] == [b"a"] * 4 + [b"b"] * 2
        again.append_many([b"c"])
        again.close()
        third = PartitionLog("t", 0, log_dir=str(tmp_path), storage=MANUAL)
        assert [bytes(r.value) for r in third.fetch(0, 100)] == (
            [b"a"] * 4 + [b"b"] * 2 + [b"c"]
        )
        third.close()

    def test_closing_an_empty_active_segment_seals_nothing(self, tmp_path):
        config = StorageConfig(segment_bytes=64, flush_ms=60_000.0)
        store = make_store(tmp_path, config=config)
        store.append_batch(make_records(0, [b"x" * 100]))
        store.flush()  # past segment_bytes: the flush itself rolls
        assert store.counters["segments_sealed"] == 1
        store.close()
        assert store.counters["segments_sealed"] == 1
        assert log_files(store.directory) == [f"{0:020d}{LOG_SUFFIX}",
                                              f"{1:020d}{LOG_SUFFIX}"]

    def test_reopen_cycles_without_appends_add_no_segments(self, tmp_path):
        store = make_store(tmp_path)
        total = self._fill(store)
        store.close()
        files = log_files(store.directory)
        assert len(files) == 2  # the sealed segment and an empty active one
        for _ in range(3):
            again = make_store(tmp_path)
            assert again.recovered.next_offset == total
            again.close()
            assert log_files(store.directory) == files


class TestTruncateMovesNoSurvivingByte:
    """A value read off a segment's mapping before a cut reads the same
    bytes after it: the mapping is shared, so a store that re-lays out a
    file under a reader changes the reader's values."""

    # 220-byte batches of two 60-byte records: two batches a segment.
    CONFIG = StorageConfig(segment_bytes=400, flush_ms=60_000.0)

    @pytest.mark.parametrize("cut", [3, 13], ids=["sealed", "active"])
    def test_values_held_below_the_cut_keep_their_bytes(self, tmp_path, cut):
        store = make_store(tmp_path, config=self.CONFIG)
        values = [bytes([65 + i]) * 60 for i in range(14)]
        for i in range(0, 14, 2):  # three sealed segments, one active batch
            store.append_batch(make_records(i, values[i : i + 2]))
            store.flush()
        assert store.counters["segments_sealed"] == 3 and store.active_base == 12
        held = store.read(0, 4)
        assert [bytes(r.value) for r in held] == values[:4]
        survivors = store.truncate_to(cut)
        assert [bytes(r.value) for r in held[:cut]] == values[: min(cut, 4)]
        assert store.next_offset == cut
        if cut < 12:  # the segment holding the cut is the active one again
            assert store.active_base == 0
            assert [bytes(r.value) for r in survivors] == values[:cut]
        else:
            assert survivors is None
        # The shortened batch passes the crash scan's CRC check.
        crash(store)
        again = make_store(tmp_path, config=self.CONFIG)
        assert again.recovered.truncated_bytes == 0
        out = again.read(0, 100) + again.recovered.records
        assert [bytes(r.value) for r in out] == values[:cut]
        again.close()


class _FakeStore:
    """What the flusher needs of a store: ``flush()`` and ``counters``."""

    def __init__(self, clock):
        self.clock = clock
        self.flushed_at: list = []
        self.counters = {"flush_errors": 0}

    def flush(self):
        self.flushed_at.append(self.clock())


class TestGroupCommitWindow:
    """``flush_ms`` is a deadline from the window's first request; only
    an urgent request or ``stop()`` ends a window sooner. The flusher
    runs on a hand-set clock and is stepped by hand: no thread, no sleep
    (but in the one end-to-end test at the bottom)."""

    WINDOW_S = 0.2

    @pytest.fixture
    def clock(self):
        return _Clock()

    @pytest.fixture
    def flusher(self, clock):
        return GroupCommitFlusher(self.WINDOW_S * 1000.0, now=clock)

    def test_one_flush_per_store_per_window_not_one_per_request(self, flusher, clock):
        stores = [_FakeStore(clock), _FakeStore(clock)]
        for i in range(20):
            flusher.request(stores[i % 2])
            clock.t += 0.002
            assert flusher.step() == pytest.approx(self.WINDOW_S - clock.t)
        clock.t = self.WINDOW_S
        assert flusher.step() is None  # the window closed; none is open
        clock.t += self.WINDOW_S
        flusher.step()  # nothing was requested since: nothing to flush
        for store in stores:
            assert store.flushed_at == [self.WINDOW_S]

    def test_a_request_inside_an_open_window_wakes_nobody(self, flusher, clock):
        store = _FakeStore(clock)
        flusher.request(store)  # opens the window and wakes the thread ...
        assert flusher._wake.is_set()
        assert flusher.step() == pytest.approx(self.WINDOW_S)  # ... to wait it out
        clock.t = self.WINDOW_S / 4
        for _ in range(50):
            flusher.request(store)
        assert not flusher._wake.is_set() and store.flushed_at == []
        clock.t = self.WINDOW_S  # the deadline itself
        flusher.step()
        assert store.flushed_at == [self.WINDOW_S]

    def test_an_urgent_request_ends_the_window_at_once(self, flusher, clock):
        store = _FakeStore(clock)
        flusher.request(store)
        clock.t = 0.01
        flusher.request(store, urgent=True)
        assert flusher._wake.is_set()
        assert flusher.step() is None
        assert store.flushed_at == [0.01]

    def test_stop_ends_the_window_at_once_and_flushes_it(self, flusher, clock):
        store = _FakeStore(clock)
        flusher.request(store)
        flusher.stop()
        assert store.flushed_at == [0.0]
        with pytest.raises(StorageError):
            flusher.request(store)

    @pytest.mark.parametrize(
        "size, fsync_acks", [(1 << 20, False), (100, True)], ids=["flush_bytes", "fsync_acks"]
    )
    def test_flush_bytes_and_fsync_acks_are_urgent(self, tmp_path, clock, size, fsync_acks):
        # 1 MiB pending in one store, or any append under fsync_acks.
        config = StorageConfig(flush_ms=60_000.0, fsync_acks=fsync_acks)
        flusher = GroupCommitFlusher(config.flush_ms, now=clock)
        store = SegmentStore(str(tmp_path / "t-0"), "t", 0, config=config,
                             flusher=flusher, now=clock)
        end = store.append_batch(make_records(0, [b"x" * size]))
        assert flusher.step() is None  # a minute early
        assert store.flushed_offset == end and store.counters["flushes"] == 1
        store.close()

    def test_a_lone_append_is_durable_one_window_after_it(self, tmp_path):
        config = StorageConfig(flush_ms=self.WINDOW_S * 1000.0)
        flusher = GroupCommitFlusher(config.flush_ms)
        flusher.start()
        store = SegmentStore(str(tmp_path / "t-0"), "t", 0, config=config, flusher=flusher)
        try:
            appended = time.monotonic()
            end = store.append_batch(make_records(0, [b"alone"]))
            assert store.wait_durable(end, timeout=5.0)
            waited = time.monotonic() - appended
            # No sooner than the window, no later than it plus scheduling
            # slack and one small fsync.
            assert self.WINDOW_S - 0.005 <= waited < self.WINDOW_S + 1.0
            assert store.counters["flushes"] == 1
        finally:
            flusher.stop()
            store.close()

    def test_no_request_is_lost_between_a_flush_and_the_next_wait(self, tmp_path):
        # More appenders than cores, switching as often as the interpreter
        # allows: a request landing while the thread flushes must still
        # reach the next step, or its append never becomes durable.
        config = StorageConfig(flush_ms=1.0)
        flusher = GroupCommitFlusher(config.flush_ms)
        flusher.start()
        stores = [
            SegmentStore(str(tmp_path / f"t-{i}"), "t", i, config=config, flusher=flusher)
            for i in range(8)
        ]
        waited: list = []

        def produce(store):
            for i in range(40):
                end = store.append_batch(make_records(i, [b"c"], partition=store.partition))
                waited.append(store.wait_durable(end, timeout=5.0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=produce, args=(s,)) for s in stores]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            flusher.stop()
            for store in stores:
                store.close()
        assert waited == [True] * 320


PAGE = mmap.PAGESIZE


@pytest.fixture
def released(monkeypatch):
    """Record every ``DONTNEED`` range by file, checked against what the
    last ``fsync`` of that file made durable; the real call still runs."""
    real_fadvise, real_fsync = os.posix_fadvise, os.fsync
    durable: dict = {}
    ranges: dict = {}

    def fsync(fd):
        real_fsync(fd)
        durable[os.fstat(fd).st_ino] = os.fstat(fd).st_size

    def fadvise(fd, offset, length, advice):
        assert advice == os.POSIX_FADV_DONTNEED
        inode = os.fstat(fd).st_ino
        assert offset + length <= durable[inode], "released past the fsynced end"
        ranges.setdefault(inode, []).append((offset, length))
        real_fadvise(fd, offset, length, advice)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "posix_fadvise", fadvise)
    return ranges


class TestPageCacheRelease:
    """The active segment's durable pages go back to the kernel; every
    read that now comes from disk returns what was written."""

    # A run is an eighth of a segment: 8 KiB here.
    CONFIG = StorageConfig(segment_bytes=64 * 1024, flush_ms=60_000.0)

    def _fill(self, log, n=120):
        values = [bytes([i % 251]) * (500 + 37 * (i % 40)) for i in range(n)]
        for i in range(0, n, 3):
            log.append_many(values[i : i + 3])
            log.storage.flush()
        return values

    def test_ranges_are_page_aligned_monotone_and_at_least_a_run(self, tmp_path, released):
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=self.CONFIG)
        self._fill(log)
        sealed = log.storage.counters["segments_sealed"]
        assert sealed >= 2 and len(released) >= sealed
        short_runs = 0
        for ranges in released.values():
            cursor = 0
            for offset, length in ranges:
                assert offset == cursor and offset % PAGE == 0
                assert length > 0 and length % PAGE == 0
                cursor = offset + length
            # Only what is left when the segment rolls may be shorter
            # than a run.
            assert all(length >= 8192 for _, length in ranges[:-1])
            short_runs += ranges[-1][1] < 8192
        assert short_runs <= sealed
        log.close()

    def test_a_flush_smaller_than_a_run_pays_no_syscall(self, tmp_path, released):
        store = make_store(tmp_path, config=self.CONFIG)
        store.append_batch(make_records(0, [b"s" * 6000]))
        store.flush()
        assert not released
        store.append_batch(make_records(1, [b"s" * 6000]))
        store.flush()
        assert [r for rs in released.values() for r in rs] == [(0, 2 * PAGE)]
        store.close()

    def test_sealed_reads_and_restart_recovery_are_byte_identical(self, tmp_path, released):
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=self.CONFIG)
        values = self._fill(log)
        assert released and log.storage.active_base > 0
        assert [bytes(r.value) for r in log.fetch(0, max_records=1000)] == values
        log.close()
        again = PartitionLog("t", 0, log_dir=str(tmp_path), storage=self.CONFIG)
        assert again.storage.recovered.truncated_bytes == 0
        assert [bytes(r.value) for r in again.fetch(0, max_records=1000)] == values
        again.close()

    def test_torn_write_after_releases_recovers_the_flushed_prefix(self, tmp_path, released):
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=self.CONFIG)
        values = self._fill(log, n=30)  # stays in the active segment
        assert released and log.storage.active_base == 0
        log.append_many([b"doomed" * 1000])
        tear(log.storage, seed=30)
        log.close()
        again = PartitionLog("t", 0, log_dir=str(tmp_path), storage=self.CONFIG)
        assert again.storage.recovered.truncated_bytes > 0
        assert [bytes(r.value) for r in again.fetch(0, max_records=1000)] == values
        again.close()

    def test_truncate_through_a_straddling_batch_after_releases(self, tmp_path, released):
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=self.CONFIG)
        values = self._fill(log, n=30)
        assert released and log.storage.active_base == 0
        log.truncate_to(22)  # batches are 3 records: 21..23 straddles
        assert log.latest_offset == 22
        tail = [b"after" * 2000] * 4
        log.append_many(tail)  # long enough to cross the old cursor
        log.storage.flush()
        expected = values[:22] + tail
        assert [bytes(r.value) for r in log.fetch(0, max_records=1000)] == expected
        log.close()
        again = PartitionLog("t", 0, log_dir=str(tmp_path), storage=self.CONFIG)
        assert [bytes(r.value) for r in again.fetch(0, max_records=1000)] == expected
        again.close()

    def test_a_platform_without_posix_fadvise_skips_it_silently(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "posix_fadvise")
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=self.CONFIG)
        values = self._fill(log)
        assert log.storage.counters["segments_sealed"] >= 2
        assert [bytes(r.value) for r in log.fetch(0, max_records=1000)] == values
        log.close()


class TestDurablePartitionLog:
    def test_restart_preserves_log_and_offsets(self, tmp_path):
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=MANUAL)
        log.append_many([b"m%d" % i for i in range(20)])
        log.storage.flush()
        log.close()
        again = PartitionLog("t", 0, log_dir=str(tmp_path), storage=MANUAL)
        assert again.latest_offset == 20
        assert len(again) == 20
        out = again.fetch(0, max_records=100)
        assert [bytes(r.value) for r in out] == [b"m%d" % i for i in range(20)]
        again.close()

    def test_unflushed_tail_is_lost_but_flushed_prefix_survives(self, tmp_path):
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=MANUAL)
        log.append_many([b"durable"] * 5)
        log.storage.flush()
        log.append_many([b"volatile"] * 5)
        # Simulate a crash: discard the un-flushed tail before closing
        # (close() would flush it; a SIGKILL does not).
        store = log.storage
        with store._lock:
            store._pending = []
            store._pending_bytes = 0
        log.close()
        again = PartitionLog("t", 0, log_dir=str(tmp_path), storage=MANUAL)
        assert again.latest_offset == 5
        assert [bytes(r.value) for r in again.fetch(0, 100)] == [b"durable"] * 5
        again.close()

    def test_fsync_acks_makes_append_durable_before_return(self, tmp_path):
        config = StorageConfig(flush_ms=5.0, fsync_acks=True)
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=config)
        log.append_many([b"synced"] * 3)
        # The ack implies the data is already on disk: no explicit flush.
        assert log.storage.flushed_offset == 3
        log.close()
        again = PartitionLog("t", 0, log_dir=str(tmp_path), storage=config)
        assert again.latest_offset == 3
        again.close()

    def test_producer_dedup_survives_restart(self, tmp_path):
        config = StorageConfig(flush_ms=5.0, fsync_acks=True)
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=config)
        first = log.append_many(
            [b"v1", b"v2"], producer_id=7, producer_epoch=1, base_sequence=0
        )
        log.close()
        again = PartitionLog("t", 0, log_dir=str(tmp_path), storage=config)
        # The retried batch must ack with its ORIGINAL offsets, not append.
        replay = again.append_many(
            [b"v1", b"v2"], producer_id=7, producer_epoch=1, base_sequence=0
        )
        assert [r.offset for r in replay] == [r.offset for r in first]
        assert again.latest_offset == 2
        assert again.duplicates_dropped == 2
        again.close()

    def test_a_retry_of_a_truncated_batch_is_appended_at_the_log_end(self, tmp_path):
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=MANUAL)
        log.append_many([b"a", b"b"], producer_id=7, base_sequence=0)
        log.append_many([b"c", b"d"], producer_id=7, base_sequence=2)
        assert log.truncate_to(2) == 2
        retry = log.append_many([b"c", b"d"], producer_id=7, base_sequence=2)
        assert [r.offset for r in retry] == [2, 3]
        assert (log.latest_offset, log.duplicates_dropped) == (4, 0)
        log.close()

    @staticmethod
    def _two_sealed_batches(path):
        """A log whose batches (pid 7, seqs 0 and 2) each filled and
        sealed a segment: ``producer.snap`` names both."""
        config = StorageConfig(segment_bytes=1024, flush_ms=60_000.0)
        log = PartitionLog("t", 0, log_dir=path, storage=config)
        for seq in (0, 2):
            log.append_many([b"%d" % seq * 1024] * 2, producer_id=7, base_sequence=seq)
            log.storage.flush()
        assert log.storage.counters["segments_sealed"] == 2
        return log, config

    def test_a_truncation_rewrites_the_snapshot(self, tmp_path):
        log, config = self._two_sealed_batches(str(tmp_path))
        log.truncate_to(2)
        log.append_many([b"new"], producer_id=8, base_sequence=0)
        log.storage.flush()  # small: the active segment stays active
        crash(log.storage)
        again = PartitionLog("t", 0, log_dir=str(tmp_path), storage=config)
        assert again.latest_offset == 3
        # The snapshot covers the cut log, the active segment the rest.
        assert again.append_many([b"new"], producer_id=8, base_sequence=0)[0].offset == 2
        retry = again.append_many([b"2" * 1024] * 2, producer_id=7, base_sequence=2)
        assert [r.offset for r in retry] == [3, 4]
        assert again.duplicates_dropped == 1
        again.close()

    def test_a_crash_between_a_cut_and_its_snapshot_write(self, tmp_path, monkeypatch):
        log, config = self._two_sealed_batches(str(tmp_path))
        monkeypatch.setattr(log.storage, "_write_snapshot", lambda *args: None)
        log.truncate_to(2)
        crash(log.storage)  # producer.snap still names the cut batch
        again = PartitionLog("t", 0, log_dir=str(tmp_path), storage=config)
        assert again.latest_offset == 2
        retry = again.append_many([b"2" * 1024] * 2, producer_id=7, base_sequence=2)
        assert [r.offset for r in retry] == [2, 3]
        replay = again.append_many([b"0" * 1024] * 2, producer_id=7, base_sequence=0)
        assert [r.offset for r in replay] == [0, 1]
        assert again.duplicates_dropped == 2
        again.close()

    def test_fetch_merges_sealed_and_active(self, tmp_path):
        config = StorageConfig(segment_bytes=300, flush_ms=60_000.0)
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=config)
        for i in range(10):
            log.append_many([b"z" * 40] * 3)
            log.storage.flush()
        # One final append without a flush, so the deque eviction catches
        # up with the last seal and the hot tail is non-empty.
        log.append_many([b"z" * 40] * 3)
        total = 33
        assert log.storage.counters["segments_sealed"] >= 2
        boundary = log.storage.active_base
        assert 0 < boundary < total
        out = log.fetch(0, max_records=100)
        assert [r.offset for r in out] == list(range(total))
        # Below the boundary: zero-copy views off the mmap; above: the
        # deque's original bytes.
        assert isinstance(out[0].value, memoryview)
        assert isinstance(out[-1].value, bytes)
        # The deque only holds the active tail (memory stays bounded).
        assert log._records[0].offset == boundary
        log.close()

    def test_restart_with_retention_already_exceeded(self, tmp_path):
        config = StorageConfig(segment_bytes=200, flush_ms=60_000.0)
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=config)
        for i in range(10):
            log.append_many([b"w" * 50] * 2)
            log.storage.flush()
        end = log.latest_offset
        log.close()
        # Reopen with a cap the existing files already blow through.
        again = PartitionLog(
            "t", 0, retention_bytes=400, log_dir=str(tmp_path), storage=config
        )
        assert again.latest_offset == end
        assert again.earliest_offset > 0
        assert again.storage.counters["segments_deleted"] >= 1
        out = again.fetch(again.earliest_offset, max_records=100)
        assert [r.offset for r in out] == list(range(again.earliest_offset, end))
        with pytest.raises(OffsetOutOfRangeError):
            again.fetch(0, max_records=1)
        again.close()

    def test_truncate_durable_across_sealed(self, tmp_path):
        config = StorageConfig(segment_bytes=200, flush_ms=60_000.0)
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=config)
        for i in range(8):
            log.append_many([b"q" * 50] * 2)
            log.storage.flush()
        assert log.storage.active_base > 3
        removed = log.truncate_to(3)
        assert removed == 13
        assert log.latest_offset == 3
        assert [r.offset for r in log.fetch(0, 100)] == [0, 1, 2]
        # Appends continue at the cut, and a restart agrees.
        log.append_many([b"after"])
        log.storage.flush()
        log.close()
        again = PartitionLog("t", 0, log_dir=str(tmp_path), storage=config)
        assert again.latest_offset == 4
        assert bytes(again.fetch(3, 1)[0].value) == b"after"
        again.close()

    def test_offset_for_time_spans_sealed_segments(self, tmp_path):
        config = StorageConfig(segment_bytes=150, flush_ms=60_000.0)
        log = PartitionLog("t", 0, log_dir=str(tmp_path), storage=config)
        import time as _time

        stamps = []
        for i in range(6):
            stamps.append(_time.monotonic())
            log.append_many([b"ts" * 30] * 2)
            log.storage.flush()
        assert log.storage.counters["segments_sealed"] >= 1
        # A timestamp just before batch i must land on offset 2*i even
        # when that offset lives in a sealed segment.
        assert log.offset_for_time(stamps[1]) == 2
        assert log.offset_for_time(0.0) == 0
        log.close()
