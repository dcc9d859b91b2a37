"""Segment-backed durable log store with group-commit and mmap reads.

The write path is Kafka's: appends park their records in an in-memory
*pending* queue (paying only exact-size arithmetic on the ack path); a
single :class:`GroupCommitFlusher` thread wakes every ``flush_ms`` (or
immediately when ``flush_bytes`` of data or a durability waiter is
pending) and retires the whole queue — encoding each batch (CRC
included) into writev-ready buffer lists right before one ``writev`` +
one ``fsync`` — so N concurrent producers pay one serialization pass
and one disk sync between them, not one each. With ``fsync_acks=True`` an append blocks until its batch
is on disk (group-committed with everything else in the window); with
the default ``False`` the ack is in-memory and the fsync happens on the
flush timer, bounding the loss window to one flush interval — the
replicated deployment covers that window via ``acks="all"``.

The read path: *sealed* (rolled) segments are memory-mapped, and batch
decoding returns records whose values are ``memoryview`` slices of the
mapping — fetches of cold data come straight off the OS page cache with
zero copies and zero syscalls. The hot tail (the active segment) is
never read from disk at all: :class:`~repro.broker.partition.PartitionLog`
keeps those records in its in-memory deque and only consults the store
for offsets below the active segment's base. The kernel's copy of the
active segment would be a second, never-read one, so its durable pages
are handed back after the fsync (``_release_durable_pages``).

Recovery scans **only the active segment** (CRC-verifying every batch,
truncating at the first torn/corrupt one); sealed segments are trusted
by construction — they were fsynced and renamed into immutability at
roll time — and their per-batch position lists are rebuilt lazily by
one header scan, so boot cost is linear in the active segment size, not
the log size. A clean ``close()`` seals the active segment too, so only
a crash leaves anything to scan.
"""

from __future__ import annotations

import json
import mmap
import os
import threading
import time
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.broker.producer_state import ProducerStateTable
from repro.broker.storage.segment import (
    decode_batch,
    encode_batch,
    encoded_batch_size,
    read_batch_info,
    scan_batches,
    segment_filename,
    LOG_SUFFIX,
)
from repro.monitoring.instruments import MetricsRegistry
from repro.util.validation import check_positive

#: Producer-state snapshot file (JSON, atomically replaced).
SNAPSHOT_FILE = "producer.snap"

#: writev is capped at IOV_MAX buffers per call; stay safely below it.
_IOV_CHUNK = 512


class StorageError(RuntimeError):
    """The store is unusable (closed, or a previous flush failed)."""


class TornWriteError(StorageError):
    """An injected torn write: the flush died mid-batch (crash stand-in)."""


@dataclass(frozen=True)
class StorageConfig:
    """Knobs of the on-disk log backend.

    A segment rolls at the first *flush* that takes it to ``segment_bytes``,
    so its size is bounded by ``segment_bytes`` plus one flush's pending
    data, which nothing caps (an in-process ``acks="all"`` pre-fill of
    260 x 256 KB wrote one 66.6 MB segment at the 32 MiB default). That
    is also the most a crash leaves for the next boot to scan; a clean
    ``close()`` seals the segment and leaves nothing. The group-commit
    window is a deadline: a flush comes ``flush_ms`` after the first
    append it covers, sooner only once ``flush_bytes`` are pending or
    under ``fsync_acks``, which makes appends block until their batch is
    fsynced (single-node durability) instead of relying on that window +
    replication.
    """

    segment_bytes: int = 32 * 1024 * 1024
    flush_ms: float = 50.0
    flush_bytes: int = 1024 * 1024
    fsync_acks: bool = False

    def __post_init__(self) -> None:
        check_positive("segment_bytes", self.segment_bytes)
        check_positive("flush_ms", self.flush_ms)
        check_positive("flush_bytes", self.flush_bytes)


class RecoveryResult(NamedTuple):
    """What a boot-time scan reconstructed."""

    records: list  # active-segment records (the hot tail, for the deque)
    base_offset: int  # earliest retained offset across all segments
    next_offset: int  # offset the next append will get
    producer_snapshot: dict  # wire-format idempotence state
    scan_bytes: int  # bytes CRC-scanned (active segment only)
    truncated_bytes: int  # torn tail dropped by the CRC scan
    segments: int  # sealed segments adopted without scanning


class GroupCommitFlusher:
    """One background thread amortizing ``write``+``fsync`` across stores.

    Stores enqueue themselves via :meth:`request`; the thread collects a
    window's worth (``flush_ms`` from the first request, cut short only
    by an *urgent* one) and flushes each dirty store once. One flusher
    serves every partition of a broker, so a broker-wide burst costs one
    fsync per partition per window regardless of producer count.
    """

    def __init__(self, flush_ms: float = 50.0) -> None:
        check_positive("flush_ms", flush_ms)
        self._interval = flush_ms / 1000.0
        self._cond = threading.Condition()
        self._dirty: set = set()
        self._urgent = False
        self._opened = 0.0  # when the first store of this window went dirty
        self._stopping = False
        self._thread: threading.Thread | None = None

    def _ensure_thread(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="log-flusher", daemon=True
            )
            self._thread.start()

    def request(self, store, urgent: bool = False) -> None:
        """Mark *store* dirty; *urgent* skips the group-commit window."""
        with self._cond:
            if self._stopping:
                raise StorageError("flusher is stopped")
            self._ensure_thread()
            opening = not self._dirty
            self._dirty.add(store)
            if opening:
                self._opened = time.monotonic()
            self._urgent = self._urgent or urgent
            if opening or urgent:  # else the window is open: nobody to wake
                self._cond.notify()

    def _run(self) -> None:
        cond = self._cond
        while True:
            with cond:
                while not self._dirty and not self._stopping:
                    cond.wait()
                if self._stopping and not self._dirty:
                    return
                # The group-commit window: concurrent appends pile into
                # pending, so one fsync covers them all, until flush_ms
                # after the first — unless one is urgent, or on stop().
                cond.wait_for(
                    lambda: self._urgent or self._stopping,
                    self._opened + self._interval - time.monotonic(),
                )
                stores = list(self._dirty)
                self._dirty.clear()
                self._urgent = False
            for store in stores:
                try:
                    store.flush()
                except StorageError:
                    # The store marked itself failed; waiters see it.
                    store.counters["flush_errors"] += 1

    def stop(self) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None


#: Records the per-partition LRU of decoded sealed batches may hold.
_DECODE_CACHE_RECORDS = 16384


class _DecodeCache:
    """Record-count-bounded LRU of decoded sealed batches.

    Decoding a batch off the mmap costs ~1µs of struct/object work per
    record; the deque (hot tail) pays none of that because its records
    are born decoded. This cache gives re-read sealed data the same
    property: the first fetch decodes, every later fetch of the batch —
    another consumer in the group, a replay, a lagging follower — is a
    dict hit. Values inside cached records stay zero-copy
    ``memoryview`` slices (they pin their segment's mapping, which is
    why the cache is cleared whenever segments are unwound or evicted).
    """

    __slots__ = ("_entries", "_records", "_lock", "counters")

    def __init__(self, counters: dict) -> None:
        self._entries: OrderedDict = OrderedDict()
        self._records = 0
        self._lock = threading.Lock()
        self.counters = counters

    def get(self, key) -> list | None:
        with self._lock:
            records = self._entries.get(key)
            if records is None:
                self.counters["decode_cache_misses"] += 1
                return None
            self._entries.move_to_end(key)
            self.counters["decode_cache_hits"] += 1
            return records

    def put(self, key, records: list) -> None:
        if not records:
            return
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = records
            self._records += len(records)
            while self._records > _DECODE_CACHE_RECORDS and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self._records -= len(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._records = 0


class _SealedSegment:
    """An immutable, memory-mapped segment of the log."""

    __slots__ = (
        "base",
        "end",
        "size",
        "path",
        "last_write_ts",
        "_mmap",
        "_view",
        "_dense",
        "_open_lock",
    )

    def __init__(self, path: str, base: int, end: int, size: int,
                 last_write_ts: float, batches: list | None = None):
        self.path = path
        self.base = base
        self.end = end
        self.size = size
        #: Monotonic timestamp of the newest record (age retention).
        self.last_write_ts = last_write_ts
        self._mmap = None
        self._view = None
        #: Dense ``[(base_offset, file_pos)]`` for every batch — handed
        #: over for free at roll time, or rebuilt by one lazy header
        #: scan for segments adopted at boot. Lets a read jump straight
        #: to its batch (and, on a decode-cache hit, skip parsing the
        #: batch header entirely).
        self._dense = batches
        self._open_lock = threading.Lock()

    def open_map(self):
        with self._open_lock:
            if self._view is None:
                with open(self.path, "rb") as fh:
                    self._mmap = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                self._view = memoryview(self._mmap)
            return self._view

    def dense_index(self) -> list:
        """Dense per-batch positions, built by one header scan if absent."""
        with self._open_lock:
            if self._dense is not None:
                return self._dense
        view = self.open_map()
        dense = [
            (info.base_offset, info.pos)
            for info in scan_batches(view, 0, self.size)
        ]
        with self._open_lock:
            self._dense = dense
        return dense

    def read(self, offset: int, max_count: int, topic: str, partition: int,
             cache: _DecodeCache) -> list:
        """Records in ``[offset, offset+max_count)`` held by this segment."""
        dense = self._dense
        if dense is None:
            dense = self.dense_index()
        # (offset,) sorts before (offset, pos): lands on the first batch
        # whose base is >= offset, step back to the one containing it.
        i = bisect_right(dense, (offset,)) - 1
        if i < 0:
            i = 0
        n = len(dense)
        end_cap = offset + max_count
        seg_base = self.base
        view = None
        out: list = []
        while i < n:
            base, pos = dense[i]
            if base >= end_cap:
                break
            records = cache.get((seg_base, pos))
            if records is None:
                if view is None:
                    view = self.open_map()
                info = read_batch_info(view, pos, self.size)
                if info is None:
                    break
                records = decode_batch(view, info, topic, partition)
                cache.put((seg_base, pos), records)
            if base + len(records) <= offset:
                i += 1
                continue
            if base < offset:
                records = records[offset - base :]
            out.extend(records)
            if len(out) >= max_count:
                del out[max_count:]
                break
            i += 1
        return out

    def close(self) -> None:
        with self._open_lock:
            view, self._view = self._view, None
            mapped, self._mmap = self._mmap, None
        try:
            if view is not None:
                view.release()
            if mapped is not None:
                mapped.close()
        except (BufferError, ValueError):
            # Zero-copy views are still in flight; the mapping dies with
            # its last reference instead.
            pass


class _PendingBatch(NamedTuple):
    """An appended-but-unflushed batch.

    Holds the *records*, not their encoding: the flusher encodes (CRC
    included) right before the ``writev``, so the producer's ack path
    pays only size arithmetic — serialization is amortized into the
    group-commit window alongside the fsync.
    """

    base: int
    end: int
    nbytes: int  # exact encoded size (encoded_batch_size)
    records: list
    producer_id: int | None
    producer_epoch: int
    base_sequence: int | None
    write_ts: float

    def encode(self) -> list:
        buffers, nbytes = encode_batch(
            self.records,
            self.producer_id,
            self.producer_epoch,
            self.base_sequence,
            self.write_ts,
        )
        if nbytes != self.nbytes:
            raise StorageError(
                f"encoded batch size {nbytes} != accounted {self.nbytes}"
            )
        return buffers


class SegmentStore:
    """Durable backend for one partition: segments + group-commit + mmap.

    The store never takes the owning :class:`PartitionLog`'s lock — the
    log calls in (holding its lock) and the flusher thread only ever
    takes store locks, so the lock order is strictly log → store.
    """

    def __init__(
        self,
        directory: str,
        topic: str,
        partition: int,
        config: StorageConfig | None = None,
        flusher: GroupCommitFlusher | None = None,
        journal=None,
        registry=None,
    ) -> None:
        self.topic = topic
        self.partition = int(partition)
        self.config = config or StorageConfig()
        self.directory = directory
        self._flusher = flusher
        # ``journal`` quacks like EventJournal (``emit``) and may be
        # None. The latency histograms are resolved here, once; the
        # counts below are plain fields the manager reports by reader.
        self.journal = journal
        registry = registry or MetricsRegistry()
        self._fsync_latency = registry.histogram("storage.fsync_latency_seconds")
        self._flush_window = registry.histogram("storage.flush_window_seconds")
        # A flush whose device I/O alone exceeds this is journalled as a
        # flush_stall: 5x the commit window, floored at 250 ms so a
        # tight window doesn't turn every slow fsync into an incident.
        self.flush_stall_s = max(0.25, 5.0 * self.config.flush_ms / 1000.0)
        #: Optional :class:`repro.faults.FaultInjector`; its ``on_flush``
        #: hook can tear a flush mid-batch (crash-recovery tests).
        self.fault_injector = None
        #: Optional callback ``(topic, partition, base, end, path, size)``
        #: invoked with the file still on disk before a retention-evicted
        #: segment is unlinked — the tiered-offload hook.
        self.on_evict = None
        # _lock guards in-memory state; _io_lock serializes file mutation
        # (flush/roll/truncate). _io_lock is taken first, never while
        # holding _lock.
        self._lock = threading.Lock()
        self._flush_cond = threading.Condition(self._lock)
        self._io_lock = threading.RLock()
        self._sealed: list[_SealedSegment] = []
        self._pending: list[_PendingBatch] = []
        self._pending_bytes = 0
        #: Producer dedup state of *flushed* data only (what the snapshot
        #: file may claim); the partition log keeps its own, fed on append.
        self._mirror = ProducerStateTable()
        self._failed: BaseException | None = None
        self._closed = False
        self.counters: dict = {
            "appended_batches": 0,
            "flushes": 0,
            "fsyncs": 0,
            "flushed_bytes": 0,
            "segments_sealed": 0,
            "segments_deleted": 0,
            "segments_offloaded": 0,
            "offload_errors": 0,
            "flush_errors": 0,
            "truncations": 0,
            "torn_writes": 0,
            "recovered_records": 0,
            "recovered_batches": 0,
            "recovery_scan_bytes": 0,
            "decode_cache_hits": 0,
            "decode_cache_misses": 0,
        }
        self._decode_cache = _DecodeCache(self.counters)
        self._active_fd = -1
        self._active_path = ""
        self._active_base = 0
        self._active_size = 0  # flushed bytes in the active file
        #: Page-aligned: the active file's pages below it were released.
        self._released = 0
        self._active_batches: list = []  # (base_offset, file_pos) per batch
        self._last_write_ts = time.monotonic()
        self._base_offset = 0
        self._end_offset = 0  # next offset (includes pending)
        self._flushed_offset = 0  # durable end
        recover_start = time.monotonic()
        self.recovered = self._recover()
        duration = time.monotonic() - recover_start
        registry.histogram("storage.recovery_seconds").observe(duration)
        if journal is not None:
            journal.emit(
                "recovery_completed",
                topic=self.topic,
                partition=self.partition,
                records=len(self.recovered.records),
                scan_bytes=self.recovered.scan_bytes,
                truncated_bytes=self.recovered.truncated_bytes,
                segments=self.recovered.segments,
                next_offset=self.recovered.next_offset,
                duration_ms=round(duration * 1000.0, 3),
            )

    # -- boot-time recovery --------------------------------------------------

    def _recover(self) -> RecoveryResult:
        os.makedirs(self.directory, exist_ok=True)
        logs = sorted(
            f for f in os.listdir(self.directory) if f.endswith(LOG_SUFFIX)
        )
        now_mono = time.monotonic()
        now_wall = time.time()
        for name in logs[:-1]:
            # Sealed segments are adopted without scanning: their length
            # and offset range follow from the file sizes and the next
            # segment's base offset (segments are dense). Ages survive
            # the restart via mtime (monotonic clocks do not).
            path = os.path.join(self.directory, name)
            base = int(name[: -len(LOG_SUFFIX)])
            stat = os.stat(path)
            seg = _SealedSegment(path, base, 0, stat.st_size,
                                 now_mono - max(0.0, now_wall - stat.st_mtime))
            self._sealed.append(seg)
        active_name = logs[-1] if logs else segment_filename(0)
        active_path = os.path.join(self.directory, active_name)
        active_base = int(active_name[: -len(LOG_SUFFIX)])
        for i, seg in enumerate(self._sealed):
            seg.end = (
                self._sealed[i + 1].base if i + 1 < len(self._sealed) else active_base
            )
            seg.open_map()

        # The active segment is the only file a crash can have torn:
        # CRC-scan it, truncate at the first bad batch, and rebuild the
        # dense batch index + the hot-tail records from the valid prefix.
        records: list = []
        batches: list = []
        valid_end = 0
        file_size = 0
        next_offset = active_base
        producer_batches: list = []
        if os.path.exists(active_path):
            file_size = os.path.getsize(active_path)
        if file_size:
            # Scanned through a mapping, so each record is copied once
            # (into its own bytes), not twice via a whole-file read.
            with open(active_path, "rb") as fh, mmap.mmap(
                fh.fileno(), 0, access=mmap.ACCESS_READ
            ) as mapped, memoryview(mapped) as data:
                for info in scan_batches(data, 0, file_size, verify_crc=True):
                    batches.append((info.base_offset, info.pos))
                    records.extend(
                        decode_batch(data, info, self.topic, self.partition, copy=True)
                    )
                    if info.producer_id >= 0:
                        producer_batches.append(info)
                    valid_end = info.end_pos
                    next_offset = info.end_offset
            if valid_end < file_size:
                os.truncate(active_path, valid_end)

        snapshot_as_of, mirror = self._load_snapshot(active_base)
        for info in producer_batches:
            if info.base_offset >= snapshot_as_of:
                mirror.apply(
                    info.producer_id,
                    info.producer_epoch,
                    info.base_sequence,
                    info.base_offset,
                    info.count,
                )
        self._mirror = mirror

        self._active_fd = os.open(
            active_path, os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o644
        )
        self._active_path = active_path
        self._active_base = active_base
        self._active_size = valid_end
        self._active_batches = batches
        self._base_offset = self._sealed[0].base if self._sealed else active_base
        self._end_offset = next_offset
        self._flushed_offset = next_offset
        self.counters["recovered_records"] = len(records)
        self.counters["recovered_batches"] = len(batches)
        self.counters["recovery_scan_bytes"] = file_size
        return RecoveryResult(
            records=records,
            base_offset=self._base_offset,
            next_offset=next_offset,
            producer_snapshot=mirror.to_wire(),
            scan_bytes=file_size,
            truncated_bytes=file_size - valid_end,
            segments=len(self._sealed),
        )

    def _load_snapshot(self, default_as_of: int) -> tuple[int, ProducerStateTable]:
        path = os.path.join(self.directory, SNAPSHOT_FILE)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return default_as_of, ProducerStateTable()
        return (
            int(data.get("as_of", default_as_of)),
            ProducerStateTable.from_wire(data.get("producers", {})),
        )

    # -- producer-state mirror ----------------------------------------------

    def _write_snapshot(self, snapshot: dict, as_of: int) -> None:
        """Best-effort (no fsync) snapshot write; recovery replays the
        active segment on top, so a lost snapshot only costs replay of
        batches it already covered."""
        path = os.path.join(self.directory, SNAPSHOT_FILE)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"as_of": as_of, "producers": snapshot}, fh)
            os.replace(tmp, path)
        except OSError:
            pass

    def save_producer_snapshot(self, snapshot: dict) -> None:
        """Adopt a full snapshot pushed by replication.

        Replica installs carry no per-batch producer ids (the leader
        deduplicated), so the pushed snapshot is a follower's only
        source of dedup state across a restart. Snapshots arrive with
        *every* replicated batch, so this only updates the in-memory
        mirror — the file is written at roll/close time (a crash loses
        at most the window since the last roll, and the leader re-pushes
        on the first post-restart batch anyway).
        """
        mirror = ProducerStateTable.from_wire(snapshot)
        with self._lock:
            self._mirror = mirror

    # -- write path ----------------------------------------------------------

    def append_batch(
        self,
        records,
        producer_id: int | None = None,
        producer_epoch: int = 0,
        base_sequence: int | None = None,
    ) -> int:
        """Enqueue an encoded batch; returns its end offset.

        Does not block on disk — the flusher retires the queue. Call
        :meth:`wait_durable` (or configure ``fsync_acks`` at the
        :class:`PartitionLog` layer) for commit-before-ack semantics.
        """
        if not records:
            return self._end_offset
        now = time.monotonic()
        nbytes = encoded_batch_size(records)
        with self._lock:
            self._raise_if_unusable()
            batch = _PendingBatch(
                records[0].offset,
                records[-1].offset + 1,
                nbytes,
                list(records),
                producer_id,
                producer_epoch,
                base_sequence,
                now,
            )
            self._pending.append(batch)
            self._pending_bytes += nbytes
            self._end_offset = batch.end
            self.counters["appended_batches"] += 1
            urgent = (
                self._pending_bytes >= self.config.flush_bytes
                or self.config.fsync_acks
            )
        if self._flusher is not None:
            self._flusher.request(self, urgent=urgent)
        return batch.end

    def wait_durable(self, offset: int, timeout: float) -> bool:
        """Block until everything below *offset* is written + fsynced."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._flushed_offset < offset:
                self._raise_if_unusable()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._flush_cond.wait(remaining)
            return True

    def _raise_if_unusable(self) -> None:
        if self._failed is not None:
            raise StorageError(
                f"store {self.topic}/{self.partition} failed: {self._failed}"
            ) from self._failed
        if self._closed:
            raise StorageError(f"store {self.topic}/{self.partition} is closed")

    def flush(self) -> int:
        """Write + fsync every pending batch (one sync for the window)."""
        with self._io_lock:
            return self._flush_io()

    def _flush_io(self) -> int:
        # Caller holds _io_lock.
        with self._lock:
            if self._closed or self._failed is not None:
                return self._flushed_offset
            pending = self._pending
            if not pending:
                return self._flushed_offset
            self._pending = []
            self._pending_bytes = 0
        try:
            injector = self.fault_injector
            if injector is not None and injector.on_flush(
                f"{self.topic}/{self.partition}"
            ):
                self._torn_write(pending)
            buffers: list = []
            for batch in pending:
                buffers.extend(batch.encode())
            io_start = time.perf_counter()
            self._write_buffers(buffers)
            os.fsync(self._active_fd)
            io_elapsed = time.perf_counter() - io_start
        except TornWriteError:
            raise
        except BaseException as exc:
            with self._lock:
                self._failed = exc
                self._flush_cond.notify_all()
            raise StorageError(f"flush failed: {exc}") from exc
        flushed_bytes = sum(b.nbytes for b in pending)
        with self._lock:
            pos = self._active_size
            for batch in pending:
                self._active_batches.append((batch.base, pos))
                pos += batch.nbytes
                if batch.producer_id is not None and batch.base_sequence is not None:
                    self._mirror.apply(
                        batch.producer_id,
                        batch.producer_epoch,
                        batch.base_sequence,
                        batch.base,
                        batch.end - batch.base,
                    )
            self._active_size = pos
            self._flushed_offset = pending[-1].end
            self._last_write_ts = pending[-1].write_ts
            self.counters["flushes"] += 1
            self.counters["fsyncs"] += 1
            self.counters["flushed_bytes"] += flushed_bytes
            self._flush_cond.notify_all()
        self._fsync_latency.observe(io_elapsed)
        now = time.monotonic()
        self._flush_window.observe_many([now - b.write_ts for b in pending])
        journal = self.journal
        if journal is not None and io_elapsed >= self.flush_stall_s:
            journal.emit(
                "flush_stall",
                topic=self.topic,
                partition=self.partition,
                duration_ms=round(io_elapsed * 1000.0, 3),
                bytes=flushed_bytes,
                batches=len(pending),
            )
        rolling = self._active_size >= self.config.segment_bytes
        self._release_durable_pages(at_roll=rolling)
        if rolling:
            self._roll_io()
        return pending[-1].end

    def _release_durable_pages(self, at_roll: bool) -> None:
        """Caller holds _io_lock, right after an fsync: drop the active
        file's durable whole pages from the page cache, in runs of at
        least an eighth of a segment (a call per small flush costs
        small_stream 4 %) or whatever is left when the segment rolls.
        The price: a just-sealed segment, recovery after a crash and
        ``truncate_to`` read from disk."""
        fadvise = getattr(os, "posix_fadvise", None)
        end = self._active_size & -mmap.PAGESIZE
        run = end - self._released
        if fadvise is not None and run >= (1 if at_roll else self.config.segment_bytes // 8):
            try:
                fadvise(self._active_fd, self._released, run, os.POSIX_FADV_DONTNEED)
                self._released = end
            except OSError:
                pass  # advice only: durability does not depend on it

    def _write_buffers(self, buffers: list) -> None:
        fd = self._active_fd
        for i in range(0, len(buffers), _IOV_CHUNK):
            chunk = buffers[i : i + _IOV_CHUNK]
            expected = sum(len(b) for b in chunk)
            written = os.writev(fd, chunk)
            if written != expected:
                # Partial writev on a regular file is ENOSPC territory,
                # but handle it: fall back to a joined tail write.
                tail = b"".join(bytes(b) for b in chunk)[written:]
                os.write(fd, tail)

    def _torn_write(self, pending: list) -> None:
        """Injected crash: persist all but half of the final batch, then die."""
        buffers: list = []
        for batch in pending[:-1]:
            buffers.extend(batch.encode())
        last = b"".join(bytes(b) for b in pending[-1].encode())
        buffers.append(last[: len(last) // 2])
        self._write_buffers(buffers)
        os.fsync(self._active_fd)
        exc = TornWriteError(
            f"injected torn write on {self.topic}/{self.partition}"
        )
        with self._lock:
            self._failed = exc
            self.counters["torn_writes"] += 1
            self._flush_cond.notify_all()
        raise exc

    # -- segment roll --------------------------------------------------------

    def _roll_io(self) -> None:
        # Caller holds _io_lock; pending has just been flushed.
        with self._lock:
            base = self._active_base
            end = self._flushed_offset
            size = self._active_size
            batches = list(self._active_batches)
            snapshot = self._mirror.to_wire()
            last_ts = self._last_write_ts
        # Seal: the file is complete and fsynced; freeze the producer
        # snapshot next to it, then swap in a fresh active segment.
        # Readers flip from the deque to the mmap only after the sealed
        # entry is published under the lock.
        os.close(self._active_fd)
        seg = _SealedSegment(self._active_path, base, end, size, last_ts,
                             batches=batches)
        self._write_snapshot(snapshot, end)
        seg.open_map()
        new_path = os.path.join(self.directory, segment_filename(end))
        new_fd = os.open(new_path, os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o644)
        with self._lock:
            self._sealed.append(seg)
            self._active_fd = new_fd
            self._active_path = new_path
            self._active_base = end
            self._active_size = self._released = 0
            self._active_batches = []
            self.counters["segments_sealed"] += 1

    # -- read path -----------------------------------------------------------

    @property
    def active_base(self) -> int:
        """Base offset of the active segment = first offset NOT served
        from mmap. The partition log keeps ``[active_base, end)`` in
        memory and evicts below it."""
        with self._lock:
            return self._active_base

    @property
    def earliest_offset(self) -> int:
        with self._lock:
            return self._base_offset

    @property
    def next_offset(self) -> int:
        with self._lock:
            return self._end_offset

    @property
    def flushed_offset(self) -> int:
        with self._lock:
            return self._flushed_offset

    @property
    def size_bytes(self) -> int:
        """Total log footprint on disk (framing included) + pending."""
        with self._lock:
            return (
                sum(seg.size for seg in self._sealed)
                + self._active_size
                + self._pending_bytes
            )

    def read(self, offset: int, max_count: int) -> list:
        """Records from sealed segments (mmap, zero-copy), capped at the
        active segment's base — the caller serves the rest from memory."""
        with self._lock:
            sealed = list(self._sealed)
            active_base = self._active_base
        if not sealed or offset >= active_base:
            return []
        i = bisect_right(sealed, offset, key=lambda s: s.base) - 1
        if i < 0:
            i = 0
        out: list = []
        while i < len(sealed) and len(out) < max_count:
            seg = sealed[i]
            if offset < seg.end:
                records = seg.read(
                    max(offset, seg.base),
                    max_count - len(out),
                    self.topic,
                    self.partition,
                    self._decode_cache,
                )
                out.extend(records)
                if records:
                    offset = records[-1].offset + 1
            i += 1
        return out

    def offset_for_time(self, timestamp: float) -> int | None:
        """Earliest sealed-segment offset appended at/after *timestamp*.

        Batch headers carry the flush time (``>=`` every contained
        record's append time), so segments/batches wholly older than
        *timestamp* are skipped from their headers alone; only the first
        candidate batch is decoded. ``None`` = nothing sealed qualifies
        (the caller continues the search in its in-memory tail).
        """
        with self._lock:
            sealed = list(self._sealed)
        for seg in sealed:
            if seg.last_write_ts < timestamp:
                continue
            view = seg.open_map()
            for info in scan_batches(view, 0, seg.size):
                if info.write_ts < timestamp:
                    continue
                for record in decode_batch(view, info, self.topic, self.partition):
                    if record.append_ts >= timestamp:
                        return record.offset
        return None

    # -- truncation (follower resync) ---------------------------------------

    def truncate_to(self, offset: int):
        """Drop everything at/above *offset* from disk.

        Returns ``None`` when the cut stayed at/above the active
        segment's base (the caller's in-memory tail truncation
        suffices), or the list of surviving records below the cut when
        sealed segments had to be unwound — the caller replaces its
        in-memory tail with them, since the unwound segment becomes the
        new active one. Batches straddling the cut are rewritten from
        their surviving prefix (re-encoded and re-flushed), reusing the
        append primitives.
        """
        with self._io_lock:
            self._flush_io()
            with self._lock:
                self._raise_if_unusable()
                if offset >= self._end_offset:
                    return None
                self.counters["truncations"] += 1
                active_base = self._active_base
                self._mirror.truncate(offset)
            if offset >= active_base:
                self._truncate_active_io(offset)
                return None
            return self._unwind_sealed_io(offset)

    def _truncate_active_io(self, offset: int) -> None:
        # Find the first batch at/after the cut; the file is truncated at
        # its position. A straddling batch (base < offset < end) is
        # decoded from disk and its surviving prefix re-appended.
        with self._lock:
            batches = self._active_batches
            cut_pos = self._active_size
            keep: list = []
            straddler = None
            for j, (base, pos) in enumerate(batches):
                batch_end = (
                    batches[j + 1][1] if j + 1 < len(batches) else self._active_size
                )
                if base >= offset:
                    cut_pos = min(cut_pos, pos)
                    break
                next_base = (
                    batches[j + 1][0] if j + 1 < len(batches) else self._flushed_offset
                )
                if next_base > offset:
                    straddler = (pos, batch_end - pos, base)
                    cut_pos = pos
                    break
                keep.append((base, pos))
            survivors: list = []
            if straddler is not None:
                pos, length, base = straddler
                data = os.pread(self._active_fd, length, pos)
                info = read_batch_info(data, 0, length)
                if info is not None:
                    survivors = decode_batch(
                        data, info, self.topic, self.partition, copy=True
                    )[: offset - base]
            os.ftruncate(self._active_fd, cut_pos)
            self._active_size = cut_pos
            self._released = min(self._released, cut_pos & -mmap.PAGESIZE)
            self._active_batches = keep
            # Without a straddler the cut lands on a batch boundary, so
            # exactly [base, offset) survives; with one, the file was cut
            # below its surviving prefix, which is re-appended below.
            new_end = straddler[2] if straddler is not None else min(
                self._flushed_offset, offset
            )
            self._flushed_offset = new_end
            self._end_offset = new_end
        if survivors:
            self.append_batch(survivors)
            self._flush_io()

    def _unwind_sealed_io(self, offset: int) -> list:
        # Remove the active file and every sealed segment at/above the
        # cut; the segment containing the cut is replayed into a fresh
        # active segment (its surviving records re-encoded), putting the
        # store back in the "tail lives in the active segment" invariant.
        # The unwound segment's base offset will be written again with
        # different content, so cached decodes must not outlive the cut.
        self._decode_cache.clear()
        os.close(self._active_fd)
        try:
            os.unlink(self._active_path)
        except OSError:
            pass
        with self._lock:
            keep: list = []
            victims: list = []
            reopen = None
            for seg in self._sealed:
                if seg.base >= offset:
                    victims.append(seg)
                elif seg.end > offset:
                    reopen = seg
                else:
                    keep.append(seg)
            self._sealed = keep
        survivors: list = []
        if reopen is not None:
            view = reopen.open_map()
            for info in scan_batches(view, 0, reopen.size):
                if info.base_offset >= offset:
                    break
                batch = decode_batch(view, info, self.topic, self.partition, copy=True)
                survivors.extend(batch[: max(0, offset - info.base_offset)])
            victims.append(reopen)
            new_base = reopen.base
        else:
            # The cut lands exactly on a segment boundary.
            new_base = keep[-1].end if keep else offset
        new_path = os.path.join(self.directory, segment_filename(new_base))
        for seg in victims:
            seg.close()
            if seg.path != new_path:
                try:
                    os.unlink(seg.path)
                except OSError:
                    pass
        fd = os.open(new_path, os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o644)
        os.ftruncate(fd, 0)
        with self._lock:
            self._active_fd = fd
            self._active_path = new_path
            self._active_base = new_base
            self._active_size = self._released = 0
            self._active_batches = []
            self._flushed_offset = new_base
            self._end_offset = new_base
            self._base_offset = keep[0].base if keep else new_base
        if survivors:
            self.append_batch(survivors)
            self._flush_io()
        return survivors

    # -- retention + tiered offload -----------------------------------------

    def enforce_retention(self, retention_bytes: int, retention_seconds: float) -> tuple:
        """Drop (or offload) whole sealed segments per the retention caps.

        The active segment is never dropped (Kafka's rule); granularity
        is a whole segment, so size retention can overshoot by at most
        one segment. Returns ``(bytes_dropped, new_base_offset)``.
        """
        if not retention_bytes and not retention_seconds:
            return 0, self.earliest_offset
        victims: list = []
        with self._lock:
            if not self._sealed:
                return 0, self._base_offset
            total = (
                sum(seg.size for seg in self._sealed)
                + self._active_size
                + self._pending_bytes
            )
            cutoff = (
                time.monotonic() - retention_seconds if retention_seconds > 0 else None
            )
            while self._sealed:
                head = self._sealed[0]
                if retention_bytes > 0 and total > retention_bytes:
                    pass
                elif cutoff is not None and head.last_write_ts < cutoff:
                    pass
                else:
                    break
                victims.append(head)
                self._sealed.pop(0)
                total -= head.size
            self._base_offset = (
                self._sealed[0].base if self._sealed else self._active_base
            )
            new_base = self._base_offset
        dropped = 0
        for seg in victims:
            callback = self.on_evict
            if callback is not None:
                try:
                    callback(self.topic, self.partition, seg.base, seg.end,
                             seg.path, seg.size)
                    self.counters["segments_offloaded"] += 1
                    journal = self.journal
                    if journal is not None:
                        journal.emit(
                            "segment_offloaded",
                            topic=self.topic,
                            partition=self.partition,
                            base=seg.base,
                            end=seg.end,
                            bytes=seg.size,
                        )
                except Exception:
                    # Offload is best-effort; retention proceeds.
                    self.counters["offload_errors"] += 1
            seg.close()
            try:
                os.unlink(seg.path)
            except OSError:
                pass
            dropped += seg.size
            self.counters["segments_deleted"] += 1
        if victims:
            # Cached records pin their segment's mapping via zero-copy
            # views; drop them so evicted files can actually unmap.
            self._decode_cache.clear()
        return dropped, new_base

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush, seal, snapshot, and release every file handle and mapping.

        A healthy store seals its non-empty active segment (the roll
        writes the snapshot), so the next boot adopts every segment by
        size and scans nothing. A failed store is left for crash recovery.
        """
        with self._io_lock:
            try:
                self._flush_io()
            except StorageError:
                pass
            with self._lock:
                if self._closed:
                    return
                sealing = self._failed is None and self._active_size > 0
            if sealing:
                self._roll_io()
            with self._lock:
                self._closed = True
                snapshot = self._mirror.to_wire()
                as_of = self._flushed_offset
                sealed = list(self._sealed)
                fd = self._active_fd
                self._flush_cond.notify_all()
            if self._failed is None and not sealing:
                self._write_snapshot(snapshot, as_of)
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
            self._decode_cache.clear()
            for seg in sealed:
                seg.close()

    @property
    def pending_bytes(self) -> int:
        """Bytes appended but not yet durable (awaiting group commit)."""
        with self._lock:
            return self._pending_bytes

    def stats(self) -> dict:
        with self._lock:
            return {
                "topic": self.topic,
                "partition": self.partition,
                "base_offset": self._base_offset,
                "next_offset": self._end_offset,
                "flushed_offset": self._flushed_offset,
                "active_base": self._active_base,
                "active_bytes": self._active_size,
                "pending_bytes": self._pending_bytes,
                "sealed_segments": len(self._sealed),
                **self.counters,
            }

    def __repr__(self) -> str:
        return (
            f"SegmentStore({self.topic}/{self.partition}, "
            f"dir={self.directory!r}, segments={len(self._sealed)}+active)"
        )


class LogStorageManager:
    """Per-broker registry of stores sharing one group-commit flusher.

    The broker creates one manager per ``log_dir``; every partition's
    store lives under ``{root}/{topic}-{partition}/`` and shares the
    manager's flusher thread, so the whole broker pays one flush loop.
    """

    def __init__(self, root: str, config: StorageConfig | None = None) -> None:
        self.root = root
        self.config = config or StorageConfig()
        self.flusher = GroupCommitFlusher(self.config.flush_ms)
        # Event-journal hook inherited by every store opened after it is
        # set (duck-typed; see SegmentStore.__init__). The owning broker
        # installs it before any topic is created, so even boot-recovery
        # stores report.
        self.journal = None
        #: Every store's histograms and this manager's totals; the
        #: owning broker adopts it as its own registry.
        self.registry = MetricsRegistry()
        self.registry.add_reader("counters", self._counter_totals, prefix="storage.")
        self.registry.add_reader("gauges", self._gauge_totals, prefix="storage.")
        self.registry.add_reader(
            "gauges", self._pending_by_partition, prefix="storage.pending_bytes."
        )
        self._stores: dict[tuple, SegmentStore] = {}
        self._lock = threading.Lock()

    def open(self, topic: str, partition: int) -> SegmentStore:
        key = (topic, int(partition))
        with self._lock:
            store = self._stores.get(key)
            if store is None:
                store = SegmentStore(
                    os.path.join(self.root, f"{topic}-{partition}"),
                    topic,
                    partition,
                    config=self.config,
                    flusher=self.flusher,
                    journal=self.journal,
                    registry=self.registry,
                )
                self._stores[key] = store
            return store

    def drop_topic(self, topic: str) -> None:
        """Close (but keep on disk) every store of *topic*."""
        with self._lock:
            victims = [s for (t, _), s in self._stores.items() if t == topic]
            self._stores = {k: s for k, s in self._stores.items() if k[0] != topic}
        for store in victims:
            store.close()

    def _store_list(self) -> list:
        with self._lock:
            return list(self._stores.values())

    def _counter_totals(self) -> dict:
        """Every store's ``counters`` field, summed."""
        totals: dict = {}
        for store in self._store_list():
            for key, value in store.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def _gauge_totals(self) -> dict:
        stores = self._store_list()
        return {
            "stores": len(stores),
            "size_bytes": sum(s.size_bytes for s in stores),
            "pending_bytes": sum(s.pending_bytes for s in stores),
        }

    def _pending_by_partition(self) -> dict:
        return {
            f"{store.topic}.{store.partition}": store.pending_bytes
            for store in self._store_list()
        }

    def stats(self) -> dict:
        """The manager's totals — what the registry reads as ``storage.*``."""
        return {**self._counter_totals(), **self._gauge_totals()}

    def close(self) -> None:
        with self._lock:
            stores = list(self._stores.values())
            self._stores.clear()
        for store in stores:
            store.close()
        self.flusher.stop()
