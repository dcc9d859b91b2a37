"""One partition's durable log: pending queue, active segment, sealed segments.

Appends park their records in an in-memory *pending* queue, paying only
exact-size arithmetic on the ack path. The
:class:`~repro.broker.storage.flusher.GroupCommitFlusher` retires the
queue once per window — each batch encoded, CRC included, right before
one ``writev`` + one ``fsync`` — so concurrent producers share one
serialization pass and one disk sync. A flush that takes the active
segment to ``segment_bytes`` seals it, and :mod:`~repro.broker.storage.segment`
serves it from its mapping from then on. The active segment is never
read back (:class:`~repro.broker.partition.PartitionLog` holds it in its
deque), so its durable pages go back to the kernel after each fsync.
Recovery CRC-scans only an active segment a crash left behind; sealed
ones are adopted by size. Every clock read goes through ``now`` (the
monotonic clock in production) but one: a boot dates the sealed
segments it adopts from their mtimes, which are wall-clock.
"""

from __future__ import annotations

import json
import mmap
import os
import threading
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from time import monotonic
from typing import NamedTuple

from repro.broker.producer_state import ProducerStateTable
from repro.broker.storage.segment import (
    LOG_SUFFIX,
    _DecodeCache,
    _SealedSegment,
    decode_batch,
    encode_batch,
    encoded_batch_size,
    scan_batches,
    segment_filename,
    shorten_batch,
)
from repro.monitoring.instruments import MetricsRegistry
from repro.util.validation import check_positive

#: Producer-state snapshot file (JSON, atomically replaced).
SNAPSHOT_FILE = "producer.snap"

#: writev is capped at IOV_MAX buffers per call; stay safely below it.
_IOV_CHUNK = 512

#: Pending bytes in one store that make its flush urgent (end the window).
_FLUSH_BYTES = 1024 * 1024


class StorageError(RuntimeError):
    """The store is unusable (closed, or a previous flush failed)."""


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
    append it covers, sooner only once 1 MiB is pending or under
    ``fsync_acks``, which makes appends block until their batch is
    fsynced (single-node durability) instead of relying on that window +
    replication.
    """

    segment_bytes: int = 32 * 1024 * 1024
    flush_ms: float = 50.0
    fsync_acks: bool = False

    def __post_init__(self) -> None:
        check_positive("segment_bytes", self.segment_bytes)
        check_positive("flush_ms", self.flush_ms)


class RecoveryResult(NamedTuple):
    """What a boot-time scan reconstructed."""

    records: list  # active-segment records (the hot tail, for the deque)
    base_offset: int  # earliest retained offset across all segments
    next_offset: int  # offset the next append will get
    producer_snapshot: dict  # wire-format idempotence state
    scan_bytes: int  # bytes CRC-scanned (active segment only)
    truncated_bytes: int  # torn tail dropped by the CRC scan
    segments: int  # sealed segments adopted without scanning


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
        buffers, nbytes = encode_batch(self.records, self.producer_id, self.producer_epoch,
                                       self.base_sequence, self.write_ts)
        if nbytes != self.nbytes:
            raise StorageError(f"encoded batch size {nbytes} != accounted {self.nbytes}")
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
        flusher=None,
        journal=None,
        registry=None,
        now=monotonic,
    ) -> None:
        self.topic = topic
        self.partition = int(partition)
        self.config = config or StorageConfig()
        self.directory = directory
        self._flusher = flusher
        self._now = now
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
        self.counters: dict = dict.fromkeys((
            "appended_batches", "flushes", "fsyncs", "flushed_bytes",
            "segments_sealed", "segments_deleted", "flush_errors",
            "truncations",
            "recovered_records", "recovered_batches", "recovery_scan_bytes",
            "decode_cache_hits", "decode_cache_misses",
        ), 0)
        self._decode_cache = _DecodeCache(self.counters)
        self._active_fd = -1
        self._active_path = ""
        self._active_base = 0
        self._active_size = 0  # flushed bytes in the active file
        #: Page-aligned: the active file's pages below it were released.
        self._released = 0
        self._active_batches: list = []  # (base_offset, file_pos) per batch
        recover_start = self._last_write_ts = now()
        self._base_offset = 0
        self._end_offset = 0  # next offset (includes pending)
        self._flushed_offset = 0  # durable end
        self.recovered = self._recover()
        duration = now() - recover_start
        registry.histogram("storage.recovery_seconds").observe(duration)
        if journal is not None:
            done = self.recovered
            journal.emit("recovery_completed", topic=self.topic, partition=self.partition,
                         records=len(done.records), scan_bytes=done.scan_bytes,
                         truncated_bytes=done.truncated_bytes, segments=done.segments,
                         next_offset=done.next_offset,
                         duration_ms=round(duration * 1000.0, 3))

    # -- boot-time recovery --------------------------------------------------

    def _recover(self) -> RecoveryResult:
        os.makedirs(self.directory, exist_ok=True)
        names = sorted(
            f for f in os.listdir(self.directory) if f.endswith(LOG_SUFFIX)
        ) or [segment_filename(0)]
        bases = [int(name[: -len(LOG_SUFFIX)]) for name in names]
        now, now_wall = self._now(), time.time()
        for name, base, end in zip(names, bases, bases[1:]):
            # Sealed segments are adopted without scanning: their length
            # and offset range follow from the file sizes and the next
            # segment's base offset (segments are dense). Ages survive
            # the restart via mtime (monotonic clocks do not).
            path = os.path.join(self.directory, name)
            stat = os.stat(path)
            seg = _SealedSegment(path, base, end, stat.st_size,
                                 now - max(0.0, now_wall - stat.st_mtime))
            seg.open_map()
            self._sealed.append(seg)
        active_path = os.path.join(self.directory, names[-1])
        active_base = bases[-1]

        # The active segment is the only file a crash can have torn:
        # CRC-scan it, truncate at the first bad batch, and rebuild the
        # dense batch index + the hot-tail records from the valid prefix.
        records: list = []
        batches: list = []
        valid_end = 0
        next_offset = active_base
        producer_batches: list = []
        file_size = os.path.getsize(active_path) if os.path.exists(active_path) else 0
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
                mirror.apply(info.producer_id, info.producer_epoch,
                             info.base_sequence, info.base_offset, info.count)
        # A crash between a truncation's cut and its snapshot write
        # leaves a snapshot naming batches past the log's end.
        mirror.truncate(next_offset)
        self._mirror = mirror

        self._active_fd = os.open(active_path, os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o644)
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
        now = self._now()
        nbytes = encoded_batch_size(records)
        with self._lock:
            self._raise_if_unusable()
            batch = _PendingBatch(records[0].offset, records[-1].offset + 1, nbytes,
                                  list(records), producer_id, producer_epoch,
                                  base_sequence, now)
            self._pending.append(batch)
            self._pending_bytes += nbytes
            self._end_offset = batch.end
            self.counters["appended_batches"] += 1
            urgent = self._pending_bytes >= _FLUSH_BYTES or self.config.fsync_acks
        if self._flusher is not None:
            self._flusher.request(self, urgent=urgent)
        return batch.end

    def wait_durable(self, offset: int, timeout: float) -> bool:
        """Block until everything below *offset* is written + fsynced."""
        with self._lock:
            self._flush_cond.wait_for(
                lambda: self._flushed_offset >= offset
                or self._failed is not None
                or self._closed,
                timeout,
            )
            if self._flushed_offset >= offset:
                return True
            self._raise_if_unusable()
            return False

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
            buffers: list = []
            for batch in pending:
                buffers.extend(batch.encode())
            io_start = self._now()
            self._write_buffers(buffers)
            os.fsync(self._active_fd)
            io_elapsed = self._now() - io_start
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
                    self._mirror.apply(batch.producer_id, batch.producer_epoch,
                                       batch.base_sequence, batch.base, batch.end - batch.base)
            self._active_size = pos
            self._flushed_offset = pending[-1].end
            self._last_write_ts = pending[-1].write_ts
            self.counters["flushes"] += 1
            self.counters["fsyncs"] += 1
            self.counters["flushed_bytes"] += flushed_bytes
            self._flush_cond.notify_all()
        self._fsync_latency.observe(io_elapsed)
        now = self._now()
        self._flush_window.observe_many([now - b.write_ts for b in pending])
        journal = self.journal
        if journal is not None and io_elapsed >= self.flush_stall_s:
            journal.emit("flush_stall", topic=self.topic, partition=self.partition,
                         duration_ms=round(io_elapsed * 1000.0, 3),
                         bytes=flushed_bytes, batches=len(pending))
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
            return self._size_locked()

    def _size_locked(self) -> int:
        return sum(seg.size for seg in self._sealed) + self._active_size + self._pending_bytes

    def read(self, offset: int, max_count: int) -> list:
        """Records from sealed segments (mmap, zero-copy), capped at the
        active segment's base — the caller serves the rest from memory."""
        with self._lock:
            sealed = list(self._sealed)
            active_base = self._active_base
        if not sealed or offset >= active_base:
            return []
        i = max(0, bisect_right(sealed, offset, key=lambda s: s.base) - 1)
        out: list = []
        while i < len(sealed) and len(out) < max_count:
            seg = sealed[i]
            if offset < seg.end:
                records = seg.read(max(offset, seg.base), max_count - len(out),
                                   self.topic, self.partition, self._decode_cache)
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
        suffices), or the records below the cut of the sealed segment
        holding it, which becomes the active one again — the caller
        replaces its in-memory tail with them.

        One path either way: segments wholly above the cut go, a batch
        straddling it is shortened where it lies, and the file is cut
        after the last surviving record. No byte below the cut moves, so
        zero-copy values read from a mapping before the cut still read
        what they read (DESIGN.md §8).
        """
        with self._io_lock:
            self._flush_io()
            with self._lock:
                self._raise_if_unusable()
                offset = max(offset, self._base_offset)
                if offset >= self._end_offset:
                    return None
                self.counters["truncations"] += 1
                self._mirror.truncate(offset)
                survivors = None
                if offset < self._active_base:
                    survivors = self._reopen_sealed(offset)
                self._cut_active(offset)
                snapshot = self._mirror.to_wire()
            # The snapshot must not vouch for a batch the cut removed.
            self._write_snapshot(snapshot, offset)
            return survivors

    def _reopen_sealed(self, offset: int) -> list:
        """Drop the active segment and every sealed one after the one
        holding *offset*, and make that one active in place. Returns its
        records below the cut, copied. Caller holds both locks."""
        # Cached decodes pin mappings and name batches the cut rewrites.
        self._decode_cache.clear()
        i = bisect_right(self._sealed, offset, key=lambda s: s.base) - 1
        seg = self._sealed[i]
        view = seg.open_map()
        survivors: list = []
        for info in scan_batches(view, 0, seg.size):
            if info.base_offset >= offset:
                break
            batch = decode_batch(view, info, self.topic, self.partition, copy=True)
            survivors.extend(batch[: offset - info.base_offset])
        batches = list(seg.dense_index())
        seg.close()
        os.close(self._active_fd)
        for victim in self._sealed[i + 1 :]:
            victim.close()
        for path in [self._active_path] + [v.path for v in self._sealed[i + 1 :]]:
            try:
                os.unlink(path)
            except OSError:
                pass
        del self._sealed[i:]
        self._active_fd = os.open(seg.path, os.O_RDWR | os.O_APPEND)
        self._active_path = seg.path
        self._active_base = seg.base
        self._active_size = seg.size
        self._active_batches = batches
        self._released = 0
        self._last_write_ts = seg.last_write_ts
        self._flushed_offset = seg.end
        self._base_offset = self._sealed[0].base if self._sealed else seg.base
        return survivors

    def _cut_active(self, offset: int) -> None:
        """Cut the active file at *offset*, nothing pending: batches at
        or above it go, one straddling it keeps its surviving prefix in
        place. Caller holds both locks."""
        batches = self._active_batches
        j = bisect_left(batches, (offset,))  # first batch at/above the cut
        cut = batches[j][1] if j < len(batches) else self._active_size
        end = batches[j][0] if j < len(batches) else self._flushed_offset
        # The active fd appends wherever it writes (O_APPEND): rewrite
        # a header through one that does not.
        fd = os.open(self._active_path, os.O_WRONLY)
        try:
            if j and end > offset:
                base, pos = batches[j - 1]
                headers, length = shorten_batch(
                    os.pread(self._active_fd, cut - pos, pos), offset - base
                )
                os.pwrite(fd, headers, pos)
                cut = pos + length
            os.ftruncate(fd, cut)
            os.fsync(fd)
        finally:
            os.close(fd)
        del batches[j:]
        self._active_size = cut
        self._released = min(self._released, cut & -mmap.PAGESIZE)
        self._flushed_offset = self._end_offset = offset

    # -- retention -----------------------------------------------------------

    def enforce_retention(self, retention_bytes: int, retention_seconds: float) -> tuple:
        """Drop whole sealed segments per the retention caps.

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
            total = self._size_locked()
            cutoff = self._now() - retention_seconds if retention_seconds > 0 else None
            while self._sealed and (
                0 < retention_bytes < total
                or cutoff is not None and self._sealed[0].last_write_ts < cutoff
            ):
                head = self._sealed.pop(0)
                victims.append(head)
                total -= head.size
            new_base = self._base_offset = (
                self._sealed[0].base if self._sealed else self._active_base
            )
        dropped = 0
        for seg in victims:
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
        return (f"SegmentStore({self.topic}/{self.partition}, "
                f"dir={self.directory!r}, segments={len(self._sealed)}+active)")
