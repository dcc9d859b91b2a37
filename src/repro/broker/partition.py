"""Append-only partition log with offset addressing and retention.

The partition is the broker's unit of parallelism — the paper assigns one
partition per edge device so device streams can be consumed concurrently.

Thread safety: appends and reads are guarded by one lock per partition; a
condition variable lets consumers block on new data with a timeout, which
is what gives the pipeline its push-like latency without busy polling.
Consumers that need to wait across *several* partitions register a shared
:class:`threading.Event` with each log (:meth:`register_waiter`) — the
log sets it whenever new records become visible, so one consumer thread
can sleep on many partitions at once.

Performance notes: records live in a :class:`collections.deque`, making
head eviction (retention) O(1) instead of the O(n) shift of
``list.pop(0)``. :meth:`append_many` stamps a whole batch under a single
lock acquisition and a single notification — the produce fast path.
The log is dense by construction (exactly one record per offset in
``[base, next)``), so fetches translate offsets to positions with direct
index arithmetic.

Durability: with ``log_dir`` (or a shared ``storage`` manager) set, the
log gains a :class:`~repro.broker.storage.store.SegmentStore` backend.
Every append is mirrored into the store's group-commit queue; the deque
then holds only the *active segment's* records (the hot tail — evicted
below the store's sealed boundary), and reads below that boundary are
served zero-copy from memory-mapped sealed segments. A restart rebuilds
the tail, offsets, and producer-dedup state from disk. The deque-only
mode is unchanged and remains the default.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from itertools import islice

from repro.broker.errors import OffsetOutOfRangeError
from repro.broker.message import Record
from repro.broker.producer_state import ProducerStateTable
from repro.broker.storage import (
    LogStorageManager,
    SegmentStore,
    StorageConfig,
    StorageError,
)
from repro.util.validation import ValidationError, check_non_negative, check_positive

#: Upper bound on an fsync-acked append's wait for its group commit; a
#: healthy flusher retires the queue within one flush interval, so
#: hitting this means the disk wedged the store.
_FSYNC_ACK_TIMEOUT = 30.0


def _runs(records: list, batches):
    """Cut *records* at the bounds of the identity *batches* among them:
    ``(run, (producer_id, epoch, base_sequence))`` in offset order, with
    ``(None, 0, None)`` for a run no batch names."""
    first, at = records[0].offset, 0
    for producer_id, epoch, base_sequence, base, count in batches:
        if base - first > at:
            yield records[at : base - first], (None, 0, None)
        at = base - first + count
        yield records[at - count : at], (producer_id, epoch, base_sequence)
    if at < len(records):
        yield records[at:], (None, 0, None)


class PartitionLog:
    """A single partition: an append-only record log.

    Parameters
    ----------
    topic, partition:
        Identity, stamped into every record.
    retention_bytes:
        Oldest records are dropped once the log exceeds this size
        (0 = unlimited). Mirrors Kafka size-based retention; the
        experiments keep it unlimited, the property tests exercise it.
    retention_seconds:
        Records older than this (by append time) are dropped on the next
        append or explicit :meth:`enforce_retention` call (0 = unlimited).
        On a durable log, both policies drop whole sealed *segments*
        (the active segment is never dropped), so enforcement is at
        segment granularity and ``retention_bytes`` counts on-disk file
        bytes (framing included).
    storage:
        Durable backend selector: a
        :class:`~repro.broker.storage.log.LogStorageManager` (the
        broker-level form — stores share one flusher thread), a
        :class:`~repro.broker.storage.store.StorageConfig` (used with
        *log_dir*), or ``None`` for the in-memory deque (default).
    log_dir:
        Standalone durable form: the log opens its store at
        ``{log_dir}/{topic}-{partition}`` through a private manager,
        closed with the log. Ignored when *storage* is a manager.
    """

    def __init__(
        self,
        topic: str,
        partition: int,
        retention_bytes: int = 0,
        retention_seconds: float = 0.0,
        log_dir: str | None = None,
        storage=None,
    ) -> None:
        check_non_negative("partition", partition)
        check_non_negative("retention_bytes", retention_bytes)
        check_non_negative("retention_seconds", retention_seconds)
        self.topic = topic
        self.partition = int(partition)
        self.retention_bytes = int(retention_bytes)
        self.retention_seconds = float(retention_seconds)
        self._records: deque[Record] = deque()
        self._base_offset = 0  # earliest fetchable offset
        self._mem_base = 0  # offset of _records[0] (== _base_offset in-memory)
        self._next_offset = 0
        self._bytes = 0
        self._lock = threading.Lock()
        self._data_available = threading.Condition(self._lock)
        # Events registered by consumers blocking across multiple
        # partitions; set (never cleared here) whenever the visible end
        # moves.
        self._waiters: list[threading.Event] = []
        # Cumulative counters for broker-side metrics.
        self.total_appended = 0
        self.total_bytes_in = 0
        #: Idempotent-producer bookkeeping, fed on every append.
        self._producers = ProducerStateTable()
        #: Records dropped because a retried batch was already appended.
        self.duplicates_dropped = 0
        #: Fetches that parked on the condition variable at least once
        #: (long-poll accounting: a parked fetch costs zero CPU until an
        #: append wakes it, versus a client-side poll loop paying one
        #: round-trip per probe).
        self.long_polls_parked = 0
        # High-watermark: the replication visibility fence. ``None``
        # disables it entirely (the unreplicated fast path: consumers see
        # up to the log end, exactly the pre-replication behavior). When
        # set, fetches only return records below it — records above are
        # appended but not yet acknowledged by the full in-sync replica
        # set, so exposing them could un-deliver data on failover.
        self._hwm: int | None = None
        #: Set by a replicating owner (``ShardBroker``): called, outside
        #: the lock and without blocking, whenever a registered waiter is
        #: left waiting for records that exist but sit behind the fence —
        #: one registers while such records are there, or they land while
        #: one is registered. It is how replication learns that somebody
        #: wants those records *now* rather than at its next sweep.
        self.on_fence_wait = None
        # Durable backend (None = deque-only). The log_dir form owns its
        # manager; a shared manager outlives the log.
        self._store: SegmentStore | None = None
        self._owned_storage: LogStorageManager | None = None
        self._fsync_acks = False
        if log_dir is not None and (storage is None or isinstance(storage, StorageConfig)):
            storage = self._owned_storage = LogStorageManager(log_dir, storage)
        if isinstance(storage, LogStorageManager):
            self._store = storage.open(topic, partition)
        elif storage is not None:
            raise ValidationError(
                "storage must be a LogStorageManager, or a StorageConfig "
                "combined with log_dir"
            )
        if self._store is not None:
            self._fsync_acks = self._store.config.fsync_acks
            self._recover_from_store()

    def _recover_from_store(self) -> None:
        """Adopt the store's boot-time recovery: the active segment's
        records become the hot tail, offsets and producer dedup windows
        resume where the disk left them."""
        recovered = self._store.recovered
        self._records.extend(recovered.records)
        self._mem_base = (
            recovered.records[0].offset if recovered.records else recovered.next_offset
        )
        self._base_offset = recovered.base_offset
        self._next_offset = recovered.next_offset
        self._bytes = sum(r.size for r in recovered.records)
        self.total_appended = len(recovered.records)
        self.total_bytes_in = self._bytes
        self._producers.install(recovered.producer_snapshot)
        # A restart may find retention already exceeded (e.g. the cap was
        # lowered, or eviction raced the crash): sweep immediately.
        if self.retention_bytes or self.retention_seconds:
            _, new_base = self._store.enforce_retention(
                self.retention_bytes, self.retention_seconds
            )
            self._base_offset = max(self._base_offset, new_base)

    @property
    def storage(self) -> SegmentStore | None:
        """The durable backend, or ``None`` on a deque-only log."""
        return self._store

    def close(self) -> None:
        """Flush and release the durable backend (no-op when in-memory)."""
        if self._owned_storage is not None:
            self._owned_storage.close()
        elif self._store is not None:
            self._store.close()

    # -- write path ---------------------------------------------------------

    def append(
        self,
        value: bytes,
        key: bytes | None = None,
        headers: dict | None = None,
        produce_ts: float | None = None,
        producer_id: int | None = None,
        producer_epoch: int = 0,
        sequence: int | None = None,
    ) -> Record:
        """Append one record — a batch of one; returns it (with offset
        and append_ts set). See :meth:`append_many` for idempotence."""
        return self.append_many(
            [value],
            keys=[key],
            headers=headers,
            produce_ts=produce_ts,
            producer_id=producer_id,
            producer_epoch=producer_epoch,
            base_sequence=sequence,
        )[0]

    def _wait_durable(self, offset: int) -> None:
        if not self._store.wait_durable(offset, _FSYNC_ACK_TIMEOUT):
            raise StorageError(
                f"{self.topic}/{self.partition}: fsync ack timed out at "
                f"offset {offset}"
            )

    def _evict_flushed_locked(self) -> None:
        """Drop deque records the store has sealed (caller holds the lock).

        Memory-only: the bytes live in sealed segments and are served by
        mmap from here on. The deque shrinks to the active segment, so
        resident memory tracks ``segment_bytes``, not the log size.
        """
        active_base = self._store.active_base
        records = self._records
        if not records or records[0].offset >= active_base:
            return
        while records and records[0].offset < active_base:
            evicted = records.popleft()
            self._bytes -= evicted.size
        self._mem_base = records[0].offset if records else self._next_offset

    def append_many(
        self,
        values,
        keys=None,
        headers=None,
        produce_ts=None,
        producer_id: int | None = None,
        producer_epoch: int = 0,
        base_sequence: int | None = None,
    ) -> list[Record]:
        """Append a batch of records under one lock acquisition.

        This is the one produce path (:meth:`append` is a batch of one):
        one lock round-trip, one retention sweep and one consumer
        notification for the whole batch. Offsets within the batch are
        contiguous.

        Parameters
        ----------
        values:
            Iterable of payloads.
        keys:
            Optional list of per-record keys (same length as *values*).
        headers:
            Either one dict applied to every record (each record gets its
            own copy) or a list of per-record dicts.
        produce_ts:
            Either one timestamp for the whole batch or a list of
            per-record timestamps; defaults to the append time.
        producer_id, producer_epoch, base_sequence:
            Idempotent-producer identity. When set, a replayed batch
            (already-appended base_sequence) is **not** re-appended: it
            is acked at its original offsets — with the original records
            where retention still holds them — so the producer gets the
            same ack twice: at-least-once delivery with duplicate-free
            offsets. A stale epoch raises :class:`ProducerFencedError`;
            a sequence gap raises :class:`OutOfOrderSequenceError`.

        Returns the appended records in offset order.
        """
        values = values if isinstance(values, (list, tuple)) else list(values)
        n = len(values)
        if n == 0:
            return []
        if keys is not None and len(keys) != n:
            raise ValidationError(f"keys length {len(keys)} != values length {n}")
        now = time.monotonic()
        if headers is None:
            headers_list = None
        elif isinstance(headers, dict):
            headers_list = [dict(headers) for _ in range(n)]
        else:
            if len(headers) != n:
                raise ValidationError(
                    f"headers length {len(headers)} != values length {n}"
                )
            headers_list = [dict(h or {}) for h in headers]
        if produce_ts is None or isinstance(produce_ts, (int, float)):
            ts_scalar = now if produce_ts is None else float(produce_ts)
            ts_list = None
        else:
            if len(produce_ts) != n:
                raise ValidationError(
                    f"produce_ts length {len(produce_ts)} != values length {n}"
                )
            ts_scalar = 0.0
            ts_list = produce_ts
        records: list[Record] = []
        add = records.append
        idempotent = producer_id is not None and base_sequence is not None
        with self._lock:
            cached = None
            if idempotent:
                cached = self._producers.check(
                    producer_id, producer_epoch, base_sequence, n
                )
            # A replayed batch is acked at its original offsets.
            offset = self._next_offset if cached is None else cached[0]
            bytes_added = 0
            for i in range(n):
                value = values[i]
                key = keys[i] if keys is not None else None
                record = Record(
                    self.topic,
                    self.partition,
                    offset + i,
                    value,
                    key,
                    {} if headers_list is None else headers_list[i],
                    ts_list[i] if ts_list is not None else ts_scalar,
                    now,
                )
                add(record)
                bytes_added += len(value) + (len(key) if key else 0)
            if cached is not None:
                # Replay: nothing is appended. The ack is the original
                # records where retention still holds them and the
                # replayed copies where it does not — never whatever
                # now sits at the retention floor.
                self.duplicates_dropped += n
                retained = {r.offset: r for r in self._slice_at_offset(offset, n)}
                return [retained.get(r.offset, r) for r in records]
            batches = []
            if idempotent:
                batches.append((producer_id, producer_epoch, base_sequence, offset, n))
            starved = self._extend_locked(records, batches, bytes_added)
        if starved:
            self._fence_wait()
        if self._fsync_acks:
            self._wait_durable(offset + n)
        return records

    def _extend_locked(self, records: list, batches, nbytes: int) -> bool:
        """The one step behind a produce and a replica install (caller
        holds the lock): *records*, numbered from the log end, join the
        log; each identity ``(producer_id, epoch, base_sequence,
        base_offset, count)`` in *batches* feeds the dedup table and goes
        to the store as one batch carrying it. Returns whether a waiter
        is left behind the fence (:meth:`_notify_appended`)."""
        self._records.extend(records)
        self._next_offset = records[-1].offset + 1
        self._bytes += nbytes
        self.total_appended += len(records)
        self.total_bytes_in += nbytes
        for batch in batches:
            self._producers.apply(*batch)
        if self._store is not None:
            for run, identity in _runs(records, batches):
                self._store.append_batch(run, *identity)
            self._evict_flushed_locked()
        self._enforce_retention()
        return self._notify_appended()

    def _notify(self) -> None:
        # Caller holds the lock.
        self._data_available.notify_all()
        if self._waiters:
            for event in self._waiters:
                event.set()

    def _fence_wait(self) -> None:
        hook = self.on_fence_wait
        if hook is not None:
            hook()

    def _notify_appended(self) -> bool:
        """The log end moved (caller holds the lock): wake whoever waits
        for data, or report that they are left waiting. Every wait here
        — parked fetches, registered waiters, ``acks="all"`` — is on the
        *visible* end, and behind an armed fence (``_hwm <=
        _next_offset`` always) an append cannot move that:
        :meth:`set_high_watermark` is then the one wake, and the return
        value says whether a registered waiter is stuck until it comes.
        """
        if self._hwm is None:
            self._notify()
            return False
        return bool(self._waiters)

    # -- replication: high-watermark, truncation, state transfer -------------

    def _visible_end(self) -> int:
        """First offset consumers may NOT see (caller holds the lock)."""
        if self._hwm is None:
            return self._next_offset
        return min(self._hwm, self._next_offset)

    @property
    def high_watermark(self) -> int:
        """Highest consumer-visible end offset.

        Equals :attr:`latest_offset` while replication is disabled; once
        a leader enables the fence it trails the log end by whatever the
        slowest in-sync replica has not yet acknowledged.
        """
        with self._lock:
            return self._visible_end()

    def set_high_watermark(self, offset: int) -> int:
        """Install (and enable) the visibility fence; returns the new value.

        Clamped to the log end and monotonic — a stale advance can never
        rewind visibility (truncation is the only path that lowers it).
        Advancing wakes parked fetches and registered waiters: records
        between the old and new fence just became consumable even though
        no local append happened.
        """
        check_non_negative("offset", offset)
        with self._lock:
            new = min(int(offset), self._next_offset)
            if self._hwm is None or new > self._hwm:
                self._hwm = new
                self._notify()
            return self._hwm

    def wait_for_high_watermark(self, offset: int, timeout: float) -> bool:
        """Block until the visible end reaches *offset* (acks=all waits).

        True when visibility caught up; False at the deadline. Returns
        immediately while replication is disabled (the log end *is* the
        visible end).
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._visible_end() < offset:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._data_available.wait(remaining)
            return True

    def truncate_to(self, offset: int) -> int:
        """Drop every record at ``offset`` and above; returns the count.

        A rejoining follower truncates its log to the new leader's
        high-watermark before re-syncing: records it appended beyond it
        were never ISR-acknowledged and may not exist on the elected
        leader, so keeping them would fork the log. The dedup table is
        cut with them (:meth:`ProducerStateTable.truncate`).
        """
        check_non_negative("offset", offset)
        with self._lock:
            offset = max(offset, self._base_offset)
            removed = self._next_offset - offset
            if removed <= 0:
                return 0
            self._producers.truncate(offset)
            if self._store is not None:
                self._truncate_durable_locked(offset)
            else:
                # Dense and offset >= its base: the last *removed* go.
                for _ in range(removed):
                    self._bytes -= self._records.pop().size
                self._next_offset = offset
            if self._hwm is not None and self._hwm > self._next_offset:
                self._hwm = self._next_offset
            return removed

    def _truncate_durable_locked(self, offset: int) -> None:
        """Truncate disk + deque together (caller holds the lock).

        The store flushes pending data first, cuts the files, and — when
        the cut unwound into sealed segments — hands back the surviving
        records of the segment that becomes the new active one, which
        replace the deque wholesale (the old tail is gone from disk).
        """
        survivors = self._store.truncate_to(offset)
        if survivors is None:
            # Cut stayed in the active segment: the deque tail covers it.
            while self._records and self._records[-1].offset >= offset:
                self._bytes -= self._records.pop().size
        else:
            self._records = deque(survivors)
            self._bytes = sum(r.size for r in survivors)
        self._next_offset = self._store.next_offset
        self._base_offset = self._store.earliest_offset
        self._mem_base = (
            self._records[0].offset if self._records else self._next_offset
        )

    def replication_slice(self, offset: int, max_records: int = 512) -> tuple:
        """One consistent push for a leader→follower replication.

        Returns ``(records, log_end, high_watermark, batches)`` under a
        single lock acquisition, so the records, the end offset they
        extend toward, the fence and the identities of the idempotent
        batches among them (from the dedup table, in offset order) can
        never disagree. The push holds whole batches: a start inside a
        known batch rounds down to its base (the follower truncates and
        installs it again), and the push ends before a known batch that
        would overrun *max_records* — unless it is the first, which goes
        whole. A replica's table is fed these identities only, so it
        learns exactly the batches its log holds. A batch whose head
        retention dropped travels as plain records. Reads the raw log —
        replication must ship records *above* the high-watermark; that
        is the whole point of shipping them.
        """
        with self._lock:
            start = max(offset, self._base_offset)
            batches = self._producers.batches(start, self._next_offset)
            if batches and self._base_offset <= batches[0][3] < start:
                start = batches[0][3]
            batches = [b for b in batches if b[3] >= start]
            end = min(self._next_offset, start + int(max_records))
            for i, (_, _, _, base, count) in enumerate(batches):
                if base + count > end:
                    if base == start:  # the push's first batch goes whole
                        end, i = base + count, i + 1
                    elif base < end:
                        end = base
                    del batches[i:]
                    break
            records = self._slice_at_offset(start, end - start)
            return records, self._next_offset, self._visible_end(), batches

    def install_replica_batch(self, base_offset: int, records, batches) -> tuple[bool, int]:
        """Follower-side install of a replicated batch at exact offsets.

        Accepts only a batch that starts precisely at the log end
        (``(True, new_end)``); anything else returns ``(False, end)`` so
        the leader can re-anchor at the follower's actual progress —
        divergence below the end is the *caller's* job to resolve via
        :meth:`truncate_to` first. Bypasses sequence checking: the leader
        already deduplicated. *batches* are the push's identities
        (:meth:`replication_slice`); they feed the dedup table and the
        store through the leader's own append step.
        """
        with self._lock:
            if base_offset != self._next_offset:
                return False, self._next_offset
            if records:
                self._extend_locked(records, batches, sum(r.size for r in records))
            return True, self._next_offset

    def _enforce_retention(self) -> None:
        if self._store is not None:
            if self.retention_bytes or self.retention_seconds:
                _, new_base = self._store.enforce_retention(
                    self.retention_bytes, self.retention_seconds
                )
                if new_base > self._base_offset:
                    self._base_offset = new_base
            return
        if self.retention_bytes > 0:
            while self._bytes > self.retention_bytes and len(self._records) > 1:
                self._evict_head()
        if self.retention_seconds > 0:
            cutoff = time.monotonic() - self.retention_seconds
            while len(self._records) > 1 and self._records[0].append_ts < cutoff:
                self._evict_head()

    def _evict_head(self) -> None:
        evicted = self._records.popleft()
        self._bytes -= evicted.size
        self._base_offset = (
            self._records[0].offset if self._records else self._next_offset
        )
        self._mem_base = self._base_offset

    def enforce_retention(self) -> None:
        """Apply retention policies now (normally piggybacked on append)."""
        with self._lock:
            self._enforce_retention()

    # -- consumer wakeup across partitions ----------------------------------

    def register_waiter(self, event: threading.Event) -> None:
        """Register an event set whenever the consumer-visible end moves
        (multi-partition polls, the reactor's parked fetches)."""
        with self._lock:
            self._waiters.append(event)
            starved = self._next_offset > self._visible_end()
        if starved:
            self._fence_wait()

    def unregister_waiter(self, event: threading.Event) -> None:
        with self._lock:
            try:
                self._waiters.remove(event)
            except ValueError:
                pass

    # -- read path ------------------------------------------------------------

    def _mem_slice(self, offset: int, count: int) -> list[Record]:
        """Deque records in ``[offset, offset+count)`` (lock held): the
        deque is dense, so positions are offsets minus ``_mem_base``."""
        start = max(offset, self._mem_base) - self._mem_base
        n = len(self._records)
        stop = min(start + count, n)
        if start >= stop:
            return []
        if start <= n - stop:
            # Near the left end: a forward islice walks `start` items.
            return list(islice(self._records, start, stop))
        # Near the right end (consumer keeping up with the head): direct
        # indexing costs O(n - i) per item from the closer end.
        records = self._records
        return [records[i] for i in range(start, stop)]

    def _slice_at_offset(self, offset: int, count: int) -> list[Record]:
        """Retained records in ``[offset, offset+count)`` (lock held).

        On a durable log, offsets below the deque's head come off the
        sealed segments' mmaps (zero-copy) and the batch continues
        seamlessly into the in-memory tail — sealed segments always end
        exactly where the active segment (= the deque) begins.
        """
        if offset >= self._next_offset:
            return []
        offset = max(offset, self._base_offset)
        if self._store is not None and offset < self._mem_base:
            disk = self._store.read(offset, count)
            if len(disk) >= count:
                return disk
            resume = disk[-1].offset + 1 if disk else self._mem_base
            return disk + self._mem_slice(resume, count - len(disk))
        return self._mem_slice(offset, count)

    def _probe(self, offset: int, max_records: int, min_bytes: int) -> tuple[list[Record], bool]:
        """One look at the log for a fetch (caller holds the lock).

        Returns ``(batch, satisfied)``: the consumer-visible records in
        ``[offset, offset+max_records)`` and whether the long-poll
        contract would hand them out now (data present and the
        ``min_bytes`` / full-batch threshold met). Raises
        :class:`OffsetOutOfRangeError` for offsets below the retention
        floor or beyond the head.
        """
        if offset < self._base_offset or offset > self._next_offset:
            raise OffsetOutOfRangeError(
                self.topic, self.partition, offset, self._base_offset, self._next_offset
            )
        batch = self._slice_at_offset(offset, max_records)
        if self._hwm is not None and batch:
            # Replication fence: records past the high-watermark exist
            # but are not ISR-acknowledged yet — invisible.
            visible = self._visible_end()
            batch = [r for r in batch if r.offset < visible]
        satisfied = bool(batch) and (
            min_bytes <= 1
            or len(batch) >= max_records
            or sum(r.size for r in batch) >= min_bytes
        )
        return batch, satisfied

    def fetch(
        self,
        offset: int,
        max_records: int = 64,
        timeout: float = 0.0,
        min_bytes: int = 1,
    ) -> list[Record]:
        """Fetch up to *max_records* starting at *offset*.

        Blocks up to *timeout* seconds when fewer than *min_bytes* of
        record payload are available at the offset (Kafka's
        ``fetch.min.bytes`` / ``fetch.max.wait.ms`` long-poll contract:
        with the default ``min_bytes=1`` any data returns immediately;
        larger values trade latency for fuller batches on high-RTT
        links). At the deadline, whatever is available is returned —
        possibly an empty list. Raises :class:`OffsetOutOfRangeError` for
        offsets below the retention floor or beyond the head.
        """
        check_non_negative("offset", offset)
        check_positive("max_records", max_records)
        deadline = time.monotonic() + timeout
        parked = False
        with self._lock:
            while True:
                batch, satisfied = self._probe(offset, int(max_records), int(min_bytes))
                if satisfied:
                    return batch
                remaining = deadline - time.monotonic()
                if timeout <= 0 or remaining <= 0:
                    return batch
                if not parked:
                    parked = True
                    self.long_polls_parked += 1
                self._data_available.wait(remaining)

    def poll_fetch(
        self,
        offset: int,
        max_records: int = 64,
        min_bytes: int = 1,
    ) -> tuple[list[Record], bool]:
        """Non-blocking fetch probe for event-loop servers.

        Returns ``(batch, satisfied)``: *satisfied* is True when the
        long-poll contract of :meth:`fetch` would return *batch* now
        (data present and the ``min_bytes`` / full-batch threshold met).
        When False, the caller should park — registering a waiter first
        and re-probing after, so an append racing the park is never
        missed. Raises :class:`OffsetOutOfRangeError` like :meth:`fetch`.
        """
        check_non_negative("offset", offset)
        check_positive("max_records", max_records)
        with self._lock:
            return self._probe(offset, int(max_records), int(min_bytes))

    def note_long_poll_parked(self) -> None:
        """Count a long-poll that parked outside the condition variable.

        The reactor server parks fetches as event-loop state rather than
        blocking in :meth:`fetch`; this keeps ``long_polls_parked``
        accurate for broker stats and the telemetry sampler either way.
        """
        with self._lock:
            self.long_polls_parked += 1

    def offset_for_time(self, timestamp: float) -> int | None:
        """Earliest offset whose append time is >= *timestamp*.

        Returns ``None`` when every retained record is older — the
        consumer should then start at :attr:`latest_offset`.
        """
        if self._store is not None:
            # Sealed records are strictly older than the deque tail, so a
            # sealed hit (found via batch headers, at most one decode) is
            # the earliest answer; miss = continue into the tail below.
            sealed = self._store.offset_for_time(timestamp)
            if sealed is not None:
                return sealed
        with self._lock:
            idx = bisect.bisect_left(
                self._records, timestamp, key=lambda r: r.append_ts
            )
            if idx >= len(self._records):
                return None
            return self._records[idx].offset

    # -- introspection -----------------------------------------------------------

    @property
    def earliest_offset(self) -> int:
        with self._lock:
            return self._base_offset

    @property
    def latest_offset(self) -> int:
        """Offset that the *next* append will receive (log head)."""
        with self._lock:
            return self._next_offset

    @property
    def size_bytes(self) -> int:
        """Retained payload bytes (in-memory) or on-disk log footprint
        including batch framing (durable) — the size retention acts on."""
        if self._store is not None:
            return self._store.size_bytes
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        # The log is dense: the retained count is offset arithmetic.
        with self._lock:
            return self._next_offset - self._base_offset

    def __repr__(self) -> str:
        return (
            f"PartitionLog({self.topic}/{self.partition}, "
            f"offsets=[{self._base_offset}, {self._next_offset}))"
        )
