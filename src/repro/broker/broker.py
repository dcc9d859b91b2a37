"""The broker node: topic registry, produce/fetch API, offset store.

One :class:`Broker` instance models the pilot-managed Kafka broker the
paper deploys on the cloud (or edge) tier. Producers and consumers talk
to it through thin client objects (:class:`~repro.broker.producer.Producer`
and :class:`~repro.broker.consumer.Consumer`); the group coordinator for
consumer-group rebalancing also lives here, as it does in Kafka.
"""

from __future__ import annotations

import threading
import time

from repro.broker.errors import ProducerFencedError, TopicExistsError, UnknownTopicError
from repro.broker.group import GroupCoordinator
from repro.broker.message import BatchMetadata, Record, RecordMetadata
from repro.broker.partition import PartitionLog
from repro.broker.storage import LogStorageManager
from repro.broker.topic import Topic
from repro.monitoring.instruments import MetricsRegistry
from repro.util.ids import new_id
from repro.util.validation import ValidationError, check_non_negative, check_positive


class Broker:
    """In-memory broker with Kafka-like semantics.

    Parameters
    ----------
    name:
        Human-readable broker name (shows up in monitoring output).
    auto_create_topics:
        When true, producing to a missing topic creates it with one
        partition — convenient in examples, disabled in the benchmarks
        where partition counts are explicit.
    log_dir:
        When set, every partition log is durable: segment files under
        ``{log_dir}/{topic}-{partition}/`` with group-commit fsync
        batching, mmap reads of sealed segments, and crash recovery on
        the next boot. All partitions share one flusher thread.
    storage:
        Optional :class:`~repro.broker.storage.store.StorageConfig` tuning
        the durable backend (requires *log_dir*), or a prebuilt
        :class:`~repro.broker.storage.log.LogStorageManager` to share.
    """

    def __init__(
        self,
        name: str | None = None,
        auto_create_topics: bool = False,
        tracer=None,
        log_dir: str | None = None,
        storage=None,
    ) -> None:
        self.name = name or new_id("broker")
        self.auto_create_topics = bool(auto_create_topics)
        self._storage: LogStorageManager | None = None
        self._owns_storage = False
        if isinstance(storage, LogStorageManager):
            self._storage = storage
        elif log_dir is not None:
            self._storage = LogStorageManager(log_dir, config=storage)
            self._owns_storage = True
        elif storage is not None:
            raise ValidationError(
                "storage requires log_dir (StorageConfig) or must be a "
                "LogStorageManager"
            )
        #: Optional :class:`repro.monitoring.Tracer`; when set, appends of
        #: records carrying a propagated trace context record a
        #: ``broker.append`` span (the broker leg of the message's tree).
        self.tracer = tracer
        self._topics: dict[str, Topic] = {}
        self._lock = threading.RLock()
        self._coordinator = GroupCoordinator(self)
        #: Where every number of this broker — and of its storage, its
        #: server and its replicator — is read from: always there, with
        #: :meth:`stats` a view of it. A durable broker uses the one its
        #: storage manager already reports into.
        self.registry = (
            self._storage.registry if self._storage is not None else MetricsRegistry()
        )
        self.registry.add_reader("counters", self._counter_totals, prefix="broker.")
        self.registry.add_reader("gauges", self._gauge_totals, prefix="broker.")
        # Committed offsets: (group, topic, partition) -> offset.
        self._committed: dict[tuple, int] = {}
        self._offsets_lock = threading.Lock()
        # Idempotent-producer registry: client name -> producer_id, and
        # producer_id -> current epoch. Re-registering the same client
        # bumps the epoch, fencing any zombie instance still retrying
        # with the old one.
        self._producer_ids: dict[str, int] = {}
        self._producer_epochs: dict[int, int] = {}
        self._producers_lock = threading.Lock()

    # -- topic management -----------------------------------------------------

    def create_topic(
        self,
        name: str,
        num_partitions: int = 1,
        retention_bytes: int = 0,
        exist_ok: bool = False,
    ) -> Topic:
        check_positive("num_partitions", num_partitions)
        with self._lock:
            if name in self._topics:
                if exist_ok:
                    return self._topics[name]
                raise TopicExistsError(name)
            topic = Topic(
                name,
                num_partitions,
                retention_bytes=retention_bytes,
                storage=self._storage,
            )
            self._topics[name] = topic
            return topic

    def topic(self, name: str) -> Topic:
        with self._lock:
            try:
                return self._topics[name]
            except KeyError:
                if self.auto_create_topics:
                    return self.create_topic(name, num_partitions=1)
                raise UnknownTopicError(name) from None

    def list_topics(self) -> list[str]:
        with self._lock:
            return sorted(self._topics)

    # -- idempotent-producer registry ----------------------------------------

    def register_producer(self, client_id: str) -> tuple[int, int]:
        """Register *client_id* for idempotent produce; returns (pid, epoch).

        Calling again with the same client id bumps the epoch — the new
        instance wins, and stale appends from the previous epoch raise
        :class:`~repro.broker.errors.ProducerFencedError`.
        """
        with self._producers_lock:
            pid = self._producer_ids.get(client_id)
            if pid is None:
                pid = len(self._producer_ids)
                self._producer_ids[client_id] = pid
                self._producer_epochs[pid] = 0
            else:
                self._producer_epochs[pid] += 1
            return pid, self._producer_epochs[pid]

    def _check_producer_epoch(self, producer_id: int | None, producer_epoch: int) -> None:
        """Fence stale epochs centrally: a partition only learns a
        producer's epoch on first contact, so a zombie writing to a fresh
        partition would otherwise slip past the per-partition check."""
        if producer_id is None:
            return
        with self._producers_lock:
            current = self._producer_epochs.get(producer_id)
        if current is not None and producer_epoch < current:
            raise ProducerFencedError(producer_id, producer_epoch, current)

    # -- data path ---------------------------------------------------------------

    def append(
        self,
        topic: str,
        partition: int,
        value: bytes,
        key: bytes | None = None,
        headers: dict | None = None,
        produce_ts: float | None = None,
        producer_id: int | None = None,
        producer_epoch: int = 0,
        sequence: int | None = None,
        acks: str | None = None,
    ) -> RecordMetadata:
        """Append one record — a batch of one through :meth:`append_many`.

        ``acks`` is accepted for surface uniformity: an unreplicated
        broker acknowledges at append time regardless (``"all"`` and
        ``"leader"`` coincide when the leader is the only replica), so
        the knob only changes behavior on a replicated
        :class:`~repro.broker.shard.ShardBroker`.
        """
        md = self.append_many(
            topic,
            partition,
            [value],
            keys=[key],
            headers=headers,
            produce_ts=produce_ts,
            producer_id=producer_id,
            producer_epoch=producer_epoch,
            base_sequence=sequence,
            acks=acks,
        )
        return RecordMetadata(topic=topic, partition=partition, offset=md.base_offset)

    def append_many(
        self,
        topic: str,
        partition: int,
        values,
        keys=None,
        headers=None,
        produce_ts=None,
        producer_id: int | None = None,
        producer_epoch: int = 0,
        base_sequence: int | None = None,
        acks: str | None = None,
    ) -> BatchMetadata:
        """Append a batch to one partition under a single log lock.

        See :meth:`PartitionLog.append_many` for the parameter shapes.
        Returns one :class:`BatchMetadata` for the whole batch (offsets
        within a batch are contiguous). With idempotent-producer fields a
        replayed batch acks with its original offsets and is not
        re-appended. ``acks`` only changes behavior on a replicated
        shard (see :meth:`append`).
        """
        self._check_producer_epoch(producer_id, producer_epoch)
        log = self.topic(topic).partition(partition)
        start = time.monotonic() if self.tracer is not None else 0.0
        records = log.append_many(
            values,
            keys=keys,
            headers=headers,
            produce_ts=produce_ts,
            producer_id=producer_id,
            producer_epoch=producer_epoch,
            base_sequence=base_sequence,
        )
        if self.tracer is not None and records:
            self._trace_appends(records, topic, partition, start)
        if not records:
            return BatchMetadata(
                topic=topic, partition=partition, base_offset=log.latest_offset, count=0
            )
        return BatchMetadata(
            topic=topic,
            partition=partition,
            base_offset=records[0].offset,
            count=len(records),
        )

    def _trace_appends(self, records, topic: str, partition: int, start: float) -> None:
        """Record a ``broker.append`` span for each record that arrived
        with a propagated trace context in its headers."""
        end = time.monotonic()
        hops = []
        for record in records:
            headers = record.headers
            ctx = headers.get("trace") if headers else None
            if ctx:
                hops.append(
                    (ctx, {"topic": topic, "partition": partition, "offset": record.offset})
                )
        if hops:
            # One batched recording per append batch (one tracer lock),
            # not one span-object lifecycle per record.
            self.tracer.record_hops(
                "broker.append", hops, site=self.name, start=start, end=end
            )

    def partition_log(self, topic: str, partition: int) -> PartitionLog:
        """Direct handle to one partition's log (in-process brokers only).

        Consumers use it to register cross-partition wakeup events;
        remote broker proxies do not expose it.
        """
        return self.topic(topic).partition(partition)

    def fetch(
        self,
        topic: str,
        partition: int,
        offset: int,
        max_records: int = 64,
        timeout: float = 0.0,
        min_bytes: int = 1,
    ) -> list[Record]:
        """Fetch records from one partition starting at *offset*.

        ``timeout``/``min_bytes`` implement the long-poll contract: the
        fetch parks on the partition's condition variable until at least
        *min_bytes* of payload are available (or the deadline passes),
        instead of returning empty for the caller to re-poll.
        """
        return self.topic(topic).partition(partition).fetch(
            offset, max_records=max_records, timeout=timeout, min_bytes=min_bytes
        )

    def earliest_offset(self, topic: str, partition: int) -> int:
        return self.topic(topic).partition(partition).earliest_offset

    def latest_offset(self, topic: str, partition: int) -> int:
        return self.topic(topic).partition(partition).latest_offset

    # -- committed offsets ----------------------------------------------------------

    def commit_offset(self, group: str, topic: str, partition: int, offset: int) -> None:
        check_non_negative("offset", offset)
        self.topic(topic).partition(partition)  # validate existence
        with self._offsets_lock:
            key = (group, topic, partition)
            # Commits are monotonic; a stale commit from a pre-rebalance
            # consumer must not rewind the group's progress.
            self._committed[key] = max(self._committed.get(key, 0), int(offset))

    def committed_offset(self, group: str, topic: str, partition: int) -> int | None:
        with self._offsets_lock:
            return self._committed.get((group, topic, partition))

    def committed_offsets(self, group: str | None = None) -> dict:
        """Snapshot of committed offsets.

        With *group*, returns ``{(topic, partition): offset}`` for that
        group; without, ``{(group, topic, partition): offset}`` for all.
        """
        with self._offsets_lock:
            if group is None:
                return dict(self._committed)
            return {
                (t, p): off
                for (g, t, p), off in self._committed.items()
                if g == group
            }

    def consumer_lag(self, group: str) -> dict:
        """Per-partition consumer lag for *group*: ``{(topic, partition): lag}``.

        Lag is the broker's end-offset minus the group's committed offset
        — the number of appended records the group has not durably
        acknowledged.  Partitions the group subscribes to but has never
        committed count from their earliest retained offset, so a
        consumer that is connected but has made no progress shows the
        full backlog rather than 0.
        """
        committed = self.committed_offsets(group)
        partitions = set(committed)
        for topic_name in self._coordinator.group_topics(group):
            try:
                topic = self.topic(topic_name)
            except UnknownTopicError:
                continue
            partitions.update((topic_name, p) for p in topic.partitions)
        lag: dict[tuple, int] = {}
        for topic_name, p in partitions:
            try:
                log = self.topic(topic_name).partition(p)
            except UnknownTopicError:
                continue
            base = committed.get((topic_name, p))
            if base is None:
                base = log.earliest_offset
            lag[(topic_name, p)] = max(0, log.latest_offset - base)
        return lag

    def partition_depths(self) -> dict:
        """``{(topic, partition): {"depth": n, "end_offset": o, "bytes": b}}``
        for every partition — the sampler's per-partition gauge source."""
        with self._lock:
            topics = list(self._topics.items())
        out: dict[tuple, dict] = {}
        for name, topic in topics:
            for p in topic.partitions:
                log = topic.partition(p)
                out[(name, p)] = {
                    "depth": len(log),
                    "end_offset": log.latest_offset,
                    "bytes": log.size_bytes,
                }
        return out

    # -- coordination ------------------------------------------------------------------

    @property
    def coordinator(self) -> GroupCoordinator:
        return self._coordinator

    # -- monitoring --------------------------------------------------------------------

    def _topic_list(self) -> list:
        with self._lock:
            return list(self._topics.values())

    def _counter_totals(self) -> dict:
        """The ``broker.*`` counters, summed from the partition logs'
        own fields at read time."""
        topics = self._topic_list()
        return {
            "records_in": sum(t.total_appended for t in topics),
            "bytes_in": sum(t.total_bytes_in for t in topics),
            "duplicates_dropped": sum(t.duplicates_dropped for t in topics),
            "long_polls_parked": sum(t.long_polls_parked for t in topics),
            "members_evicted": self._coordinator.members_evicted,
        }

    def _gauge_totals(self) -> dict:
        return {"bytes_retained": sum(t.size_bytes for t in self._topic_list())}

    def stats(self) -> dict:
        """Broker-level numbers for monitoring/bottleneck analysis: the
        registry's totals plus the per-topic breakdown behind them."""
        topics = {
            topic.name: {
                "partitions": topic.num_partitions,
                "records_in": topic.total_appended,
                "bytes_in": topic.total_bytes_in,
                "bytes_retained": topic.size_bytes,
                "duplicates_dropped": topic.duplicates_dropped,
                "long_polls_parked": topic.long_polls_parked,
            }
            for topic in self._topic_list()
        }
        totals = self._counter_totals()
        out = {
            "broker": self.name,
            "topics": topics,
            "duplicates_dropped": totals["duplicates_dropped"],
            "long_polls_parked": totals["long_polls_parked"],
            "members_evicted": totals["members_evicted"],
        }
        if self._storage is not None:
            out["storage"] = self._storage.stats()
        return out

    @property
    def storage(self) -> LogStorageManager | None:
        """The durable-log manager, or ``None`` on an in-memory broker."""
        return self._storage

    def close(self) -> None:
        """Flush and release durable storage (no-op for in-memory brokers).

        Safe to call repeatedly; a shared (caller-provided) manager is
        left running for its other owners.
        """
        if self._storage is not None and self._owns_storage:
            self._storage.close()

    def __repr__(self) -> str:
        return f"Broker({self.name!r}, topics={len(self._topics)})"
