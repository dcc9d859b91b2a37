"""The shard-side broker: one process's slice of the partition space.

:class:`ShardBroker` is a :class:`~repro.broker.broker.Broker` that
answers :class:`~repro.broker.errors.NotOwnerError` for everything it
does not lead *before* touching any state, serves the follower half of
replication (``replicate_append`` / ``replica_ack``), and hosts the
leader half — a :class:`~repro.broker.replicator._ShardReplicator` it
builds over :class:`PeerLinks`, the tight-budget connection cache that
is the production peer transport.
"""

from __future__ import annotations

from functools import partial

from repro.broker.broker import Broker
from repro.broker.errors import (
    BrokerError,
    NotEnoughReplicasError,
    NotOwnerError,
    ProducerFencedError,
    StaleLeaderEpochError,
)
from repro.broker.group import GroupCoordinator
from repro.broker.metadata import ClusterMetadata
from repro.broker.remote import RemoteBroker
from repro.broker.replicator import _ShardReplicator
from repro.monitoring.events import EventJournal
from repro.monitoring.tracing import TRACE_HEADER, Tracer
from repro.util.validation import ValidationError


class PeerLinks:
    """The production peer transport (``connect`` / ``drop``): one
    cached single-attempt :class:`RemoteBroker` per shard index,
    redialled after a failure. The replicator's pump thread is its only
    caller on a leader, so each push reads its ack on that thread's own
    socket. The election probe uses it too."""

    def __init__(self, address_of, **budget) -> None:
        self._address_of = address_of  # index -> (host, port)
        self._budget = budget
        self._remotes: dict[int, RemoteBroker] = {}

    def connect(self, index: int) -> RemoteBroker:
        remote = self._remotes.get(index)
        if remote is None:
            host, port = self._address_of(index)
            remote = self._remotes[index] = RemoteBroker(
                host, port, op_timeout=2.0, max_attempts=1, **self._budget
            )
        return remote

    def drop(self, index: int) -> None:
        """Forget a failed connection: a fresh one is cheap, a wedged one is not."""
        remote = self._remotes.pop(index, None)
        if remote is not None:
            try:
                remote.close()
            except (BrokerError, OSError):
                pass

    def close(self) -> None:
        for index in list(self._remotes):
            self.drop(index)


class ShardBroker(Broker):
    """A broker that owns a deterministic slice of the partition space.

    Partition-affine ops (``append_many`` — and with it the batch-of-one
    ``append`` — ``fetch``/offsets/``partition_log``, the last one
    covering the reactor's long-poll parking path) check ownership
    *first* and raise
    :class:`NotOwnerError` before any state is read or written; group-
    affine ops (coordination, commits) check the group's coordinator
    shard the same way via the coordinator's guard hook. Topics are
    created on every shard with their full partition set — unowned
    partition logs simply stay empty — so rebalance computations and
    partition counts need no cross-shard calls.

    Idempotent-producer ids are strided (``shard + k * num_shards``) so
    producers registered on different shards can never collide; with one
    shard this reduces to the plain broker's dense numbering.
    """

    def __init__(
        self,
        shard_index: int = 0,
        num_shards: int = 1,
        name: str | None = None,
        auto_create_topics: bool = False,
        tracer=None,
        replication_factor: int = 1,
        log_dir: str | None = None,
        storage=None,
        telemetry: bool = False,
        trace_sample: float = 1.0,
    ) -> None:
        if not 0 <= shard_index < num_shards:
            raise ValidationError(
                f"shard_index {shard_index} out of range for {num_shards} shards"
            )
        if replication_factor < 1:
            raise ValidationError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        super().__init__(
            name=name or f"shard-{shard_index}",
            auto_create_topics=auto_create_topics,
            tracer=tracer,
            log_dir=log_dir,
            storage=storage,
        )
        self.shard_index = int(shard_index)
        self.num_shards = int(num_shards)
        self.replication_factor = int(replication_factor)
        # *telemetry* switches per-record span tracing on — the one
        # cost worth a switch. The registry (inherited) and the
        # control-plane journal are NOT gated on it: their numbers and
        # events are what an operator needs *after* an incident, when
        # it is too late to turn telemetry on.
        self.events = EventJournal(origin=self.name)
        if telemetry and self.tracer is None:
            self.tracer = Tracer(
                service=self.name, sample_rate=float(trace_sample)
            )
        if self._storage is not None:
            # Stores open lazily at create_topic time, so every store —
            # including ones whose boot recovery runs then — inherits
            # the journal hook installed here.
            self._storage.journal = self.events
        self.registry.add_reader(
            "gauges", self._hwm_lag_by_partition, prefix="replication.hwm_lag."
        )
        #: How long an ``acks="all"`` append may wait for the high-
        #: watermark before :class:`NotEnoughReplicasError` (retriable).
        self.acks_timeout_s = 5.0
        #: Optional :class:`~repro.faults.FaultInjector` whose
        #: ``on_replication`` hook the replicator consults per push.
        self.fault_injector = None
        #: The installed map; epoch 0, this shape and no addresses until
        #: :meth:`set_cluster` — the one rule for who leads what either way.
        self.cluster_metadata = ClusterMetadata(
            epoch=0,
            shards=((None, None),) * self.num_shards,
            replication_factor=self.replication_factor,
        )
        #: The leader-side pump; ``None`` while replication is stopped.
        self.replicator: _ShardReplicator | None = None
        # Replace the base coordinator with one whose every group-scoped
        # entry point re-checks coordinator ownership.
        self._coordinator = GroupCoordinator(self, guard=self._check_group_owner)

    # -- cluster wiring ------------------------------------------------------

    def set_cluster(self, addresses, epoch: int, leaders=()) -> None:
        """Install the shard address map (called by the supervisor).

        *leaders* is the failover override table —
        ``(topic, partition, shard, partition_epoch)`` tuples for
        partitions whose leadership moved off the hash slot.
        """
        meta = ClusterMetadata(
            epoch=int(epoch),
            shards=tuple((str(h), int(p)) for h, p in addresses),
            replication_factor=self.replication_factor,
            leaders=tuple(
                (str(t), int(p), int(s), int(e)) for t, p, s, e in leaders
            ),
        )
        if meta.num_shards != self.num_shards:
            raise ValidationError(
                f"cluster map has {meta.num_shards} shards, broker expects "
                f"{self.num_shards}"
            )
        self.cluster_metadata = meta
        self._coordinator.wake_all()  # a parked heartbeat re-checks its group's owner
        rep = self.replicator
        if rep is not None:
            rep.wake()

    # -- ownership guards ----------------------------------------------------

    def local_log(self, topic: str, partition: int):
        """The partition's log with no leader guard: what replication
        reads on a leader and writes on a follower."""
        return super().partition_log(topic, partition)

    def owns(self, topic: str, partition: int) -> bool:
        return self.cluster_metadata.leader_index(topic, partition) == self.shard_index

    def _check_owner(self, topic: str, partition: int) -> None:
        owner = self.cluster_metadata.leader_index(topic, partition)
        if owner != self.shard_index:
            raise NotOwnerError(
                f"partition {topic}/{partition}",
                owner,
                self.shard_index,
                self.cluster_metadata.epoch,
            )

    def _check_replica(self, topic: str, partition: int) -> None:
        indices = self.cluster_metadata.replica_indices(topic, partition)
        if self.shard_index not in indices:
            raise NotOwnerError(
                f"replica {topic}/{partition}",
                indices[0],
                self.shard_index,
                self.cluster_metadata.epoch,
            )

    def _check_group_owner(self, group: str) -> None:
        owner = self.cluster_metadata.coordinator_index(group)
        if owner != self.shard_index:
            raise NotOwnerError(
                f"group {group!r}", owner, self.shard_index, self.cluster_metadata.epoch
            )

    # -- partition-affine surface --------------------------------------------

    def append_many(self, topic, partition, values, **kwargs):
        self._check_owner(topic, partition)
        acks = kwargs.pop("acks", None)
        try:
            md = super().append_many(topic, partition, values, **kwargs)
        except ProducerFencedError as exc:
            self._journal_fenced(topic, partition, exc)
            raise
        self._after_append(topic, partition, md.base_offset + md.count, acks)
        return md

    def _journal_fenced(self, topic, partition, exc: ProducerFencedError) -> None:
        self.events.emit(
            "producer_fenced",
            topic=topic,
            partition=int(partition),
            producer_id=exc.producer_id,
            epoch=exc.epoch,
            current_epoch=exc.current_epoch,
        )

    def create_topic(self, name, *args, **kwargs):
        # Every log reports waiters left behind its fence to this shard
        # (a no-op until replication starts and while it is stopped).
        topic = super().create_topic(name, *args, **kwargs)
        for partition in topic.partitions:
            topic.partition(partition).on_fence_wait = partial(
                self._pump_now, name, partition
            )
        return topic

    def _pump_now(self, topic, partition) -> None:
        """Somebody is waiting for records behind this partition's fence
        (a parked fetch, per the log's ``on_fence_wait``, or an
        ``acks="all"`` producer): replicate it now, not at the sweep."""
        rep = self.replicator
        if rep is not None:
            rep.mark_dirty(topic, partition)

    def _after_append(self, topic, partition, end_offset: int, acks) -> None:
        """Replication hand-off for one acknowledged append.

        The append never waits for the push and never pays a replica
        RPC: waking the pump is a set insert and an ``Event.set()``.
        *Whether* it wakes the pump depends on one observable property
        — somebody is waiting on the fence. A consumer parked on this
        partition (the log calls :meth:`_pump_now` through its
        ``on_fence_wait`` hook) or an ``acks="all"`` producer (here)
        gets the records shipped as soon as the previous push returns,
        so they are consumable one follower round-trip after the ack;
        with nobody waiting the records ride the next ``INTERVAL_S``
        sweep, which batches a produce-only burst instead of competing
        with it. Only ``acks="all"`` *waits*: it blocks until the
        partition's high-watermark covers *end_offset* — i.e. every
        in-sync replica holds the records — and a stalled ISR surfaces
        as the retriable :class:`NotEnoughReplicasError` rather than an
        indefinite hang.
        """
        if acks != "all" or self.replicator is None:
            return
        log = self.local_log(topic, partition)
        # Arm the visibility fence before waiting: before the pump first
        # touches this partition the fence is down and the wait would
        # trivially pass, acknowledging records no replica holds
        # (monotonic, so a no-op once armed).
        log.set_high_watermark(0)
        self._pump_now(topic, partition)
        if not log.wait_for_high_watermark(end_offset, self.acks_timeout_s):
            raise NotEnoughReplicasError(
                topic, partition, end_offset, self.acks_timeout_s
            )

    def fetch(self, topic, partition, offset, **kwargs):
        self._check_owner(topic, partition)
        return super().fetch(topic, partition, offset, **kwargs)

    def partition_log(self, topic, partition):
        # The reactor's long-poll parking goes through here, so a parked
        # fetch for a foreign partition is rejected up front too.
        self._check_owner(topic, partition)
        return super().partition_log(topic, partition)

    def earliest_offset(self, topic, partition):
        self._check_owner(topic, partition)
        return super().earliest_offset(topic, partition)

    def latest_offset(self, topic, partition):
        self._check_owner(topic, partition)
        if self.replicator is not None:
            # Consumers must not chase offsets past what the ISR holds.
            return self.local_log(topic, partition).high_watermark
        return super().latest_offset(topic, partition)

    def partition_depths(self) -> dict:
        """Only the partitions this shard owns (unowned logs are empty
        placeholders); a cluster-wide view is the union over shards.
        On a replicated shard the end offset is the high-watermark, so
        depth accounting matches what consumers can actually fetch."""
        out = {
            tp: d for tp, d in super().partition_depths().items() if self.owns(*tp)
        }
        if self.replicator is not None:
            for (topic, partition), depth in out.items():
                hwm = self.local_log(topic, partition).high_watermark
                if hwm < depth["end_offset"]:
                    depth["depth"] = max(
                        0, depth["depth"] - (depth["end_offset"] - hwm)
                    )
                    depth["end_offset"] = hwm
        return out

    # -- group-affine surface ------------------------------------------------

    def committed_offset(self, group, topic, partition):
        self._check_group_owner(group)
        return super().committed_offset(group, topic, partition)

    def committed_offsets(self, group=None) -> dict:
        if group is not None:
            self._check_group_owner(group)
        return super().committed_offsets(group)

    def consumer_lag(self, group) -> dict:
        """Lag for the partitions this shard owns; the cluster client
        merges committed offsets with cluster-wide depths for the rest."""
        self._check_group_owner(group)
        return {tp: lag for tp, lag in super().consumer_lag(group).items() if self.owns(*tp)}

    # -- idempotent producers ------------------------------------------------

    def register_producer(self, client_id: str) -> tuple[int, int]:
        with self._producers_lock:
            pid = self._producer_ids.get(client_id)
            if pid is None:
                # Strided ids: globally unique without coordination.
                pid = self.shard_index + self.num_shards * len(self._producer_ids)
                self._producer_ids[client_id] = pid
                self._producer_epochs[pid] = 0
            else:
                self._producer_epochs[pid] += 1
            return pid, self._producer_epochs[pid]

    # -- replication surface (leader <-> follower) ---------------------------

    def start_replication(self) -> None:
        """Start the leader-side replication pump (no-op unreplicated)."""
        if self.replication_factor <= 1 or self.num_shards <= 1:
            return
        if self.replicator is None:
            # Tight budgets: a slow follower must stall one pump cycle,
            # never wedge the leader (ISR eviction handles the rest).
            links = PeerLinks(
                lambda index: self.cluster_metadata.shards[index],
                connect_timeout=0.5,
            )
            self.replicator = _ShardReplicator(self, links)
            self.replicator.start()

    def stop_replication(self) -> None:
        rep, self.replicator = self.replicator, None
        if rep is not None:
            rep.stop()

    def replicate_append(
        self,
        topic,
        partition,
        *,
        base_offset,
        records,
        leader=0,
        leader_epoch=0,
        high_watermark=0,
        batches=(),
    ) -> dict:
        """Follower-side: install a leader's batch at exact offsets.

        Bypasses the leader guard (a follower by definition does not own
        the partition) but still requires membership in the replica set.
        A stale leader — one deposed by an election this follower has
        already heard about — is fenced by the partition epoch. A gap
        (``base_offset`` past our log end) is refused so the leader
        re-syncs from our actual end; an overlap means our log diverged
        (we were the old leader, the leader truncated, or the push
        re-sends a whole batch we hold part of) and the leader's view
        wins: we truncate back to ``base_offset`` first. *batches* name
        the idempotent batches among *records*; they keep dedup working
        after a failover to this replica.
        """
        self._check_replica(topic, partition)
        known = self.cluster_metadata.partition_epoch(topic, partition)
        if leader_epoch < known:
            raise StaleLeaderEpochError(
                f"{topic}/{partition}", int(leader_epoch), known
            )
        log = self.local_log(topic, partition)
        end = log.latest_offset
        base_offset = int(base_offset)
        if base_offset > end:
            return {"accepted": False, "log_end": end, "hwm": log.high_watermark}
        if base_offset < end:
            log.truncate_to(base_offset)
        if records:
            accepted, end = log.install_replica_batch(base_offset, records, batches)
            if not accepted:
                return {"accepted": False, "log_end": end, "hwm": log.high_watermark}
        hwm = log.set_high_watermark(min(int(high_watermark), log.latest_offset))
        tracer = self.tracer
        if tracer is not None and records:
            # The producer's trace context rides in each record's
            # headers (the same field the leader's append spans parent
            # on), so the follower's install shows up in the SAME trace:
            # the stitched tree reads produce → leader append →
            # replica install → ack/hwm advance across two processes.
            hops = [
                (rec.headers.get(TRACE_HEADER), {"offset": rec.offset, "leader": int(leader)})
                for rec in records
                if rec.headers and rec.headers.get(TRACE_HEADER)
            ]
            if hops:
                tracer.record_hops("replica.append", hops, site=self.name)
        return {"accepted": True, "log_end": log.latest_offset, "hwm": hwm}

    def replica_ack(self, topic, partition) -> dict:
        """A replica's progress for one partition (leader probe + election)."""
        self._check_replica(topic, partition)
        log = self.local_log(topic, partition)
        return {
            "log_end": log.latest_offset,
            "hwm": log.high_watermark,
            "epoch": self.cluster_metadata.partition_epoch(topic, partition),
        }

    def replication_status(self) -> dict:
        """ISR / lag / high-watermark state for partitions this shard leads."""
        rep = self.replicator
        return {
            "shard": self.shard_index,
            "replication_factor": self.replication_factor,
            "partitions": rep.status() if rep is not None else [],
        }

    def _hwm_lag_by_partition(self) -> dict:
        """``<topic>.<partition>: log end minus high-watermark`` for
        every partition this shard replicates."""
        return {
            f"{p['topic']}.{p['partition']}": max(0, p["log_end"] - p["high_watermark"])
            for p in self.replication_status()["partitions"]
        }

    # -- cluster wire ops ----------------------------------------------------

    def describe_cluster(self) -> dict:
        meta = self.cluster_metadata
        if meta.epoch == 0:
            raise ValidationError("cluster metadata not initialised on this shard")
        out = meta.to_wire()
        out["shard"] = self.shard_index
        return out

    def find_coordinator(self, group: str) -> dict:
        meta = self.cluster_metadata
        idx = meta.coordinator_index(group)
        host, port = meta.shards[idx]  # (None, None) before the map arrives
        return {"shard": idx, "host": host, "port": port, "epoch": meta.epoch}

    # -- observability wire ops ----------------------------------------------

    def metrics_snapshot(self) -> dict:
        """The ``metrics_snapshot`` wire op: this shard's typed registry
        snapshot (broker, storage, server and replication numbers)."""
        snap = self.registry.snapshot()
        snap["shard"] = self.shard_index
        return snap

    def events_since(self, since: int = 0) -> dict:
        """The ``events_since`` wire op: journal delta past cursor *since*.

        ``boot`` lets a collector detect that this is a *different
        process* than the one its cursor came from (a respawn) and
        re-drain from zero.
        """
        journal = self.events
        return {
            "shard": self.shard_index,
            "boot": journal.boot,
            "next_seq": journal.next_seq,
            "events": [e.to_dict() for e in journal.events_since(int(since))],
        }

    def trace_spans(self, since: int = 0) -> dict:
        """The ``trace_spans`` wire op: finished spans past index *since*.

        The tracer's retained-span list is append-ordered, so a plain
        index is a stable cursor; same ``boot`` protocol as the journal.
        """
        out = {
            "shard": self.shard_index,
            "boot": self.events.boot,
            "next": 0,
            "spans": [],
        }
        tracer = self.tracer
        if tracer is None:
            return out
        spans = tracer.spans()
        cursor = max(0, int(since))
        out["next"] = len(spans)
        out["spans"] = [s.to_dict() for s in spans[cursor:]]
        return out

