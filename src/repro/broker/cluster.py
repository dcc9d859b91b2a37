"""Multi-core broker: sharded partition ownership across processes.

Python's GIL means one broker process time-slices one core no matter how
deep the fast path gets. This module escapes it the way Kafka scales a
cluster — by *ownership*, not by locking: partitions are hashed across N
worker **processes** (each running its own
:class:`~repro.broker.reactor.ReactorBrokerServer` event loop on its own
port), every ``(topic, partition)`` pair has exactly one owner, and
clients route per partition. Three pieces:

- :class:`ShardBroker` — a :class:`~repro.broker.broker.Broker` that
  knows which slice of the partition space it owns and answers
  :class:`~repro.broker.errors.NotOwnerError` for the rest *before*
  touching any state, so a rejected op is always safe to retry against
  the true owner. Group coordination is ownership-guarded the same way:
  each group id hashes to one *coordinator shard* that holds the group's
  members, generations, and committed offsets.
- :class:`ClusterBrokerSupervisor` — spawns the worker processes, hands
  each the cluster address map + epoch over a control pipe, respawns
  dead shards on their original port (bumping the epoch), and tears the
  whole thing down deterministically.
- :class:`ClusterBroker` — the cluster-aware client: bootstraps metadata
  from any shard (``describe_cluster``), keeps one pipelined
  :class:`~repro.broker.remote.RemoteBroker` per shard, routes every
  partition-affine op to its owner and every group-affine op to its
  coordinator, and on ``NotOwnerError`` or connection loss refreshes
  metadata with capped backoff — replaying only idempotent ops, exactly
  the rules the single-connection client already follows.

Ownership is a *rule* (:mod:`repro.broker.metadata`), so the metadata
payload is O(shards) and newly created topics need no epoch bump. With
``num_shards=1`` everything degenerates to single-process behavior: a
plain :class:`RemoteBroker` pointed at one shard works unchanged.

This is ROADMAP item 1's skeleton: a partition→process map is a
partition→broker map in miniature, and ``NotOwnerError`` is
``NotLeaderError`` without replication.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from functools import partial
from multiprocessing.connection import wait as connection_wait

from repro.broker.broker import Broker
from repro.broker.errors import (
    BrokerError,
    BrokerTimeoutError,
    DisconnectedError,
    NotEnoughReplicasError,
    NotOwnerError,
    ProducerFencedError,
    StaleLeaderEpochError,
)
from repro.broker.group import GroupCoordinator
from repro.broker.metadata import (
    ClusterMetadata,
    coordinator_shard,
    replica_indices,
    shard_for_partition,
)
from repro.broker.ops import OPS, CoordinatorClient, Op, install_stubs
from repro.broker.reactor import ReactorBrokerServer
from repro.broker.remote import (
    RemoteBroker,
    RemoteBrokerError,
    RemoteRetriableError,
)
from repro.monitoring.events import EventJournal
from repro.monitoring.tracing import TRACE_HEADER, Tracer
from repro.util.validation import ValidationError


# -- the shard-side broker ---------------------------------------------------


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
        self._cluster_meta = ClusterMetadata(epoch=0, shards=())
        self._replicator: _ShardReplicator | None = None
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
        self._cluster_meta = meta
        rep = self._replicator
        if rep is not None:
            rep.wake()

    @property
    def cluster_epoch(self) -> int:
        return self._cluster_meta.epoch

    # -- ownership guards ----------------------------------------------------

    def _leader_index(self, topic: str, partition: int) -> int:
        """The shard currently leading one partition.

        Uses the installed metadata's override table when it matches this
        cluster's shape (so failover elections take effect the moment the
        supervisor broadcasts them); falls back to the hash rule before
        ``set_cluster`` has run.
        """
        meta = self._cluster_meta
        if meta.num_shards == self.num_shards:
            return meta.leader_index(topic, partition)
        return shard_for_partition(topic, partition, self.num_shards)

    def _replica_indices(self, topic: str, partition: int) -> tuple[int, ...]:
        meta = self._cluster_meta
        if meta.num_shards == self.num_shards:
            return meta.replica_indices(topic, partition)
        return replica_indices(
            topic, partition, self.num_shards, self.replication_factor
        )

    def owns(self, topic: str, partition: int) -> bool:
        return self._leader_index(topic, partition) == self.shard_index

    def _check_owner(self, topic: str, partition: int) -> None:
        owner = self._leader_index(topic, partition)
        if owner != self.shard_index:
            raise NotOwnerError(
                f"partition {topic}/{partition}",
                owner,
                self.shard_index,
                self._cluster_meta.epoch,
            )

    def _check_replica(self, topic: str, partition: int) -> None:
        indices = self._replica_indices(topic, partition)
        if self.shard_index not in indices:
            raise NotOwnerError(
                f"replica {topic}/{partition}",
                indices[0],
                self.shard_index,
                self._cluster_meta.epoch,
            )

    def _check_group_owner(self, group: str) -> None:
        owner = coordinator_shard(group, self.num_shards)
        if owner != self.shard_index:
            raise NotOwnerError(
                f"group {group!r}", owner, self.shard_index, self._cluster_meta.epoch
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
        rep = self._replicator
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
        with nobody waiting the records ride the next ``interval_s``
        sweep, which batches a produce-only burst instead of competing
        with it. Only ``acks="all"`` *waits*: it blocks until the
        partition's high-watermark covers *end_offset* — i.e. every
        in-sync replica holds the records — and a stalled ISR surfaces
        as the retriable :class:`NotEnoughReplicasError` rather than an
        indefinite hang.
        """
        if acks != "all" or self._replicator is None:
            return
        log = Broker.partition_log(self, topic, partition)
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
        if self._replicator is not None:
            # Consumers must not chase offsets past what the ISR holds.
            return Broker.partition_log(self, topic, partition).high_watermark
        return super().latest_offset(topic, partition)

    def partition_depths(self) -> dict:
        """Only the partitions this shard owns (unowned logs are empty
        placeholders); a cluster-wide view is the union over shards.
        On a replicated shard the end offset is the high-watermark, so
        depth accounting matches what consumers can actually fetch."""
        out = {
            tp: d for tp, d in super().partition_depths().items() if self.owns(*tp)
        }
        if self._replicator is not None:
            for (topic, partition), depth in out.items():
                hwm = Broker.partition_log(self, topic, partition).high_watermark
                if hwm < depth["end_offset"]:
                    depth["depth"] = max(
                        0, depth["depth"] - (depth["end_offset"] - hwm)
                    )
                    depth["end_offset"] = hwm
        return out

    # -- group-affine surface ------------------------------------------------

    def commit_offset(self, group, topic, partition, offset) -> None:
        # Commits are group-affine (Kafka's __consumer_offsets rule): the
        # coordinator shard owns a group's offsets even for partitions
        # whose *data* lives elsewhere.
        self._check_group_owner(group)
        super().commit_offset(group, topic, partition, offset)

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
        if self._replicator is None:
            self._replicator = _ShardReplicator(self)
            self._replicator.start()

    def stop_replication(self) -> None:
        rep, self._replicator = self._replicator, None
        if rep is not None:
            rep.stop()

    @property
    def replicating(self) -> bool:
        return self._replicator is not None

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
        producers=None,
    ) -> dict:
        """Follower-side: install a leader's batch at exact offsets.

        Bypasses the leader guard (a follower by definition does not own
        the partition) but still requires membership in the replica set.
        A stale leader — one deposed by an election this follower has
        already heard about — is fenced by the partition epoch. A gap
        (``base_offset`` past our log end) is refused so the leader
        re-syncs from our actual end; an overlap means our log diverged
        (we were the old leader, or the leader truncated) and the
        leader's view wins: we truncate back to ``base_offset`` first.
        """
        self._check_replica(topic, partition)
        known = self._cluster_meta.partition_epoch(topic, partition)
        if leader_epoch < known:
            raise StaleLeaderEpochError(
                f"{topic}/{partition}", int(leader_epoch), known
            )
        log = Broker.partition_log(self, topic, partition)
        end = log.latest_offset
        base_offset = int(base_offset)
        if base_offset > end:
            return {"accepted": False, "log_end": end, "hwm": log.high_watermark}
        if base_offset < end:
            log.truncate_to(base_offset)
        if records:
            accepted, end = log.install_replica_batch(base_offset, records)
            if not accepted:
                return {"accepted": False, "log_end": end, "hwm": log.high_watermark}
            if producers:
                # Producer dedup state rides with the data so idempotence
                # survives a failover to this replica.
                log.install_producer_state(producers)
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
        log = Broker.partition_log(self, topic, partition)
        return {
            "log_end": log.latest_offset,
            "hwm": log.high_watermark,
            "epoch": self._cluster_meta.partition_epoch(topic, partition),
        }

    def replication_status(self) -> dict:
        """ISR / lag / high-watermark state for partitions this shard leads."""
        out = {
            "shard": self.shard_index,
            "replication_factor": self.replication_factor,
            "partitions": [],
        }
        rep = self._replicator
        if rep is not None:
            out["partitions"] = rep.status()
        return out

    def _hwm_lag_by_partition(self) -> dict:
        """``<topic>.<partition>: log end minus high-watermark`` for
        every partition this shard replicates."""
        return {
            f"{p['topic']}.{p['partition']}": max(0, p["log_end"] - p["high_watermark"])
            for p in self.replication_status()["partitions"]
        }

    # -- cluster wire ops ----------------------------------------------------

    def describe_cluster(self) -> dict:
        meta = self._cluster_meta
        if meta.num_shards == 0:
            raise ValidationError("cluster metadata not initialised on this shard")
        out = meta.to_wire()
        out["shard"] = self.shard_index
        return out

    def find_coordinator(self, group: str) -> dict:
        meta = self._cluster_meta
        idx = coordinator_shard(group, self.num_shards)
        host, port = meta.shards[idx] if idx < meta.num_shards else (None, None)
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


# -- the replication pump ----------------------------------------------------


class _ShardReplicator:
    """Leader-side replication pump: one background thread per shard.

    Every cycle it walks the partitions this shard currently leads and,
    per follower replica, pushes the records past the follower's last
    acknowledged offset over the same pipelined wire protocol clients
    use (``replicate_append``). Ack progress feeds two derived states:

    - the **ISR** — a follower joins once it acks within
      ``max_lag_records`` of the leader's log end, and is evicted when it
      has not acked for ``isr_timeout_s`` (covering both dead processes
      and partitioned links; :meth:`FaultInjector.on_replication` can
      sever a link deterministically for tests);
    - the **high-watermark** — the minimum acked offset across the ISR
      (leader log end when the ISR has shrunk to the leader alone, the
      Kafka rule), installed into the partition log so consumers and
      ``acks="all"`` producers only ever see ISR-covered records.

    Two clocks drive the one thread. *Demand* — whenever somebody is
    waiting for records behind a partition's fence (a parked fetch, an
    ``acks="all"`` producer; see :meth:`ShardBroker._after_append`)
    :meth:`mark_dirty` wakes it, and a cycle so woken pumps the dirty
    partitions only. Batching is self-clocked: whatever was appended
    while a ``replicate_append`` was in flight rides the next one (up
    to the 512-record slice), Kafka's follower-fetch rule, so there is
    no linger setting to tune. *The sweep* — every ``interval_s`` one
    cycle walks all led partitions instead: records nobody is waiting
    for, heartbeats to caught-up followers, first contact, ISR join and
    evict, leadership moves and progress pruning live there, on a
    deadline of their own that a stream of wakes can neither starve nor
    hurry. A cycle that raises is counted
    (``replication.pump_errors.<type>``) and the pump sits out one
    ``interval_s``, so a persistent error costs what it did under the
    timer, not one failure per append.
    """

    def __init__(
        self,
        broker: "ShardBroker",
        interval_s: float = 0.02,
        max_lag_records: int = 256,
        isr_timeout_s: float = 2.0,
    ) -> None:
        self._broker = broker
        self.interval_s = float(interval_s)
        self.max_lag_records = int(max_lag_records)
        self.isr_timeout_s = float(isr_timeout_s)
        # Resolved once: the per-push path bumps it without a lookup.
        self._ack_latency = broker.registry.histogram(
            "replication.ack_latency_seconds"
        )
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None
        self._remotes: dict[int, RemoteBroker] = {}
        # (topic, partition) -> {follower_index: progress dict}; guarded
        # by _lock only for *structural* changes (status() snapshots).
        self._progress: dict = {}
        # (topic, partition)s marked since the pump last looked; swapped
        # out under _lock (markers race the drain).
        self._dirty: set = set()
        #: time.monotonic() at which the next full sweep is due.
        self._sweep_at = 0.0
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run,
            name=f"replicator-{self._broker.shard_index}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._stopping.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for index in list(self._remotes):
            self._drop_remote(index)

    def mark_dirty(self, topic: str, partition: int) -> None:
        """Pump this partition as soon as the thread is free. Called on
        the ack and fetch paths — never blocks on I/O."""
        with self._lock:
            self._dirty.add((topic, partition))
        self._wake.set()

    def wake(self) -> None:
        """The cluster map changed: sweep now, not at the deadline."""
        self._sweep_at = 0.0
        self._wake.set()

    def _run(self) -> None:
        while not self._stopping.is_set():
            self._wake.wait(max(0.0, self._sweep_at - time.monotonic()))
            # Clear before draining: a mark_dirty racing this cycle
            # either lands in the set drained below or re-sets the event.
            self._wake.clear()
            if self._stopping.is_set():
                return
            with self._lock:
                # Drained either way: a sweep covers every partition.
                dirty, self._dirty = self._dirty, set()
            try:
                if time.monotonic() >= self._sweep_at:
                    # Deadline first, then the walk: a wake() racing the
                    # sweep re-arms it instead of being overwritten.
                    self._sweep_at = time.monotonic() + self.interval_s
                    self._tick()
                else:
                    self._pump_dirty(dirty)
            except Exception as exc:  # noqa: BLE001 — the pump must survive
                # Anything one cycle throws (metadata mid-swap, topic
                # deleted underneath it) is survivable — the next cycle
                # re-reads the world — but not silent, and not allowed
                # to recur at append rate.
                self._broker.registry.counter(
                    f"replication.pump_errors.{type(exc).__name__}"
                ).inc()
                self._stopping.wait(self.interval_s)

    # -- follower connections ------------------------------------------------

    def _remote(self, index: int, meta: ClusterMetadata) -> RemoteBroker:
        remote = self._remotes.get(index)
        if remote is not None:
            return remote
        host, port = meta.shards[index]
        # Tight budgets: a slow follower must stall one pump cycle,
        # never wedge the leader (ISR eviction handles the rest).
        remote = RemoteBroker(
            host,
            port,
            connect_timeout=0.5,
            op_timeout=2.0,
            max_attempts=1,
            max_in_flight_requests=1,
        )
        self._remotes[index] = remote
        return remote

    def _drop_remote(self, index: int) -> None:
        remote = self._remotes.pop(index, None)
        if remote is not None:
            try:
                remote.close()
            except Exception:
                pass

    # -- the pump ------------------------------------------------------------

    def _pump_dirty(self, dirty: set) -> None:
        broker = self._broker
        meta = broker._cluster_meta
        if meta.num_shards != broker.num_shards:
            return
        for name, partition in dirty:
            # Leadership may have moved since the partition was marked.
            if broker._leader_index(name, partition) == broker.shard_index:
                self._pump_partition(name, partition, meta)

    def _tick(self) -> None:
        broker = self._broker
        meta = broker._cluster_meta
        if meta.num_shards != broker.num_shards:
            return
        led = set()
        for name in broker.list_topics():
            topic = broker.topic(name)
            for partition in range(topic.num_partitions):
                if broker._leader_index(name, partition) != broker.shard_index:
                    continue
                led.add((name, partition))
                self._pump_partition(name, partition, meta)
        # Drop progress for partitions whose leadership moved away, so a
        # deposed leader's stale ISR never reappears in status().
        with self._lock:
            for tp in [tp for tp in self._progress if tp not in led]:
                del self._progress[tp]

    def _pump_partition(self, name: str, partition: int, meta) -> None:
        broker = self._broker
        log = Broker.partition_log(broker, name, partition)
        followers = [
            i
            for i in broker._replica_indices(name, partition)
            if i != broker.shard_index
        ]
        if not followers:
            log.set_high_watermark(log.latest_offset)
            return
        with self._lock:
            progress = self._progress.setdefault((name, partition), {})
        epoch = meta.partition_epoch(name, partition)
        leader_end = log.latest_offset
        now = time.monotonic()
        for index in followers:
            with self._lock:
                state = progress.setdefault(
                    index, {"acked": None, "last_good": now, "in_isr": False}
                )
            try:
                injector = broker.fault_injector
                if injector is not None:
                    on_replication = getattr(injector, "on_replication", None)
                    if on_replication is not None:
                        on_replication(broker.shard_index, index)
                remote = self._remote(index, meta)
                if state["acked"] is None:
                    # First contact: resume from the follower's log end,
                    # capped at our *high-watermark* — below it every
                    # replica's content is identical by the ISR
                    # invariant, above it the follower's suffix may
                    # diverge (it could be a deposed leader), so the
                    # first push re-sends from there and truncates the
                    # follower's divergent tail.
                    ack = remote.replica_ack(name, partition)
                    state["acked"] = min(int(ack["log_end"]), log.high_watermark)
                if state["acked"] < leader_end:
                    # The slice's own log end, not the one read above: an
                    # append racing this cycle rides the push, and the
                    # watermark below must be allowed to cover it.
                    records, leader_end, visible, producers = (
                        log.replication_slice(state["acked"])
                    )
                    push_start = time.perf_counter()
                    response = remote.replicate_append(
                        name,
                        partition,
                        base_offset=state["acked"],
                        records=records,
                        leader=broker.shard_index,
                        leader_epoch=epoch,
                        high_watermark=visible,
                        producers=producers,
                    )
                    self._ack_latency.observe(time.perf_counter() - push_start)
                    if response.get("accepted"):
                        state["acked"] = int(response["log_end"])
                        self._trace_acks(records, index, response)
                    else:
                        # Gap or divergence: re-anchor on the follower's
                        # reported end and retry next cycle.
                        state["acked"] = min(
                            int(response.get("log_end", 0)), leader_end
                        )
                elif now - state["last_good"] >= self.interval_s:
                    # Caught up: empty push keeps the follower's
                    # high-watermark (and our liveness view) fresh.
                    # Rate-limited to the timer interval so a burst of
                    # ``acks="all"`` wake-ups does not turn every
                    # caught-up partition into a heartbeat RPC per
                    # client append.
                    remote.replicate_append(
                        name,
                        partition,
                        base_offset=state["acked"],
                        records=[],
                        leader=broker.shard_index,
                        leader_epoch=epoch,
                        high_watermark=log.high_watermark,
                    )
                else:
                    continue
                state["last_good"] = now
                if (
                    not state["in_isr"]
                    and leader_end - state["acked"] <= self.max_lag_records
                ):
                    state["in_isr"] = True
                    broker.events.emit(
                        "isr_join",
                        topic=name,
                        partition=partition,
                        follower=index,
                        lag=max(0, leader_end - state["acked"]),
                        epoch=epoch,
                    )
            except Exception:
                # Unreachable / refused / link-partitioned follower: a
                # fresh connection is cheap, a wedged one is not.
                self._drop_remote(index)
                if state["in_isr"] and now - state["last_good"] > self.isr_timeout_s:
                    state["in_isr"] = False
                    broker.events.emit(
                        "isr_evict",
                        topic=name,
                        partition=partition,
                        follower=index,
                        silent_s=round(now - state["last_good"], 3),
                        epoch=epoch,
                    )
        # Kafka's rule: the high-watermark is the ISR's minimum acked
        # offset; with every follower evicted the ISR is the leader
        # alone and the watermark tracks its log end. One refinement
        # closes a startup hole: a follower that has never joined the
        # ISR (or just lost membership) still *holds* the watermark for
        # an isr_timeout_s grace window, so ``acks="all"`` cannot ack
        # records that exist nowhere but on a leader whose replicas
        # simply have not caught up yet. Only a follower that stays
        # unresponsive past the window is written off.
        floor = []
        for state in progress.values():
            if state["in_isr"] and state["acked"] is not None:
                floor.append(state["acked"])
            elif not state["in_isr"] and now - state["last_good"] <= self.isr_timeout_s:
                floor.append(state["acked"] or 0)
        log.set_high_watermark(min([leader_end] + floor) if floor else leader_end)

    def _trace_acks(self, records, follower: int, response: dict) -> None:
        """Stitch the replication hop into the producer's trace.

        Each replicated record still carries the producer's trace
        context in its headers; one ``replication.ack`` leaf per traced
        record, recorded on the *leader*, pairs with the follower's
        ``replica.append`` hop so the stitched tree shows both sides of
        the wire crossing.
        """
        tracer = self._broker.tracer
        if tracer is None or not records:
            return
        hwm = response.get("hwm", 0)
        hops = [
            (rec.headers.get(TRACE_HEADER), {"follower": follower, "hwm": hwm})
            for rec in records
            if rec.headers and rec.headers.get(TRACE_HEADER)
        ]
        if hops:
            tracer.record_hops(
                "replication.ack", hops, site=self._broker.name
            )

    # -- introspection -------------------------------------------------------

    def status(self) -> list:
        broker = self._broker
        meta = broker._cluster_meta
        out = []
        with self._lock:
            snapshot = [
                (tp, [(i, dict(state)) for i, state in progress.items()])
                for tp, progress in self._progress.items()
            ]
        for (name, partition), entries in sorted(snapshot):
            log = Broker.partition_log(broker, name, partition)
            leader_end = log.latest_offset
            followers = []
            isr = [broker.shard_index]
            for index, state in sorted(entries):
                acked = state["acked"]
                followers.append(
                    {
                        "shard": index,
                        "acked": acked,
                        "lag": leader_end - acked if acked is not None else leader_end,
                        "in_isr": state["in_isr"],
                    }
                )
                if state["in_isr"]:
                    isr.append(index)
            expected = len(broker._replica_indices(name, partition))
            out.append(
                {
                    "topic": name,
                    "partition": partition,
                    "leader": broker.shard_index,
                    "epoch": meta.partition_epoch(name, partition),
                    "log_end": leader_end,
                    "high_watermark": log.high_watermark,
                    "isr": sorted(isr),
                    "followers": followers,
                    "under_replicated": len(isr) < expected,
                }
            )
        return out


# -- the worker process ------------------------------------------------------


def _shard_worker_main(
    index: int,
    num_shards: int,
    host: str,
    port: int,
    topics,
    control_conn,
    opts: dict,
) -> None:
    """Entry point of one shard process (module-level: picklable).

    Two-phase startup: bind (ephemeral or respawn-pinned port), report
    the bound address on *control_conn*, then block for the full cluster
    map on the same pipe before serving — so no shard ever answers
    ``describe_cluster`` with a partial address list. Afterwards the
    control pipe carries epoch bumps and the stop signal; EOF (parent
    gone) also stops, so an orphaned worker exits instead of lingering.

    All parent<->worker traffic rides the per-worker pipe on purpose: a
    shared multiprocessing.Queue dies with its writers — a SIGKILLed
    shard can take the queue's shared write-lock to the grave, wedging
    every later sender — while a killed worker can only ever corrupt its
    *own* pipe, and its respawn gets a fresh one.
    """
    broker = ShardBroker(
        shard_index=index,
        num_shards=num_shards,
        replication_factor=opts.get("replication_factor", 1),
        log_dir=opts.get("log_dir"),
        storage=opts.get("storage"),
        telemetry=opts.get("telemetry", False),
        trace_sample=opts.get("trace_sample", 1.0),
    )
    # With a log_dir, create_topic opens the segment stores and runs
    # crash recovery NOW — before the cluster map arrives and replication
    # starts — so a respawned shard rejoins the ISR with its durable log
    # (offsets, records, producer dedup state) already restored from
    # disk, and the leader only streams the delta.
    for name, partitions in topics:
        broker.create_topic(name, num_partitions=partitions, exist_ok=True)
    deadline = time.monotonic() + opts.get("bind_timeout", 5.0)
    while True:
        try:
            server = ReactorBrokerServer(
                broker,
                host=host,
                port=port,
                num_workers=opts.get("num_workers", 4),
            )
            break
        except OSError as exc:
            # A respawn can race the dying process's port; retry briefly.
            if time.monotonic() >= deadline:
                control_conn.send(("error", index, f"bind failed: {exc}"))
                return
            time.sleep(0.05)
    control_conn.send(("bound", index, server.host, server.port))
    try:
        msg = control_conn.recv()
    except (EOFError, OSError):
        return
    if msg[0] != "cluster":
        return
    broker.set_cluster(msg[1], msg[2], leaders=msg[3] if len(msg) > 3 else ())
    server.start()
    broker.start_replication()
    try:
        while True:
            try:
                msg = control_conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] in ("cluster", "epoch"):
                broker.set_cluster(
                    msg[1], msg[2], leaders=msg[3] if len(msg) > 3 else ()
                )
            elif msg[0] == "stop":
                break
    finally:
        # Drains parked long-polls (clients see EOF, not a hang) and
        # joins the reactor + worker threads before the process exits.
        broker.stop_replication()
        server.stop()
        broker.close()  # final flush + producer snapshots to disk
        try:
            control_conn.close()
        except OSError:
            pass


class ClusterBrokerSupervisor:
    """Spawns and supervises N shard processes on one host.

    Startup is two-phase: every worker binds and reports its address,
    then the supervisor broadcasts the complete map (epoch 1) and the
    workers begin serving. With ``restart=True`` a monitor thread
    respawns any shard that dies on its *original* port and broadcasts a
    bumped epoch — in-memory log/group state on the dead shard is lost
    (replication is ROADMAP item 1), but clients reconnect and resume.

    ``stop()`` signals every worker over its control pipe (each worker's
    ``server.stop()`` drains parked long-polls and joins its threads),
    joins every process, and escalates terminate → kill for stragglers,
    so no orphaned processes or sockets survive it.
    """

    def __init__(
        self,
        num_shards: int = 2,
        host: str = "127.0.0.1",
        topics=None,
        restart: bool = False,
        num_workers: int = 4,
        start_timeout: float = 30.0,
        replication_factor: int = 1,
        log_dir: str | None = None,
        storage=None,
        telemetry: bool = False,
        trace_sample: float = 1.0,
    ) -> None:
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        if not 1 <= replication_factor <= num_shards:
            raise ValidationError(
                f"replication_factor must be in [1, {num_shards}], "
                f"got {replication_factor}"
            )
        self.num_shards = int(num_shards)
        self.host = host
        self.topics = [(str(n), int(p)) for n, p in (topics or [])]
        self.restart = bool(restart)
        self.num_workers = int(num_workers)
        self.start_timeout = float(start_timeout)
        self.replication_factor = int(replication_factor)
        #: Root for durable shard logs; each shard gets its own subtree
        #: (``{log_dir}/shard-{index}``) that a respawn on the same index
        #: recovers from — the disk survives the SIGKILL even though the
        #: process does not. ``storage`` is an optional StorageConfig
        #: (picklable, shipped to the workers).
        self.log_dir = log_dir
        self.storage = storage
        #: Turn every shard's per-record tracer on; the shard registries
        #: and control-plane journals are always on regardless.
        self.telemetry = bool(telemetry)
        self.trace_sample = float(trace_sample)
        #: The supervisor's own control-plane journal: deaths, elections
        #: and respawns are *its* story — the shard that died cannot
        #: narrate its own funeral.
        self.events = EventJournal(origin="supervisor")
        self.epoch = 0
        #: Shards respawned by the monitor thread (chaos accounting).
        self.restarts = 0
        #: Leader elections performed after shard deaths (chaos accounting).
        self.elections = 0
        # (topic, partition) -> (leader shard, partition epoch): the
        # failover override table, empty while every hash slot is alive.
        self._leaders: dict = {}
        self._ctx = multiprocessing.get_context()
        self._procs: list = [None] * self.num_shards
        self._pipes: list = [None] * self.num_shards
        self._addresses: list = [None] * self.num_shards
        self._lock = threading.Lock()
        self._stop_lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, index: int, port: int):
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                index,
                self.num_shards,
                self.host,
                port,
                self.topics,
                child_conn,
                {
                    "num_workers": self.num_workers,
                    "replication_factor": self.replication_factor,
                    "log_dir": (
                        os.path.join(self.log_dir, f"shard-{index}")
                        if self.log_dir
                        else None
                    ),
                    "storage": self.storage,
                    "telemetry": self.telemetry,
                    "trace_sample": self.trace_sample,
                },
            ),
            name=f"broker-shard-{index}",
            daemon=True,  # orphan safety net: workers die with the parent
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _await_bound(self, expect: set, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while expect:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"shards {sorted(expect)} did not bind within {timeout:.0f}s"
                )
            pipes = {self._pipes[index]: index for index in expect}
            for pipe in connection_wait(list(pipes), timeout=remaining):
                index = pipes[pipe]
                try:
                    msg = pipe.recv()
                except (EOFError, OSError):
                    raise RuntimeError(
                        f"shard {index} exited before binding"
                    ) from None
                if msg[0] == "error":
                    raise RuntimeError(
                        f"shard {msg[1]} failed to start: {msg[2]}"
                    )
                _, _, host, port = msg
                self._addresses[index] = (host, port)
                expect.discard(index)

    def _leaders_wire(self) -> list:
        return [
            [t, p, s, e] for (t, p), (s, e) in sorted(self._leaders.items())
        ]

    def _broadcast(self, tag: str) -> None:
        payload = (tag, list(self._addresses), self.epoch, self._leaders_wire())
        for pipe in self._pipes:
            if pipe is None:
                continue
            try:
                pipe.send(payload)
            except (BrokenPipeError, OSError):
                pass  # dead shard; the monitor (if any) will respawn it

    def start(self) -> "ClusterBrokerSupervisor":
        if self._started:
            raise RuntimeError("supervisor already started")
        self._started = True
        self._stopping.clear()
        for index in range(self.num_shards):
            self._procs[index], self._pipes[index] = self._spawn(index, port=0)
        try:
            self._await_bound(set(range(self.num_shards)), self.start_timeout)
        except Exception:
            self._teardown()
            raise
        self.epoch = 1
        for index, (host, port) in enumerate(self._addresses):
            proc = self._procs[index]
            self.events.emit(
                "shard_started",
                shard=index,
                host=host,
                port=port,
                pid=proc.pid if proc is not None else None,
            )
        self._broadcast("cluster")
        if self.restart:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="cluster-monitor", daemon=True
            )
            self._monitor.start()
        return self

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(0.05):
            for index in range(self.num_shards):
                proc = self._procs[index]
                if proc is None or proc.is_alive() or self._stopping.is_set():
                    continue
                with self._lock:
                    if self._stopping.is_set():
                        return
                    proc.join(timeout=0)
                    self.events.emit(
                        "shard_died",
                        shard=index,
                        pid=proc.pid,
                        exitcode=proc.exitcode,
                    )
                    old_pipe = self._pipes[index]
                    if old_pipe is not None:
                        try:
                            old_pipe.close()
                        except OSError:
                            pass
                    # Failover before respawn: move leadership for the
                    # dead shard's partitions onto their most-caught-up
                    # surviving replica and broadcast immediately, so
                    # clients resume against the new leader while the
                    # replacement process is still starting (this is the
                    # failover MTTR the bench guard bounds).
                    if self.replication_factor > 1 and self._elect_leaders(index):
                        self.epoch += 1
                        self._broadcast("cluster")
                    # Same port: clients that never noticed the crash
                    # keep a valid address; ones that did simply redial.
                    _, port = self._addresses[index]
                    self._procs[index], self._pipes[index] = self._spawn(index, port)
                    try:
                        self._await_bound({index}, self.start_timeout)
                    except RuntimeError:
                        continue  # next tick tries again
                    if self._stopping.is_set():
                        # stop() raced the respawn; it owns teardown of
                        # the fresh worker — do not re-advertise it.
                        return
                    self.epoch += 1
                    self.restarts += 1
                    new_proc = self._procs[index]
                    self.events.emit(
                        "shard_respawned",
                        shard=index,
                        pid=new_proc.pid if new_proc is not None else None,
                        epoch=self.epoch,
                    )
                    # The respawned shard receives the override table in
                    # this broadcast, so it rejoins as a *follower* for
                    # any partition it used to lead and re-syncs from the
                    # elected leader (truncating divergence).
                    self._broadcast("cluster")

    def _elect_leaders(self, dead_index: int) -> bool:
        """Re-home leadership for every partition *dead_index* led.

        The winner is the surviving replica with the longest log — by the
        ISR invariant (the high-watermark never passes the slowest ISR
        member) it holds every record any ``acks="all"`` producer was
        ever acknowledged for, so election never loses acked data. Each
        moved partition's epoch is bumped to fence late pushes from the
        deposed leader. Only partitions of supervisor-declared topics are
        governed; dynamically created topics are unreplicated.
        """
        changed = False
        remotes: dict[int, RemoteBroker] = {}
        try:
            for name, partitions in self.topics:
                for partition in range(partitions):
                    replicas = replica_indices(
                        name, partition, self.num_shards, self.replication_factor
                    )
                    current, part_epoch = self._leaders.get(
                        (name, partition), (replicas[0], 0)
                    )
                    if current != dead_index:
                        continue
                    best, best_end = None, -1
                    for idx in replicas:
                        if idx == dead_index or not self.is_alive(idx):
                            continue
                        try:
                            remote = remotes.get(idx)
                            if remote is None:
                                host, port = self._addresses[idx]
                                remote = remotes[idx] = RemoteBroker(
                                    host,
                                    port,
                                    connect_timeout=1.0,
                                    op_timeout=2.0,
                                    max_attempts=1,
                                )
                            end = int(remote.replica_ack(name, partition)["log_end"])
                        except (BrokerError, ConnectionError, OSError):
                            continue
                        if end > best_end:
                            best, best_end = idx, end
                    if best is None:
                        continue  # no live replica; respawn restores the slot
                    self._leaders[(name, partition)] = (best, part_epoch + 1)
                    self.elections += 1
                    self.events.emit(
                        "leader_elected",
                        topic=name,
                        partition=partition,
                        leader=best,
                        previous=dead_index,
                        epoch=part_epoch + 1,
                        log_end=best_end,
                    )
                    changed = True
        finally:
            for remote in remotes.values():
                try:
                    remote.close()
                except Exception:
                    pass
        return changed

    def stop(self) -> None:
        # Serialised against concurrent stop() calls, and hands the
        # monitor a stop signal *before* joining it so an in-flight
        # respawn finishes (or aborts) under its own lock — teardown then
        # sweeps whatever set of processes actually exists.
        with self._stop_lock:
            if not self._started:
                return
            self._started = False
            self._stopping.set()
            monitor, self._monitor = self._monitor, None
        if monitor is not None:
            # A respawn can legitimately take up to start_timeout inside
            # _await_bound; joining shorter than that leaks the thread.
            monitor.join(timeout=self.start_timeout + 10)
        with self._lock:
            self._teardown()

    def _teardown(self) -> None:
        for pipe in self._pipes:
            if pipe is None:
                continue
            try:
                pipe.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 10.0
        for escalate in (None, "terminate", "kill"):
            for proc in self._procs:
                if proc is None or not proc.is_alive():
                    continue
                if escalate is not None:
                    getattr(proc, escalate)()
                proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for index, proc in enumerate(self._procs):
            if proc is not None:
                proc.join(timeout=1.0)
                self._procs[index] = None
        for index, pipe in enumerate(self._pipes):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass
                self._pipes[index] = None

    def __enter__(self) -> "ClusterBrokerSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection / chaos -----------------------------------------------

    @property
    def addresses(self) -> list:
        return [addr for addr in self._addresses if addr is not None]

    @property
    def bootstrap(self) -> list:
        """Alias clients pass straight to :class:`ClusterBroker`."""
        return self.addresses

    def describe_cluster(self) -> dict:
        return ClusterMetadata(
            self.epoch,
            tuple(self.addresses),
            replication_factor=self.replication_factor,
            leaders=tuple(
                (t, p, s, e) for (t, p), (s, e) in sorted(self._leaders.items())
            ),
        ).to_wire()

    def partition_leader(self, topic: str, partition: int) -> int:
        """The shard currently leading one partition (override or hash)."""
        entry = self._leaders.get((topic, partition))
        if entry is not None:
            return entry[0]
        return shard_for_partition(topic, partition, self.num_shards)

    def is_alive(self, index: int) -> bool:
        proc = self._procs[index]
        return proc is not None and proc.is_alive()

    def kill_shard(self, index: int) -> int:
        """SIGKILL one shard (chaos testing); returns the dead pid."""
        proc = self._procs[index]
        if proc is None or proc.pid is None:
            raise ValidationError(f"shard {index} is not running")
        pid = proc.pid
        os.kill(pid, signal.SIGKILL)
        proc.join(timeout=10)
        return pid


# -- the cluster-aware client ------------------------------------------------


class ClusterBroker:
    """Cluster-aware client: one pipelined connection per shard, ops
    routed by the same ownership rule the shards enforce.

    Presents the same broker surface as :class:`RemoteBroker`, so
    :class:`~repro.broker.producer.Producer` and
    :class:`~repro.broker.consumer.Consumer` work against it unchanged.
    On :class:`NotOwnerError` (always raised before the op applied —
    safe for every op) or connection loss (safe only for idempotent
    ops), the client refreshes metadata with capped exponential backoff
    and re-routes; the per-shard connections' correlation-id pipelining,
    deadlines, and replay rules are :class:`RemoteBroker`'s, reused
    unchanged.
    """

    def __init__(
        self,
        bootstrap,
        connect_timeout: float = 5.0,
        op_timeout: float = 10.0,
        max_attempts: int = 3,
        reconnect_backoff_ms: float = 50.0,
        max_in_flight_requests: int = 5,
        link=None,
        tracer=None,
        metadata: ClusterMetadata | None = None,
    ) -> None:
        bootstrap = [(str(h), int(p)) for h, p in bootstrap]
        if not bootstrap:
            raise ValidationError("bootstrap needs at least one (host, port) address")
        self._bootstrap = bootstrap
        self.connect_timeout = float(connect_timeout)
        self.op_timeout = float(op_timeout)
        self.max_attempts = max(1, int(max_attempts))
        self.reconnect_backoff_ms = float(reconnect_backoff_ms)
        self._max_backoff_s = 2.0
        self.link = link
        self._tracer = tracer
        self.max_in_flight_requests = int(max_in_flight_requests)
        self.name = f"cluster://{bootstrap[0][0]}:{bootstrap[0][1]}"
        self.coordinator = CoordinatorClient(self)
        #: Successful metadata refreshes (bootstrap + re-routes).
        self.metadata_refreshes = 0
        self._fault_injector = None
        self._remotes: dict[tuple, RemoteBroker] = {}
        self._remotes_lock = threading.Lock()
        self._closed = False
        self._meta: ClusterMetadata | None = metadata
        if self._meta is None:
            self.refresh_metadata()

    # -- metadata ------------------------------------------------------------

    @property
    def metadata(self) -> ClusterMetadata:
        return self._meta

    @property
    def num_shards(self) -> int:
        return self._meta.num_shards

    @property
    def epoch(self) -> int:
        return self._meta.epoch

    def describe_cluster(self) -> dict:
        return self._meta.to_wire()

    def find_coordinator(self, group: str) -> dict:
        meta = self._meta
        idx = meta.coordinator_index(group)
        host, port = meta.shards[idx]
        return {"shard": idx, "host": host, "port": port, "epoch": meta.epoch}

    def refresh_metadata(self) -> ClusterMetadata:
        """Re-fetch the shard map from any responsive shard.

        Walks current shards first, then the bootstrap list; accepts only
        maps at least as new as the one held (epochs never go backwards).
        When nobody answers, the stale map is kept — the bounded retry
        loops above this decide when to give up.
        """
        candidates: list[tuple] = []
        meta = self._meta
        if meta is not None:
            candidates.extend(meta.shards)
        for addr in self._bootstrap:
            if addr not in candidates:
                candidates.append(addr)
        last_exc: Exception | None = None
        for addr in candidates:
            try:
                fresh = ClusterMetadata.from_wire(
                    self._remote(addr).describe_cluster()
                )
            except (BrokerError, ConnectionError, OSError) as exc:
                last_exc = exc
                continue
            if meta is None or fresh.epoch >= meta.epoch:
                self._meta = fresh
                self.metadata_refreshes += 1
                return fresh
        if meta is not None:
            return meta
        raise DisconnectedError(
            f"could not bootstrap cluster metadata from {candidates}: {last_exc}"
        ) from last_exc

    # -- connections ---------------------------------------------------------

    def _remote(self, address: tuple) -> RemoteBroker:
        with self._remotes_lock:
            if self._closed:
                raise DisconnectedError(f"{self.name} is closed")
            remote = self._remotes.get(address)
        if remote is not None:
            return remote
        host, port = address
        remote = RemoteBroker(
            host,
            port,
            connect_timeout=self.connect_timeout,
            op_timeout=self.op_timeout,
            max_attempts=self.max_attempts,
            reconnect_backoff_ms=self.reconnect_backoff_ms,
            max_in_flight_requests=self.max_in_flight_requests,
            link=self.link,
            tracer=self._tracer,
        )
        remote.fault_injector = self._fault_injector
        with self._remotes_lock:
            if self._closed:
                remote.close()
                raise DisconnectedError(f"{self.name} is closed")
            existing = self._remotes.setdefault(address, remote)
        if existing is not remote:
            remote.close()
        return existing

    @property
    def fault_injector(self):
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        self._fault_injector = injector
        with self._remotes_lock:
            remotes = list(self._remotes.values())
        for remote in remotes:
            remote.fault_injector = injector

    def close(self) -> None:
        with self._remotes_lock:
            self._closed = True
            remotes, self._remotes = list(self._remotes.values()), {}
        for remote in remotes:
            remote.close()

    def __enter__(self) -> "ClusterBroker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- routing core --------------------------------------------------------

    _backoff = RemoteBroker._backoff  # same capped schedule as one connection

    def _invoke(self, pick, fn, replayable: bool = True):
        """Route one op: pick a shard from the current map, run it, and
        on NotOwner / connection loss refresh metadata and re-route.

        A ``NotOwnerError`` is always retried (the shard rejected the op
        before applying it); transport failures are retried only for
        replayable ops — the same rule :class:`RemoteBroker` applies to
        its own reconnects.
        """
        last_exc: Exception | None = None
        for attempt in range(self.max_attempts):
            self._backoff(attempt)
            try:
                remote = self._remote(pick(self._meta))
            except (ConnectionError, OSError) as exc:
                last_exc = exc
                self.refresh_metadata()
                continue
            try:
                return fn(remote)
            except RemoteRetriableError as exc:
                if exc.error_name != "NotOwnerError":
                    raise
                last_exc = exc
                self.refresh_metadata()
                continue
            except (DisconnectedError, BrokerTimeoutError) as exc:
                last_exc = exc
                if not replayable:
                    raise
                self.refresh_metadata()
                continue
        if isinstance(last_exc, BrokerError):
            raise last_exc
        raise DisconnectedError(
            f"op failed after {self.max_attempts} routed attempts on "
            f"{self.name}: {last_exc}"
        ) from last_exc

    def _any_invoke(self, fn):
        """Run *fn* against any responsive shard (topic metadata, etc.)."""
        last_exc: Exception | None = None
        for attempt in range(self.max_attempts):
            self._backoff(attempt)
            for addr in self._meta.shards:
                try:
                    return fn(self._remote(addr))
                except (
                    RemoteRetriableError,
                    DisconnectedError,
                    BrokerTimeoutError,
                    ConnectionError,
                    OSError,
                ) as exc:
                    last_exc = exc
                    continue
            self.refresh_metadata()
        raise DisconnectedError(
            f"no shard answered after {self.max_attempts} sweeps on "
            f"{self.name}: {last_exc}"
        ) from last_exc

    def _ask_shard(self, index: int, fn):
        """``fn(remote)`` on the shard at *index*; ``None`` when it is out
        of range or does not answer."""
        shards = self._meta.shards
        if not 0 <= index < len(shards):
            return None
        try:
            return fn(self._remote(shards[index]))
        except (BrokerError, ConnectionError, OSError):
            return None

    def _call_op(self, spec: Op, bound: dict):
        """Send one table op where its routing key says it goes.

        The request is encoded once; each routed attempt re-sends the
        same frame through the chosen shard's :class:`RemoteBroker`
        (whose pipelining, deadlines and replay rule apply unchanged).
        """
        fields, blobs = spec.request(bound)

        def send(remote):
            return remote._roundtrip(spec, fields, blobs)

        if spec.route == "every-shard":
            # Shards that do not answer are left out of the fold.
            answers = {
                index: spec.response(*raw, fields)
                for index in range(self.num_shards)
                if (raw := self._ask_shard(index, send)) is not None
            }
            return spec.merge(self, answers)
        if spec.route == "partition":
            raw = self._invoke(
                lambda m: m.owner(fields["topic"], fields["partition"]),
                send,
                spec.replayable(fields),
            )
        elif spec.route == "group":
            key = fields[spec.fields[0].name]
            raw = self._invoke(lambda m: m.coordinator(key), send, spec.replayable(fields))
        else:
            raw = self._any_invoke(send)
        return spec.response(*raw, fields)

    # -- hand-routed ops (see _HAND_ROUTED) ------------------------------------

    def create_topic(self, name: str, num_partitions: int = 1, exist_ok: bool = False):
        """Create the topic on *every* shard (full partition set each —
        ownership is enforced per op, not per log). Unlike the folded
        every-shard reads, every shard must succeed."""
        out = None
        for index, addr in enumerate(self._meta.shards):
            topic = self._remote(addr).create_topic(
                name,
                num_partitions=num_partitions,
                # Only the first shard honours the caller's exist_ok so a
                # duplicate create fails exactly once, like one broker.
                exist_ok=exist_ok if index == 0 else True,
            )
            out = out if out is not None else topic
        return out

    def consumer_lag(self, group) -> dict:
        """Cluster-wide lag: committed offsets from the group's
        coordinator shard merged with every shard's partition depths
        (no single shard sees both sides for foreign partitions)."""
        committed = self.committed_offsets(group)
        topics = self.coordinator.group_topics(group)
        depths = self.partition_depths()
        partitions = set(committed)
        for tp in depths:
            if tp[0] in topics:
                partitions.add(tp)
        lag: dict[tuple, int] = {}
        for tp in partitions:
            depth = depths.get(tp)
            if depth is None:
                continue
            base = committed.get(tp)
            if base is None:
                base = depth["end_offset"] - depth["depth"]
            lag[tp] = max(0, depth["end_offset"] - base)
        return lag

    append = Broker.append  # a single record is a batch of one

    def committed_offsets(self, group):
        return self.coordinator.committed_offsets(group)

    # -- telemetry ------------------------------------------------------------

    @property
    def requests_in_flight(self) -> int:
        with self._remotes_lock:
            remotes = list(self._remotes.values())
        return sum(r.requests_in_flight for r in remotes)

    @property
    def requests_sent(self) -> int:
        with self._remotes_lock:
            remotes = list(self._remotes.values())
        return sum(r.requests_sent for r in remotes)

    # -- per-shard views of the shard-index ops ---------------------------------

    def _ask_every_shard(self, fn) -> dict:
        return {index: self._ask_shard(index, fn) for index in range(self.num_shards)}

    def metrics_snapshots(self) -> dict:
        """``{shard_index: metrics_snapshot | None}`` across the cluster.

        Unreachable shards map to ``None`` (not absent) so the
        aggregator can tell "shard down" from "shard never existed".
        """
        return self._ask_every_shard(lambda r: r.metrics_snapshot())

    def shard_events(self, index: int, since: int = 0) -> dict | None:
        """One shard's ``events_since`` payload (``None`` if unreachable)."""
        return self._ask_shard(index, lambda r: r.events_since(since))

    def events_snapshots(self, cursors: dict | None = None) -> dict:
        """``{shard_index: events_since payload | None}`` for the whole
        cluster, each shard drained past its cursor in *cursors*."""
        cursors = cursors or {}
        return {
            index: self.shard_events(index, int(cursors.get(index, 0)))
            for index in range(self.num_shards)
        }

    def shard_spans(self, index: int, since: int = 0) -> dict | None:
        """One shard's ``trace_spans`` payload (``None`` if unreachable)."""
        return self._ask_shard(index, lambda r: r.trace_spans(since))

    def span_snapshots(self, cursors: dict | None = None) -> dict:
        """``{shard_index: trace_spans payload | None}`` across the cluster."""
        cursors = cursors or {}
        return {
            index: self.shard_spans(index, int(cursors.get(index, 0)))
            for index in range(self.num_shards)
        }

    def __repr__(self) -> str:
        meta = self._meta
        shards = meta.num_shards if meta is not None else 0
        return f"ClusterBroker({self.name!r}, shards={shards})"


#: Table ops :class:`ClusterBroker` answers by hand instead of by routing
#: key: ``create_topic`` is every-shard but strict (no fold — every shard
#: must succeed), ``consumer_lag`` is composed from other ops because no
#: single shard sees both offsets and depths, and the two metadata ops
#: are answered from the client's cached shard map.
_HAND_ROUTED = ("create_topic", "consumer_lag", "describe_cluster", "find_coordinator")

# shard-index ops name their shard; they surface as the per-shard views
# above, not as routed methods.
install_stubs(
    ClusterBroker,
    unless=_HAND_ROUTED
    + tuple(op.method for op in OPS.values() if op.route == "shard-index"),
)


# -- bootstrap ---------------------------------------------------------------


def connect_bootstrap(addresses, **kwargs):
    """Connect to whatever is listening at *addresses*.

    Tries each address in order, skipping ones that are down (the
    fall-through producers/consumers use for their ``bootstrap=`` lists).
    If the responder speaks ``describe_cluster`` the result is a
    :class:`ClusterBroker` over the full shard map; a plain single
    broker (which answers ``unknown op``) yields an ordinary
    :class:`RemoteBroker`. That downgrade is kept on purpose: a plain
    ``BrokerServer(Broker())`` is a shape the benchmark ladder and the
    tests deploy, not a legacy peer. *kwargs* are forwarded to the
    client constructor.
    """
    addresses = [(str(h), int(p)) for h, p in addresses]
    if not addresses:
        raise ValidationError("bootstrap needs at least one (host, port) address")
    last_exc: Exception | None = None
    for host, port in addresses:
        try:
            probe = RemoteBroker(host, port, **kwargs)
        except (ConnectionError, OSError) as exc:
            last_exc = exc
            continue
        try:
            described = probe.describe_cluster()
        except RemoteBrokerError as exc:
            if exc.error_name == "ValidationError":
                # A plain broker: no cluster ops, use it directly.
                return probe
            probe.close()
            last_exc = exc
            continue
        except (DisconnectedError, BrokerTimeoutError, ConnectionError, OSError) as exc:
            probe.close()
            last_exc = exc
            continue
        probe.close()
        return ClusterBroker(
            addresses,
            metadata=ClusterMetadata.from_wire(described),
            **kwargs,
        )
    raise DisconnectedError(
        f"no broker reachable at any of {addresses}: {last_exc}"
    ) from last_exc
