"""Leader-side replication: the pump, the ISR and the high-watermark.

The protocol only — no socket, no wall clock, and no thread body beyond
``wake.wait(step())``. :class:`_ShardReplicator` is handed ``now`` (a
``() -> float``, ``time.monotonic`` in production) and a peer transport:
``connect(index) -> peer`` (anything answering ``replica_ack`` /
``replicate_append``) and ``drop(index)`` for a connection that failed.
A test passes a fake clock and the follower shards themselves, and
calls :meth:`_ShardReplicator.step` by hand.
"""

from __future__ import annotations

import threading
import time

from repro.monitoring.tracing import TRACE_HEADER

#: Seconds between two full sweeps (and between two heartbeats to a
#: caught-up follower).
INTERVAL_S = 0.02
#: A follower joins the ISR once it acks within this many records of
#: the leader's log end.
MAX_LAG_RECORDS = 256
#: A follower silent for this long leaves the ISR and the high-watermark.
ISR_TIMEOUT_S = 2.0


class _ShardReplicator:
    """Leader-side replication pump: one background thread per shard.

    Every cycle it walks the partitions this shard currently leads and,
    per follower replica, pushes the records past the follower's last
    acknowledged offset (``replicate_append`` — in production over the
    same wire protocol clients use), naming the idempotent batches among
    them. Ack progress feeds two derived states:

    - the **ISR** — a follower joins once it acks within
      ``MAX_LAG_RECORDS`` of the leader's log end, and is evicted when it
      has not acked for ``ISR_TIMEOUT_S`` (covering both dead processes
      and partitioned links; :meth:`FaultInjector.on_replication` can
      sever a link deterministically for tests);
    - the **high-watermark** — the minimum acked offset across the ISR
      (leader log end when the ISR has shrunk to the leader alone, the
      Kafka rule), installed into the partition log so consumers and
      ``acks="all"`` producers only ever see ISR-covered records.

    Two clocks drive :meth:`step`. *Demand* — whenever somebody is
    waiting for records behind a partition's fence (a parked fetch, an
    ``acks="all"`` producer; see :meth:`ShardBroker._after_append`)
    :meth:`mark_dirty` wakes it, and a cycle so woken pumps the dirty
    partitions only. Batching is self-clocked: whatever was appended
    while a ``replicate_append`` was in flight rides the next one (up
    to the 512-record slice), Kafka's follower-fetch rule, so there is
    no linger setting to tune. *The sweep* — every ``INTERVAL_S`` one
    cycle walks all led partitions instead: records nobody is waiting
    for, heartbeats to caught-up followers, first contact, ISR join and
    evict, leadership moves and progress pruning live there, on a
    deadline of their own that a stream of wakes can neither starve nor
    hurry. A cycle that raises is counted
    (``replication.pump_errors.<type>``) and the pump sits out one
    ``INTERVAL_S``, so a persistent error costs what it did under the
    timer, not one failure per append.
    """

    def __init__(self, shard, peers, now=time.monotonic) -> None:
        self._shard = shard
        self._peers = peers
        self._now = now
        # Resolved once: the per-push path bumps it without a lookup.
        self._ack_latency = shard.registry.histogram(
            "replication.ack_latency_seconds"
        )
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None
        # (topic, partition) -> {follower_index: progress dict}; guarded
        # by _lock only for *structural* changes (status() snapshots).
        self._progress: dict = {}
        # (topic, partition)s marked since the pump last looked; swapped
        # out under _lock (markers race the drain).
        self._dirty: set = set()
        #: now() at which the next full sweep is due.
        self._sweep_at = 0.0
        #: now() until which a failed cycle is being sat out.
        self._resume_at = 0.0
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run,
            name=f"replicator-{self._shard.shard_index}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._stopping.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for index in range(self._shard.num_shards):
            self._peers.drop(index)

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
            self._wake.wait(self.step())

    def step(self) -> float:
        """One cycle, without blocking on the clock: the sweep if it is
        due, else a pump of the partitions marked since the last cycle.
        Returns the seconds until the next cycle is due anyway."""
        # Clear before draining: a mark_dirty racing this cycle either
        # lands in the set drained below or re-sets the event.
        self._wake.clear()
        now = self._now()
        if now < self._resume_at:
            return self._resume_at - now  # marks keep for the cycle after
        with self._lock:
            # Drained either way: a sweep covers every partition.
            dirty, self._dirty = self._dirty, set()
        try:
            if now >= self._sweep_at:
                # Deadline first, then the walk: a wake() racing the
                # sweep re-arms it instead of being overwritten.
                self._sweep_at = now + INTERVAL_S
                self._sweep()
            else:
                self._pump_dirty(dirty)
        except Exception as exc:  # noqa: BLE001 — the pump must survive
            # Anything one cycle throws (metadata mid-swap, topic
            # deleted underneath it) is survivable — the next cycle
            # re-reads the world — but not silent, and not allowed
            # to recur at append rate.
            self._shard.registry.counter(
                f"replication.pump_errors.{type(exc).__name__}"
            ).inc()
            self._resume_at = self._now() + INTERVAL_S
            return INTERVAL_S
        return max(0.0, self._sweep_at - self._now())

    # -- the pump ------------------------------------------------------------

    def _pump_dirty(self, dirty: set) -> None:
        meta = self._shard.cluster_metadata
        for name, partition in dirty:
            # Leadership may have moved since the partition was marked.
            if meta.leader_index(name, partition) == self._shard.shard_index:
                self._pump_partition(name, partition, meta)

    def _sweep(self) -> None:
        shard = self._shard
        meta = shard.cluster_metadata
        led = set()
        for name in shard.list_topics():
            for partition in range(shard.topic(name).num_partitions):
                if meta.leader_index(name, partition) != shard.shard_index:
                    continue
                led.add((name, partition))
                self._pump_partition(name, partition, meta)
        # Drop progress for partitions whose leadership moved away, so a
        # deposed leader's stale ISR never reappears in status().
        with self._lock:
            for tp in [tp for tp in self._progress if tp not in led]:
                del self._progress[tp]

    def _pump_partition(self, name: str, partition: int, meta) -> None:
        shard = self._shard
        log = shard.local_log(name, partition)
        followers = [
            i for i in meta.replica_indices(name, partition) if i != shard.shard_index
        ]
        if not followers:
            log.set_high_watermark(log.latest_offset)
            return
        with self._lock:
            progress = self._progress.setdefault((name, partition), {})
        epoch = meta.partition_epoch(name, partition)
        leader_end = log.latest_offset
        now = self._now()
        for index in followers:
            with self._lock:
                state = progress.setdefault(
                    index, {"acked": None, "last_good": now, "in_isr": False}
                )
            try:
                injector = shard.fault_injector
                if injector is not None:
                    injector.on_replication(shard.shard_index, index)
                peer = self._peers.connect(index)
                if state["acked"] is None:
                    # First contact: resume from the follower's log end,
                    # capped at our *high-watermark* — below it every
                    # replica's content is identical by the ISR
                    # invariant, above it the follower's suffix may
                    # diverge (it could be a deposed leader), so the
                    # first push re-sends from there and truncates the
                    # follower's divergent tail.
                    ack = peer.replica_ack(name, partition)
                    state["acked"] = min(int(ack["log_end"]), log.high_watermark)
                if state["acked"] < leader_end:
                    # The slice's own log end, not the one read above: an
                    # append racing this cycle rides the push, and the
                    # watermark below must be allowed to cover it.
                    records, leader_end, visible, batches = (
                        log.replication_slice(state["acked"])
                    )
                elif now - state["last_good"] >= INTERVAL_S:
                    # Caught up: empty push keeps the follower's
                    # high-watermark (and our liveness view) fresh.
                    # Rate-limited to the timer interval so a burst of
                    # ``acks="all"`` wake-ups does not turn every
                    # caught-up partition into a heartbeat RPC per
                    # client append.
                    records, visible, batches = [], log.high_watermark, []
                else:
                    continue
                push_start = self._now()
                response = peer.replicate_append(
                    name,
                    partition,
                    # A push starts on a batch boundary, which may lie
                    # below the follower's end: it truncates and re-takes.
                    base_offset=records[0].offset if records else state["acked"],
                    records=records,
                    leader=shard.shard_index,
                    leader_epoch=epoch,
                    high_watermark=visible,
                    batches=batches,
                )
                if records:
                    self._ack_latency.observe(self._now() - push_start)
                if response.get("accepted"):
                    state["acked"] = int(response["log_end"])
                    self._trace_acks(records, index, response)
                else:
                    # Gap or divergence (a heartbeat finds it too: the
                    # follower came back with less than it had acked):
                    # re-anchor on its reported end, retry next cycle.
                    state["acked"] = min(int(response.get("log_end", 0)), leader_end)
                state["last_good"] = now
                if (
                    not state["in_isr"]
                    and leader_end - state["acked"] <= MAX_LAG_RECORDS
                ):
                    state["in_isr"] = True
                    shard.events.emit(
                        "isr_join",
                        topic=name,
                        partition=partition,
                        follower=index,
                        lag=max(0, leader_end - state["acked"]),
                        epoch=epoch,
                    )
            except Exception as exc:  # noqa: BLE001 — one follower, not the pump
                # Unreachable / refused / link-partitioned follower — or
                # a bug of ours, which the counter tells apart.
                shard.registry.counter(
                    f"replication.push_errors.{type(exc).__name__}"
                ).inc()
                self._peers.drop(index)
                if state["in_isr"] and now - state["last_good"] > ISR_TIMEOUT_S:
                    state["in_isr"] = False
                    shard.events.emit(
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
        # an ISR_TIMEOUT_S grace window, so ``acks="all"`` cannot ack
        # records that exist nowhere but on a leader whose replicas
        # simply have not caught up yet. Only a follower that stays
        # unresponsive past the window is written off.
        floor = []
        for state in progress.values():
            if state["in_isr"] and state["acked"] is not None:
                floor.append(state["acked"])
            elif not state["in_isr"] and now - state["last_good"] <= ISR_TIMEOUT_S:
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
        tracer = self._shard.tracer
        if tracer is None or not records:
            return
        hwm = response.get("hwm", 0)
        hops = [
            (rec.headers.get(TRACE_HEADER), {"follower": follower, "hwm": hwm})
            for rec in records
            if rec.headers and rec.headers.get(TRACE_HEADER)
        ]
        if hops:
            tracer.record_hops("replication.ack", hops, site=self._shard.name)

    # -- introspection -------------------------------------------------------

    def status(self) -> list:
        shard = self._shard
        meta = shard.cluster_metadata
        out = []
        with self._lock:
            snapshot = [
                (tp, [(i, dict(state)) for i, state in progress.items()])
                for tp, progress in self._progress.items()
            ]
        for (name, partition), entries in sorted(snapshot):
            log = shard.local_log(name, partition)
            leader_end = log.latest_offset
            followers = []
            isr = [shard.shard_index]
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
            expected = len(meta.replica_indices(name, partition))
            out.append(
                {
                    "topic": name,
                    "partition": partition,
                    "leader": shard.shard_index,
                    "epoch": meta.partition_epoch(name, partition),
                    "log_end": leader_end,
                    "high_watermark": log.high_watermark,
                    "isr": sorted(isr),
                    "followers": followers,
                    "under_replicated": len(isr) < expected,
                }
            )
        return out

