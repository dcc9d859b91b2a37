"""Consumer client: group membership, polling, offset management.

A consumer either subscribes through a consumer group (partitions are
assigned by the coordinator and rebalanced as members come and go) or is
manually assigned partitions with :meth:`assign` — both modes exist in
Kafka and both are used by the pipeline (grouped consumers for the
processing tier, manual assignment for monitoring taps).
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.broker.broker import Broker
from repro.broker.errors import BrokerError, RebalanceInProgressError, UnknownMemberError
from repro.broker.message import Record
from repro.util.ids import new_id
from repro.util.validation import ValidationError, check_non_negative, check_positive


class _Prefetcher:
    """Background fetchers that keep a bounded buffer per partition.

    One daemon thread per assigned partition issues long-poll fetches
    (overlapping network wait across partitions and with the consumer's
    processing), bounded by ``batches * max_records`` records per
    partition and ``max_buffer_bytes`` across all buffers.

    Invariant: a partition's buffer is contiguous and starts exactly at
    the consumer's next offset. Anything that breaks it — a seek, a
    rebalance resetting positions to committed offsets, a revoked
    partition — evicts the buffer (counted in ``prefetch_evictions``),
    and an in-flight fetch that raced the reset is detected by its start
    offset no longer matching ``_fetch_pos`` and dropped. Buffered
    records are therefore never delivered across an assignment boundary.
    """

    def __init__(
        self,
        broker,
        batches: int,
        max_buffer_bytes: int,
        min_bytes: int,
        max_wait_s: float,
        max_records: int = 64,
    ) -> None:
        self._broker = broker
        self._batches = max(1, int(batches))
        self._max_records = max(1, int(max_records))
        self._max_buffer_bytes = int(max_buffer_bytes)
        self._min_bytes = max(1, int(min_bytes))
        self._max_wait_s = max(0.01, float(max_wait_s))
        self._cond = threading.Condition()
        self._buffers: dict[tuple, deque] = {}
        self._buffer_bytes: dict[tuple, int] = {}
        self._fetch_pos: dict[tuple, int] = {}
        self._threads: dict[tuple, threading.Thread] = {}
        self._buffered_bytes = 0
        #: Running estimate used to size fetches against the byte budget
        #: before the records (and their sizes) are in hand.
        self._avg_record_bytes = 0.0
        self._stopped = False
        # Telemetry (folded into Consumer.stats / pipeline counters).
        self.prefetch_hits = 0
        self.prefetch_evictions = 0
        self.fetch_errors = 0
        self.fetches_in_flight = 0
        self.max_fetches_in_flight = 0

    @property
    def buffered_records(self) -> int:
        with self._cond:
            return sum(len(b) for b in self._buffers.values())

    def sync(
        self,
        assignment: list[tuple],
        positions: dict[tuple, int],
        max_records: int | None = None,
    ) -> None:
        """Reconcile fetch threads and buffers with the consumer state."""
        with self._cond:
            if self._stopped:
                return
            if max_records is not None:
                # Track the caller's poll batch size so "batches" of
                # prefetch depth mean batches the consumer actually takes.
                self._max_records = max(1, int(max_records))
            current = set(assignment)
            # Revoked partitions: drop buffers and signal their threads
            # (each thread exits when it is no longer the registered one).
            for tp in [t for t in self._threads if t not in current]:
                del self._threads[tp]
            for tp in [t for t in self._fetch_pos if t not in current]:
                self._evict_locked(tp)
                del self._fetch_pos[tp]
            for tp in current:
                pos = positions[tp]
                buf = self._buffers.get(tp)
                if buf:
                    if buf[0].offset != pos:
                        # Seek or position reset: buffered range is stale.
                        self._evict_locked(tp)
                        self._fetch_pos[tp] = pos
                elif self._fetch_pos.get(tp, pos) != pos:
                    # Empty buffer but diverged fetch cursor (seek raced
                    # an in-flight fetch): resetting it also invalidates
                    # that fetch's results on arrival.
                    self._fetch_pos[tp] = pos
                thread = self._threads.get(tp)
                if thread is None or not thread.is_alive():
                    self._fetch_pos.setdefault(tp, pos)
                    thread = threading.Thread(
                        target=self._run,
                        args=(tp,),
                        name=f"prefetch-{tp[0]}-{tp[1]}",
                        daemon=True,
                    )
                    self._threads[tp] = thread
                    thread.start()

    def take(self, tp: tuple, position: int, budget: int) -> list:
        """Pop up to *budget* buffered records starting at *position*."""
        with self._cond:
            buf = self._buffers.get(tp)
            if not buf or buf[0].offset != position:
                return []
            over_before = self._buffered_bytes >= self._max_buffer_bytes
            if len(buf) <= int(budget):
                # Whole-buffer fast path: hand the deque over in one
                # move and settle the byte accounting from the cached
                # per-partition total.
                out = list(buf)
                buf.clear()
                taken = self._buffer_bytes.get(tp, 0)
                self._buffer_bytes[tp] = 0
            else:
                out = [buf.popleft() for _ in range(int(budget))]
                taken = sum(r.size for r in out)
                self._buffer_bytes[tp] -= taken
            self._buffered_bytes -= taken
            self.prefetch_hits += len(out)
            # Wake parked fetchers only when the buffer actually needs a
            # refill (below one poll batch) or the byte budget was the
            # thing parking them. Waking on every take makes the fetcher
            # ping-pong one batch per poll; letting the buffer drain
            # first batches refills into one headroom-sized fetch and
            # one thread handoff per buffer, which is what keeps the
            # in-proc (zero-RTT) overhead low.
            if len(buf) < self._max_records or over_before:
                self._cond.notify_all()
            return out

    def wait_data(self, timeout: float) -> None:
        """Block until a fetch thread lands records (or *timeout*)."""
        with self._cond:
            self._cond.wait(timeout)

    def _evict_locked(self, tp: tuple) -> None:
        buf = self._buffers.pop(tp, None)
        if buf:
            self.prefetch_evictions += len(buf)
            self._buffered_bytes -= self._buffer_bytes.get(tp, 0)
            self._cond.notify_all()
        self._buffer_bytes.pop(tp, None)

    def _run(self, tp: tuple) -> None:
        me = threading.current_thread()
        while True:
            with self._cond:
                while True:
                    if self._stopped or self._threads.get(tp) is not me:
                        return
                    buf = self._buffers.get(tp)
                    full = (
                        buf is not None
                        and len(buf) >= self._batches * self._max_records
                    ) or self._buffered_bytes >= self._max_buffer_bytes
                    if not full:
                        break
                    # Byte-budget backpressure: park until poll drains.
                    self._cond.wait(0.1)
                offset = self._fetch_pos[tp]
                # Size the fetch to the full remaining headroom, not one
                # poll batch: a consumer that drained the buffer gets it
                # refilled in one broker round trip (and one thread
                # handoff) instead of batch-by-batch ping-pong. The byte
                # budget is enforced predictively through the running
                # average record size; until one is known, probe with a
                # single batch.
                buf = self._buffers.get(tp)
                want = self._batches * self._max_records - (
                    len(buf) if buf is not None else 0
                )
                want = max(1, want)
                if self._avg_record_bytes > 0:
                    byte_room = self._max_buffer_bytes - self._buffered_bytes
                    want = min(
                        want, max(1, int(byte_room / self._avg_record_bytes))
                    )
                else:
                    want = min(want, self._max_records)
                self.fetches_in_flight += 1
                if self.fetches_in_flight > self.max_fetches_in_flight:
                    self.max_fetches_in_flight = self.fetches_in_flight
            batch, failed = [], False
            try:
                batch = self._broker.fetch(
                    tp[0],
                    tp[1],
                    offset,
                    max_records=want,
                    timeout=self._max_wait_s,
                    min_bytes=self._min_bytes,
                )
            except BrokerError:
                failed = True
            except (ConnectionError, OSError):
                failed = True
            finally:
                with self._cond:
                    self.fetches_in_flight -= 1
            with self._cond:
                if self._stopped or self._threads.get(tp) is not me:
                    if batch:
                        self.prefetch_evictions += len(batch)
                    return
                if self._fetch_pos.get(tp) != offset:
                    # A seek/rebalance moved the cursor while this fetch
                    # was in flight; its records are stale.
                    if batch:
                        self.prefetch_evictions += len(batch)
                    continue
                if failed:
                    self.fetch_errors += 1
                    # Transient (reconnecting transport, truncated offset
                    # being re-resolved, or a replicated partition mid-
                    # failover — the cluster client re-routes to the new
                    # leader underneath us): back off briefly, then retry.
                    self._cond.wait(0.05)
                    continue
                if batch:
                    batch_bytes = sum(r.size for r in batch)
                    self._buffers.setdefault(tp, deque()).extend(batch)
                    self._buffer_bytes[tp] = (
                        self._buffer_bytes.get(tp, 0) + batch_bytes
                    )
                    self._buffered_bytes += batch_bytes
                    self._avg_record_bytes = batch_bytes / len(batch)
                    self._fetch_pos[tp] = batch[-1].offset + 1
                    self._cond.notify_all()

    def close(self) -> None:
        """Stop and join every fetch thread; drop all buffers."""
        with self._cond:
            self._stopped = True
            threads = list(self._threads.values())
            self._threads.clear()
            for tp in list(self._buffers):
                self._evict_locked(tp)
            self._cond.notify_all()
        for thread in threads:
            thread.join(timeout=self._max_wait_s + 1.0)

    def stats(self) -> dict:
        with self._cond:
            return {
                "prefetch_hits": self.prefetch_hits,
                "prefetch_evictions": self.prefetch_evictions,
                "prefetch_buffered_records": sum(
                    len(b) for b in self._buffers.values()
                ),
                "prefetch_buffered_bytes": self._buffered_bytes,
                "prefetch_fetch_errors": self.fetch_errors,
                "max_fetches_in_flight": self.max_fetches_in_flight,
            }


class Consumer:
    """Client for fetching records from a broker.

    Parameters
    ----------
    broker:
        The broker to consume from.
    group_id:
        Consumer-group name; ``None`` for standalone (manual-assign) use.
        A partition the group has no committed offset for starts at its
        earliest offset.
    session_timeout_ms:
        Failure-detection window registered with the group coordinator:
        if this consumer stops heartbeating for longer, the coordinator
        evicts it and rebalances its partitions to the survivors.
        Every ``poll`` sends one heartbeat, so any consumer that keeps
        polling stays alive. ``None`` uses the coordinator's default; 0
        disables eviction.
    fetch_prefetch_batches:
        When > 0, a background fetcher per assigned partition keeps up to
        this many batches (of ``poll``'s default batch size) buffered
        ahead of the consumer, overlapping fetch latency with processing.
        0 (the default) fetches synchronously inside ``poll``.
    fetch_max_buffer_bytes:
        Global byte budget across all prefetch buffers; fetchers park
        when it is reached (backpressure), resuming as ``poll`` drains.
    fetch_min_bytes / fetch_max_wait_ms:
        Long-poll fetch contract forwarded to the broker: every fetch
        with a timeout waits server-side until *fetch_min_bytes* of
        payload (or a full batch) is available, instead of answering
        with less. *fetch_max_wait_ms* bounds only the prefetcher's
        parked fetches; a synchronous ``poll`` waits up to its own
        *timeout*.
    """

    def __init__(
        self,
        broker: Broker | None = None,
        group_id: str | None = None,
        client_id: str | None = None,
        session_timeout_ms: float | None = None,
        fetch_prefetch_batches: int = 0,
        fetch_max_buffer_bytes: int = 64 * 1024 * 1024,
        fetch_min_bytes: int = 1,
        fetch_max_wait_ms: float = 500.0,
        tracer=None,
        trace_site: str = "",
        bootstrap=None,
    ) -> None:
        if session_timeout_ms is not None:
            check_non_negative("session_timeout_ms", session_timeout_ms)
        check_non_negative("fetch_prefetch_batches", fetch_prefetch_batches)
        check_positive("fetch_max_buffer_bytes", fetch_max_buffer_bytes)
        check_positive("fetch_min_bytes", fetch_min_bytes)
        check_non_negative("fetch_max_wait_ms", fetch_max_wait_ms)
        if (broker is None) == (bootstrap is None):
            raise ValidationError("provide exactly one of broker= or bootstrap=")
        # A bootstrap list connects to whatever answers first — a sharded
        # cluster or a plain single broker — and the consumer owns (and
        # closes) the resulting client handle.
        self._owns_broker = bootstrap is not None
        if bootstrap is not None:
            from repro.broker.cluster import connect_bootstrap

            broker = connect_bootstrap(bootstrap)
        self._broker = broker
        self.group_id = group_id
        self.client_id = client_id or new_id("consumer")
        self._subscribed_topics: list[str] = []
        self._generation = -1
        self._assignment: list[tuple] = []
        #: (topic, partition) -> next offset to fetch
        self._positions: dict[tuple, int] = {}
        self._closed = False
        self.session_timeout_ms = session_timeout_ms
        # Consume-side metrics.
        self.records_consumed = 0
        self.bytes_consumed = 0
        self.heartbeats_sent = 0
        #: Times this consumer discovered it had been evicted (a missed
        #: session deadline) and had to re-join the group.
        self.evictions = 0
        self.rebalances = 0
        self.fetch_min_bytes = int(fetch_min_bytes)
        self.fetch_max_wait_ms = float(fetch_max_wait_ms)
        #: Optional :class:`repro.monitoring.Tracer`. When set, every
        #: delivered record that carries a propagated trace context gets a
        #: ``consumer.poll`` span — the downlink leg of the message tree.
        self._tracer = tracer
        self._trace_site = trace_site or (client_id or "consumer")
        self._prefetcher = (
            _Prefetcher(
                broker,
                batches=int(fetch_prefetch_batches),
                max_buffer_bytes=int(fetch_max_buffer_bytes),
                min_bytes=int(fetch_min_bytes),
                max_wait_s=float(fetch_max_wait_ms) / 1000.0,
            )
            if fetch_prefetch_batches > 0
            else None
        )

    # -- subscription -----------------------------------------------------

    def subscribe(self, topics: list[str] | str) -> None:
        """Join the consumer group for *topics*."""
        if self.group_id is None:
            raise ValidationError("subscribe() requires a group_id; use assign() instead")
        if isinstance(topics, str):
            topics = [topics]
        self._check_open()
        self._subscribed_topics = list(topics)
        self._join()
        self._refresh_assignment()

    def _join(self) -> None:
        kwargs = {}
        if self.session_timeout_ms is not None:
            kwargs["session_timeout_ms"] = self.session_timeout_ms
        self._broker.coordinator.join(
            self.group_id,
            self.client_id,
            self._subscribed_topics,
            **kwargs,
        )

    def assign(self, partitions: list[tuple]) -> None:
        """Manually assign ``(topic, partition)`` pairs (no group)."""
        self._check_open()
        if self.group_id is not None and self._subscribed_topics:
            raise ValidationError("cannot mix subscribe() and assign()")
        for topic, partition in partitions:
            # Validate against partition count (works for local topics
            # and remote topic proxies alike).
            n = self._broker.topic(topic).num_partitions
            if not 0 <= partition < n:
                from repro.broker.errors import UnknownPartitionError

                raise UnknownPartitionError(topic, partition)
        self._assignment = sorted(partitions)
        self._init_positions()

    def _refresh_assignment(self) -> None:
        generation, assignment = self._broker.coordinator.assignment(
            self.group_id, self.client_id
        )
        if generation != self._generation:
            if self._generation >= 0:
                self.rebalances += 1
            self._generation = generation
            self._assignment = assignment
            self._init_positions()

    def _init_positions(self) -> None:
        positions: dict[tuple, int] = {}
        for tp in self._assignment:
            if tp in self._positions:
                positions[tp] = self._positions[tp]
                continue
            committed = (
                self._broker.committed_offset(self.group_id, *tp)
                if self.group_id
                else None
            )
            positions[tp] = (
                committed
                if committed is not None
                else self._broker.earliest_offset(*tp)
            )
        self._positions = positions

    @property
    def assignment(self) -> list[tuple]:
        return list(self._assignment)

    def position(self, topic: str, partition: int) -> int | None:
        return self._positions.get((topic, partition))

    def seek(self, topic: str, partition: int, offset: int) -> None:
        tp = (topic, partition)
        if tp not in self._positions:
            raise ValidationError(f"{tp} is not assigned to this consumer")
        self._positions[tp] = int(offset)

    # -- polling ------------------------------------------------------------

    def poll(self, max_records: int = 64, timeout: float = 0.0) -> list[Record]:
        """Fetch up to *max_records* across assigned partitions.

        Returns :class:`Record` objects. Blocks up to *timeout* seconds
        when no data is available on any partition.
        """
        check_positive("max_records", max_records)
        self._check_open()
        if self.group_id is not None and self._subscribed_topics:
            # One heartbeat per poll: it renews the lease, and its answer
            # is the generation, so a rebalance is seen on this poll.
            try:
                generation = self._broker.coordinator.heartbeat(
                    self.group_id, self.client_id
                )
            except UnknownMemberError:
                # Evicted: re-join; this round returns empty so the caller
                # observes the boundary (positions reset to committed).
                self.evictions += 1
                self._join()
                self._refresh_assignment()
                return []
            self.heartbeats_sent += 1
            if generation != self._generation:
                self._refresh_assignment()
        if not self._assignment:
            return []

        if self._prefetcher is not None:
            # Reconcile fetcher threads/buffers with assignment and
            # positions before reading: this is where seeks, rebalances
            # and revocations invalidate buffered records.
            self._prefetcher.sync(self._assignment, self._positions, int(max_records))
        if timeout > 0 and self._prefetcher is None and len(self._assignment) == 1:
            # One partition and willing to wait: block directly inside
            # that partition's fetch (works locally and over the wire).
            # The long-poll answers at once when records are there, so a
            # non-blocking pass first would only add a round trip — and,
            # on a replicated leader, hide this consumer from the
            # replicator, which ships on demand to parked fetches.
            tp = self._assignment[0]
            batch = self._broker.fetch(
                *tp,
                self._positions[tp],
                max_records=int(max_records),
                timeout=timeout,
                min_bytes=self.fetch_min_bytes,
            )
            if batch:
                self._positions[tp] = batch[-1].offset + 1
            return self._account(batch)
        out = self._fetch_ready(int(max_records))
        if out or timeout <= 0:
            return self._account(out)
        if self._prefetcher is not None:
            # Block on the prefetcher's condition; fetch threads notify
            # as soon as any partition's buffer gains records.
            deadline = time.monotonic() + timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._prefetcher.wait_data(remaining)
                out = self._fetch_ready(int(max_records))
                if out:
                    return self._account(out)
        # Blocking pass over several partitions: we must wake on data
        # arriving on *any* of them — waiting on only the first would
        # leave records landing on the others stuck for the full timeout.
        logs = self._partition_logs()
        if logs is not None:
            return self._account(
                self._poll_blocking_local(logs, int(max_records), timeout)
            )
        return self._account(self._poll_blocking_sliced(int(max_records), timeout))

    def _fetch_ready(self, max_records: int) -> list[Record]:
        """One non-blocking round-robin pass over assigned partitions.

        With prefetching enabled this reads exclusively from the
        prefetch buffers — going to the broker directly here would race
        the fetcher threads on the same offsets.
        """
        out: list[Record] = []
        budget = max_records
        for tp in self._assignment:
            if budget <= 0:
                break
            if self._prefetcher is not None:
                batch = self._prefetcher.take(tp, self._positions[tp], budget)
            else:
                batch = self._broker.fetch(*tp, self._positions[tp], max_records=budget)
            if batch:
                self._positions[tp] = batch[-1].offset + 1
                out.extend(batch)
                budget -= len(batch)
        return out

    def _account(self, records: list[Record]) -> list[Record]:
        for r in records:
            self.records_consumed += 1
            self.bytes_consumed += r.size
        if self._tracer is not None and records:
            # Batched span recording: one timestamp and one tracer lock
            # for the whole poll batch instead of per record — this loop
            # dominated the enabled-telemetry overhead benchmark.
            now = time.monotonic()
            hops = []
            for r in records:
                ctx = r.headers.get("trace") if r.headers else None
                if ctx:
                    hops.append((ctx, {"offset": r.offset}))
            if hops:
                self._tracer.record_hops(
                    "consumer.poll", hops, site=self._trace_site, start=now, end=now
                )
        return records

    def _partition_logs(self):
        """Partition-log handles when the broker is in-process, else None."""
        getter = getattr(self._broker, "partition_log", None)
        if getter is None:
            return None
        try:
            return [getter(*tp) for tp in self._assignment]
        except Exception:
            return None

    def _poll_blocking_local(self, logs, max_records: int, timeout: float) -> list[Record]:
        """Block across all assigned partitions via append-wakeup events."""
        deadline = time.monotonic() + timeout
        event = threading.Event()
        for log in logs:
            log.register_waiter(event)
        try:
            while True:
                # Re-check readiness after registering so appends racing
                # the registration are not missed.
                out = self._fetch_ready(max_records)
                if out:
                    return out
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                event.wait(remaining)
                event.clear()
        finally:
            for log in logs:
                log.unregister_waiter(event)

    def _poll_blocking_sliced(self, max_records: int, timeout: float) -> list[Record]:
        """Remote multi-partition fallback: rotate short blocking fetches.

        A remote broker cannot hand out partition-log waiters, so
        fairness comes from time-slicing the timeout across partitions —
        data on any partition is picked up within one slice instead of
        waiting out the full timeout behind partition 0.
        """
        deadline = time.monotonic() + timeout
        slice_s = max(0.01, timeout / (4 * len(self._assignment)))
        while True:
            for tp in self._assignment:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                batch = self._broker.fetch(
                    *tp,
                    self._positions[tp],
                    max_records=max_records,
                    timeout=min(slice_s, remaining),
                    min_bytes=self.fetch_min_bytes,
                )
                if batch:
                    self._positions[tp] = batch[-1].offset + 1
                    return batch

    # -- offsets ----------------------------------------------------------------

    def commit(self) -> None:
        """Commit current positions for all assigned partitions, in one
        coordinator request.

        Raises :class:`RebalanceInProgressError` when this member is no
        longer part of the group (evicted by the session-timeout sweeper
        mid-batch) — its partitions belong to someone else now, so the
        coordinator refuses the commit and writes nothing; the next
        ``poll`` re-joins and refreshes the assignment. A mere generation
        bump with this member still in the group does **not** raise:
        broker-side commits are monotonic, so they can never rewind
        another member's progress.
        """
        if self.group_id is None:
            raise ValidationError("commit() requires a consumer group")
        member = self.client_id if self._subscribed_topics else None
        offsets = [(t, p, offset) for (t, p), offset in self._positions.items()]
        try:
            self._broker.coordinator.commit(self.group_id, member, offsets)
        except UnknownMemberError:
            raise RebalanceInProgressError(
                f"member {self.client_id!r} is no longer in group "
                f"{self.group_id!r}; positions are stale"
            ) from None

    def lag(self) -> dict[tuple, int]:
        """Per-partition lag: records between position and the log head.

        Lag is ``end_offset - position`` per assigned partition, where
        *position* is the next offset :meth:`poll` would deliver.  Three
        consequences the telemetry sampler (and its tests) rely on:

        - **Seek** moves the position, so seeking backwards immediately
          raises lag (those records will be re-delivered).
        - **Rebalance** starts *newly-assigned* partitions at their
          committed offsets (retained partitions keep their in-memory
          positions), so a partition that changes owner re-exposes the
          previous owner's uncommitted progress as the new owner's lag.
        - **Prefetch-buffered** records (fetched by the background
          fetchers but not yet taken by ``poll``) still count as lag —
          the position only advances on delivery, so buffered-but-unseen
          data is correctly reported as outstanding.

        For committed-offset (group-durable) lag, use
        :meth:`Broker.consumer_lag` / the coordinator's
        ``committed_offsets`` accessor instead.
        """
        return {
            tp: max(0, self._broker.latest_offset(*tp) - pos)
            for tp, pos in self._positions.items()
        }

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Leave the group (triggering a rebalance) and stop consuming.

        Prefetch threads are joined (not abandoned) so a closed consumer
        leaves no background fetchers racing its successor's offsets.
        """
        if self._closed:
            return
        if self._prefetcher is not None:
            self._prefetcher.close()
        if self.group_id is not None and self._subscribed_topics:
            self._broker.coordinator.leave(self.group_id, self.client_id)
        self._closed = True
        if self._owns_broker:
            close = getattr(self._broker, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Consumer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ValidationError("consumer is closed")

    def stats(self) -> dict:
        out = {
            "client_id": self.client_id,
            "group_id": self.group_id,
            "records_consumed": self.records_consumed,
            "bytes_consumed": self.bytes_consumed,
            "assignment": list(self._assignment),
            "heartbeats_sent": self.heartbeats_sent,
            "evictions": self.evictions,
            "rebalances": self.rebalances,
        }
        if self._prefetcher is not None:
            out.update(self._prefetcher.stats())
        return out
