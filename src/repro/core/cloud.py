"""The cloud consumer: the body of one processing task (paper Fig. 1, step 3).

A consumer is a member of the run's consumer group. One round
(:meth:`CloudConsumer.step`) is one poll and the records it returned: it
pays the broker→processing link, stamps them, claims each distinct
message id once, decodes and runs ``process_cloud`` — whose reference the
pipeline can swap at runtime, the paper's low/high fidelity model
exchange — and then counts the poll's messages processed, which frees
their room in their devices' windows. It commits every
``_COMMIT_INTERVAL`` records. The consumer reads time only through the
``now`` it is handed and blocks only in ``Consumer.poll``.
"""

from __future__ import annotations

from time import monotonic
from typing import Callable

from repro.broker.consumer import Consumer
from repro.broker.errors import RebalanceInProgressError
from repro.data.serde import decode_block

#: Consumer tasks commit their offsets every this many processed records.
_COMMIT_INTERVAL = 32
#: Max records per consumer poll, and how long (seconds) one poll blocks.
_POLL_BATCH = 8
_POLL_TIMEOUT_S = 0.2


class CloudConsumer:
    """One processing consumer of a run, stepped a poll at a time.

    *functions* returns the current ``(process_edge, process_cloud)``;
    *progress* is the run's shared count: a polled message is claimed, and
    counted processed once its ``process_cloud`` returned or raised;
    *record_error* ``(where, exc)`` keeps a failed message's error.
    """

    def __init__(self, consumer: Consumer, progress, collector, results,
                 functions: Callable[[], tuple], record_error: Callable, *, context,
                 downlink, now=monotonic) -> None:
        self.consumer, self.downlink = consumer, downlink
        self.progress, self.collector, self.results = progress, collector, results
        self.functions, self.record_error = functions, record_error
        self.context = context
        self.now = now
        self.handled = 0
        self._since_commit = 0

    def run(self) -> int:
        """The task body: rounds until the run is done, then one final
        commit; returns records handled."""
        try:
            while not self.progress.done.is_set():
                self.step()
        finally:
            try:
                self.consumer.commit()
            except Exception as exc:  # noqa: BLE001 — teardown goes on;
                # the uncommitted tail is redelivered, and counted.
                self.collector.incr(f"final_commit_errors.{type(exc).__name__}")
            self.consumer.close()
        return self.handled

    def step(self) -> int:
        """One round: one poll and the records it returned, committing
        every ``_COMMIT_INTERVAL`` records; returns how many it polled."""
        records = self.consumer.poll(max_records=_POLL_BATCH, timeout=_POLL_TIMEOUT_S)
        if not records:
            return 0
        self.handled += self._handle_records(records)
        self._since_commit += len(records)
        if self._since_commit >= _COMMIT_INTERVAL:
            try:
                self.consumer.commit()
            except RebalanceInProgressError:
                # Evicted mid-batch: positions are stale, the next
                # poll re-fetches the post-rebalance assignment.
                # At-least-once delivery + the pipeline's dedup
                # absorb the redelivered records.
                self.collector.incr("commits_refused")
            self._since_commit = 0
        return len(records)

    def _handle_records(self, records) -> int:
        """Consume one polled record batch: stamp, claim, decode, score,
        then count the new ones processed together (one wake-up per poll);
        a poll stopped midway releases its claims, so a redelivery runs them.

        Each stage is stamped through ``stamp_many`` (one collector lock
        per batch per stage); each fresh record reaches the user function
        in its own ``process_cloud(context, block)`` call.
        """
        collector = self.collector
        # Normalize the message id to str ONCE: the record.offset
        # fallback is an int, and int-keyed stamps would file the same
        # message under two keys (trace vs processed-set).
        ids = [str(r.headers.get("message_id", r.offset)) for r in records]
        # Queue exit: the records left the broker; downlink transfers
        # happen next.
        collector.stamp_many(ids, "dequeue", self.now())
        if self.downlink is not None:
            alive, dropped = [], []
            for message_id, record in zip(ids, records):
                try:
                    self.downlink.transfer(record.size)
                except ConnectionError:
                    dropped.append((message_id, record.partition))
                else:
                    alive.append((message_id, record))
            if dropped:
                collector.incr("messages_dropped", len(dropped))
                self.progress.count_at_once(*zip(*dropped))
            if not alive:
                return len(records)
        else:
            alive = list(zip(ids, records))
        now = self.now()
        collector.stamp_many([m for m, _ in alive], "consume", now, nbytes=[r.size for _, r in alive],
                             partition=[r.partition for _, r in alive])
        new_flags = self.progress.claim([m for m, _ in alive])
        fresh, sink, duplicates = [], [], 0
        for (message_id, record), is_new in zip(alive, new_flags):
            if record.headers.get("processed"):
                # Edge-centric mode: already processed on-device.
                sink.append(message_id)
            elif is_new:
                fresh.append((message_id, record))
            else:
                duplicates += 1
        if sink:
            collector.stamp_many(sink, "consume_sink", now)
        if duplicates:
            collector.incr("duplicate_deliveries", duplicates)
        try:
            fn = self.functions()[1]
            for message_id, record in fresh:
                self._process_record(message_id, record, fn)
        except BaseException:
            self.progress.release([m for (m, _), new in zip(alive, new_flags) if new])
            raise
        self.progress.count_processed([r.partition for (_, r), new in zip(alive, new_flags) if new])
        return len(records)

    def _process_record(self, message_id: str, record, fn: Callable) -> None:
        """Per-message processing: decode, score, stamp — one user call.
        A record that fails to decode, or whose function raises, poisons
        that one message, not the consumer: record it and keep consuming."""
        try:
            block = decode_block(record.value)
            self.collector.stamp(message_id, "process_start", self.now())
            result = fn(self.context, block)
        except Exception as exc:
            self.collector.incr("processing_errors")
            self.record_error(f"process[{message_id}]", exc)
        else:
            self.collector.stamp(message_id, "process_end", self.now(), nbytes=record.size)
            self.results.append(result)


def consumer_counters(consumers) -> dict:
    """Totals over a run's consumers, read from their own fields (names
    that stayed at zero are left out)."""
    totals = {"heartbeats_missed": 0, "prefetch_hits": 0, "prefetch_evictions": 0}
    for consumer in list(consumers):
        # Each eviction is a missed session deadline observed by
        # the consumer when its next heartbeat bounced.
        totals["heartbeats_missed"] += consumer.evictions
        stats = consumer.stats()
        totals["prefetch_hits"] += stats.get("prefetch_hits", 0)
        totals["prefetch_evictions"] += stats.get("prefetch_evictions", 0)
    return {name: value for name, value in totals.items() if value}


def consumer_gauges(consumers) -> dict:
    peaks = [
        stats["max_fetches_in_flight"]
        for stats in (consumer.stats() for consumer in list(consumers))
        if "max_fetches_in_flight" in stats
    ]
    return {"fetches_in_flight": max(peaks)} if peaks else {}
