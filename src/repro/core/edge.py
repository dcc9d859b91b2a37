"""The edge device: the body of one producer task (paper Fig. 1, step 2).

A device calls ``produce_edge``, optionally applies ``process_edge``
(hybrid / edge placements; edge-centric placement also runs the heavy
function on the device), frames each block in the wire format and
publishes it to the device's partition, paying the edge→broker link when
a topology is configured. One round (:meth:`EdgeDevice.step`) waits for
room in the device's in-flight window, makes every message that room
admits and sends them as one append. The device reads time only through
the ``now`` it is handed and blocks only on the run's :class:`Progress`.
"""

from __future__ import annotations

import threading
from collections import Counter
from time import monotonic
from typing import Any, Callable

from repro.broker.producer import Producer
from repro.data.serde import encode_block

#: A device's batch closes once its payloads reach this many bytes: the
#: store's urgent-flush mark (``_FLUSH_BYTES`` in
#: ``repro.broker.storage.store``, also 1 MiB), past which an append is
#: flushed at once anyway. So a 2.56 MB block always goes alone.
_BATCH_BYTES = 1024 * 1024
#: What ``_make_message`` returns for a message the edge function absorbed.
_ABSORBED = object()


class EdgeDevice:
    """One edge device of a run, stepped a round at a time.

    *functions* returns the current ``(process_edge, process_cloud)``;
    *progress* is the run's shared count of processed messages, which the
    device's in-flight window reads and its absorbed and dropped messages
    add to.
    """

    def __init__(self, index: int, config, producer: Producer, progress, collector,
                 produce_fn: Callable, functions: Callable[[], tuple], *, run_id: str,
                 context, results, decision, uplink, now=monotonic) -> None:
        self.index, self.config, self.run_id = index, config, run_id
        self.producer, self.uplink = producer, uplink
        self.progress, self.collector, self.results = progress, collector, results
        self.produce_fn, self.functions, self.decision = produce_fn, functions, decision
        self.context = context
        self.now = now
        self.made = 0  # messages made so far: sent, dropped or absorbed
        self.sent = 0
        self.ended = False  # the produce function had no more

    def run(self) -> int:
        """The task body: rounds until the device is done, a paced device
        waiting ``produce_interval`` (or an abort) after each batch;
        returns the messages sent."""
        cfg = self.config
        while (count := self.step()) is not None:
            if count and cfg.produce_interval > 0:
                self.progress.aborted.wait(cfg.produce_interval)
        self.producer.close()
        if self.producer.produce_retries:
            self.collector.incr("produce_retries", self.producer.produce_retries)
        return self.sent

    def step(self) -> int | None:
        """One round: wait for room in the window, make every message it
        admits and send them as one append (one request, one idempotent
        ``base_sequence``). A round closes early once it holds
        ``_BATCH_BYTES``; without a window, or when paced, it is one
        message. Returns the batch size, or None once the device is done
        (all made, the produce function went quiet, or the run aborted)."""
        cfg = self.config
        if self.ended or self.made >= cfg.messages_per_device or self.progress.aborted.is_set():
            return None
        room = self._wait_for_room() if cfg.max_inflight > 0 else 1
        if self.progress.aborted.is_set():
            return None
        if cfg.produce_interval > 0:
            room = 1  # paced: one message per append
        first, batch, nbytes = self.made, [], 0
        while len(batch) < room and nbytes < _BATCH_BYTES and self.made < cfg.messages_per_device:
            message = self._make_message(self.made)
            if message is None:
                self.ended = True
                break
            self.made += 1
            if message is not _ABSORBED:
                batch.append(message)
                nbytes += len(message[1])
        if batch:
            self.sent += self._send_batch(batch)
        self.progress.add_produced(self.made - first)
        return len(batch)

    def _wait_for_room(self) -> int:
        """Park until the device has fewer than ``max_inflight`` messages
        made and not yet processed; returns the free room (at least 1).
        The progress object signals every drain, done and abort. One
        stall = one counted wait."""
        progress = self.progress
        stalled = False
        with progress.changed:
            while True:
                room = self.config.max_inflight - (self.made - progress.processed_by(self.index))
                if room > 0 or progress.done.is_set():
                    return max(room, 1)
                if not stalled:
                    stalled = True
                    self.collector.incr("backpressure_waits")
                progress.changed.wait()

    def _make_message(self, seq: int):
        """Make message *seq* of the device: ``(message_id, payload,
        headers)``, ``_ABSORBED`` when the edge function took it, or None
        when the produce function has no more."""
        context, decision = self.context, self.decision
        block = self.produce_fn(context)
        if block is None:
            return None
        message_id = f"{self.run_id}/d{self.index}/m{seq}"
        produce_ts = self.now()
        headers = {"message_id": message_id, "device": f"device-{self.index}"}
        edge_fn, cloud_fn = self.functions()
        if edge_fn is not None and (decision is None or decision.edge_preprocess):
            block = edge_fn(context, block)
            if block is None:
                # Windowing/filtering edge functions absorb messages
                # (nothing to forward yet). Account the message so
                # the run's completion target is still reachable.
                self.collector.incr("messages_absorbed_at_edge")
                self.progress.count_at_once((message_id,), (self.index,))
                return _ABSORBED
        if decision is not None and decision.processing_tier == "edge":
            # Edge-centric placement: the heavy function runs on the
            # device; only its (small) result block crosses the link.
            self.collector.stamp(message_id, "process_start", self.now())
            result = cloud_fn(context, block)
            self.collector.stamp(message_id, "process_end", self.now())
            self.results.append(result)
            block = _result_block(result)
            headers["processed"] = True
        payload = encode_block(block, compress=self.config.compress_wire)
        self.collector.stamp(message_id, "produce", produce_ts, nbytes=len(payload), partition=self.index)
        return message_id, payload, headers

    def _send_batch(self, batch) -> int:
        """Send *batch* ``[(message_id, payload, headers)]`` as one append
        (one uplink transfer, one request); returns the messages sent."""
        cfg = self.config
        ids = [message_id for message_id, _, _ in batch]
        payloads = [payload for _, payload, _ in batch]
        self.collector.stamp_many(ids, "uplink_start", self.now())
        for attempt in range(cfg.producer_retries + 1):
            if attempt:
                # At-least-once mode: the uplink dropped the batch — resend
                # it. Only the uplink is retried here: the producer cannot
                # see it, and it retries a broker failure itself.
                self.collector.incr("produce_retries")
            try:
                if self.uplink is not None:
                    self.uplink.transfer(sum(len(payload) for payload in payloads))
            except ConnectionError:
                continue
            try:
                self.producer.send_many(cfg.topic, payloads, partition=self.index,
                                        headers=[headers for _, _, headers in batch])
            except ConnectionError:
                break  # the producer spent its retries: drop the batch
            self.collector.stamp_many(ids, "broker_in", self.now())
            return len(batch)
        # Lossy-link drop: account for the messages (QoS-0 semantics) so
        # the run can still complete.
        self.collector.incr("messages_dropped", len(batch))
        self.progress.count_at_once(ids, [self.index] * len(ids))
        return 0


class Progress:
    """How far a run is, shared by its devices, its consumers and the
    caller: the message ids claimed, the messages processed (in all and
    per device), the messages made, the completion target, done / abort.

    A polled id is claimed, so a redelivery is not run again, and counts
    as processed once its function has run: until then it holds its
    place in its device's window. Devices park on ``changed`` for room
    and callers for progress: every count, done and abort notifies it.
    """

    def __init__(self, expected: int, devices: int) -> None:
        self._ids: set = set()
        self._processed = 0
        self._per_device: Counter = Counter()
        self._lock = threading.Lock()
        self.changed = threading.Condition()
        self._produced = 0  # messages made, all devices
        # Completion target: the configured total until every device has
        # ended, then what they actually produced.
        self._expected = expected
        self._devices_left = devices
        self.done = threading.Event()
        self.aborted = threading.Event()

    @property
    def processed_count(self) -> int:
        with self._lock:
            return self._processed

    @property
    def produced_count(self) -> int:
        with self._lock:
            return self._produced

    def processed_by(self, device: int) -> int:
        """Messages of *device* (= partition) processed: the count its
        in-flight window reads."""
        with self._lock:
            return self._per_device[device]

    def add_produced(self, count: int) -> None:
        with self._lock:
            self._produced += count

    def claim(self, message_ids) -> list[bool]:
        """Claim a batch of polled message ids under one lock acquisition;
        returns, per id, whether it was new (first delivery)."""
        flags = []
        with self._lock:
            for message_id in message_ids:
                flags.append(message_id not in self._ids)
                self._ids.add(message_id)
        return flags

    def release(self, message_ids) -> None:
        """Unclaim ids a stopped poll claimed and never counted: a redelivery runs them."""
        with self._lock:
            self._ids.difference_update(message_ids)

    def count_processed(self, devices) -> None:
        """Count a batch of processed messages, one device (= partition)
        each, under one lock acquisition. Signals ``changed`` after the
        lock is released: a parked device reads the counts (which take
        that lock) while holding the condition."""
        if not devices:
            return
        with self._lock:
            self._per_device.update(devices)
            self._processed += len(devices)
            if self._processed >= self._expected:
                self.done.set()
        with self.changed:
            self.changed.notify_all()

    def count_at_once(self, message_ids, devices) -> None:
        """Claim and count messages absorbed at the edge or dropped on a link."""
        new = self.claim(message_ids)
        self.count_processed([device for device, fresh in zip(devices, new) if fresh])

    def device_ended(self, _future=None) -> None:
        """Done-callback of every producer task (returned, went quiet
        early or raised). After the last one nothing more will arrive, so
        the run ends when what was produced is processed instead of
        waiting out ``max_duration`` for messages that never existed."""
        with self._lock:
            self._devices_left -= 1
            if self._devices_left:
                return
            self._expected = self._produced
            done = self._processed >= self._expected
        if done:
            self.finish()

    def finish(self, abort: bool = False) -> None:
        """End the run — aborted too when *abort* — and wake every waiter."""
        if abort:
            self.aborted.set()
        self.done.set()
        with self.changed:
            self.changed.notify_all()


def _result_block(result: Any):
    """Encode a processing result as a tiny 1-row block for transport."""
    import numpy as np

    if isinstance(result, np.ndarray) and result.ndim == 2:
        return result
    if isinstance(result, dict):
        numeric = [float(v) for v in result.values() if isinstance(v, (int, float))]
        if numeric:
            return np.asarray([numeric], dtype=np.float64)
    return np.zeros((1, 1), dtype=np.float64)
