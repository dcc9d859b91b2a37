"""Producer client: partition choice, retries, produce metrics.

Producers are cheap, thread-compatible objects bound to one broker. The
paper's experiments pin one partition per edge device, which is an
explicit ``partition=`` argument (each simulated device produces only to
its own partition); a send without one picks the partition from the
record's key.
"""

from __future__ import annotations

import random
import time
import zlib
from typing import Any

from repro.broker.broker import Broker
from repro.broker.errors import is_retriable
from repro.broker.message import BatchMetadata, RecordMetadata
from repro.util.ids import new_id
from repro.util.validation import ValidationError, check_non_negative


def _as_bytes(value: Any) -> bytes:
    """A record value as ``bytes``: buffers are copied, anything else is
    refused (encode blocks with :func:`repro.data.serde.encode_block`)."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, (bytearray, memoryview)):
        return bytes(value)
    raise TypeError(f"record values must be bytes, got {type(value).__name__}")


class Producer:
    """Client for publishing records to a broker.

    >>> broker = Broker(); _ = broker.create_topic("t", 2)
    >>> producer = Producer(broker)
    >>> md = producer.send("t", b"payload", partition=1)
    >>> (md.partition, md.offset)
    (1, 0)

    Delivery knobs (Kafka-shaped):

    - ``acks=1`` (default, alias ``"leader"``): the send blocks for the
      leader's ack; failures raise (after any retries). ``acks="all"``:
      the broker additionally holds the ack until every in-sync replica
      holds the records (high-watermark advance) — on an unreplicated
      broker this coincides with ``acks=1``.
    - ``retries``: transient failures (``RetriableError``,
      ``ConnectionError``, timeouts) are retried up to this many times
      with exponential backoff and jitter starting at
      ``retry_backoff_ms``. A producer with ``retries > 0`` is
      idempotent: it registers with the broker for a ``(producer_id,
      epoch)`` identity and stamps every append with a per-partition
      sequence number, so a retried batch that *did* land the first time
      is deduplicated broker-side — at-least-once retries, exactly-once
      log offsets.
    """

    #: Backoff growth cap: sleeps never exceed this many seconds.
    MAX_BACKOFF_S = 2.0

    def __init__(
        self,
        broker: Broker | None = None,
        client_id: str | None = None,
        acks: int | str = 1,
        retries: int = 0,
        retry_backoff_ms: float = 100.0,
        tracer=None,
        trace_site: str = "",
        bootstrap=None,
    ) -> None:
        if acks not in (1, "leader", "all"):
            raise ValidationError(f"acks must be 1, 'leader' or 'all', got {acks!r}")
        check_non_negative("retries", retries)
        check_non_negative("retry_backoff_ms", retry_backoff_ms)
        if (broker is None) == (bootstrap is None):
            raise ValidationError("provide exactly one of broker= or bootstrap=")
        # A bootstrap list connects to whatever answers first — a sharded
        # cluster or a plain single broker — and the producer owns (and
        # closes) the resulting client handle.
        self._owns_broker = bootstrap is not None
        if bootstrap is not None:
            from repro.broker.cluster import connect_bootstrap

            broker = connect_bootstrap(bootstrap)
        self._broker = broker
        #: Keyless sends without ``partition=`` rotate from here.
        self._next_keyless = 0
        self.client_id = client_id or new_id("producer")
        self.acks = acks
        # What rides to the broker: only "all" changes broker behavior
        # (1 and "leader" both ack at the leader).
        self._wire_acks = "all" if self.acks == "all" else None
        self.retries = int(retries)
        self.retry_backoff_ms = float(retry_backoff_ms)
        self.idempotent = self.retries > 0
        # Idempotent identity, assigned lazily on the first send so plain
        # producers never pay the registration round-trip.
        self._pid: int | None = None
        self._epoch = 0
        #: (topic, partition) -> next sequence number.
        self._sequences: dict[tuple, int] = {}
        # Deterministic per-producer jitter source (stable across runs
        # for a fixed client_id).
        self._jitter = random.Random(zlib.crc32(self.client_id.encode()))
        #: Optional :class:`repro.monitoring.Tracer`. When set, every send
        #: opens a ``producer.send`` span (child of any context already in
        #: the record's headers) and injects its context into the headers,
        #: so the broker and consumer legs attach to the same trace.
        self._tracer = tracer
        self._trace_site = trace_site or self.client_id
        # Produce-side metrics.
        self.records_sent = 0
        self.bytes_sent = 0
        self.produce_retries = 0
        self.sends_failed = 0
        self._closed = False

    @property
    def broker(self) -> Broker:
        return self._broker

    def _partition_for(self, topic: str, key: bytes | None) -> int:
        """The partition of a send without ``partition=``: ``crc32(key)``
        modulo the partition count; keyless records rotate."""
        num = self._broker.topic(topic).num_partitions
        if key is not None:
            return zlib.crc32(key) % num
        self._next_keyless += 1
        return (self._next_keyless - 1) % num

    # -- idempotence ------------------------------------------------------

    def _ensure_registered(self) -> None:
        if self._pid is None:
            self._pid, self._epoch = self._call_with_retries(
                lambda: self._broker.register_producer(self.client_id)
            )

    def _next_sequence(self, topic: str, partition: int, count: int) -> int:
        key = (topic, partition)
        seq = self._sequences.get(key, 0)
        self._sequences[key] = seq + count
        return seq

    def _rollback_sequence(self, topic: str, partition: int, count: int) -> None:
        self._sequences[(topic, partition)] -= count

    # -- retry engine ------------------------------------------------------

    def _backoff_s(self, attempt: int) -> float:
        base = (self.retry_backoff_ms / 1000.0) * (2 ** attempt)
        return min(base, self.MAX_BACKOFF_S) * (0.5 + self._jitter.random())

    # -- tracing -----------------------------------------------------------

    def _trace_send(self, headers, count: int):
        """Open one ``producer.send`` span per record and inject contexts.

        Returns ``(spans, headers)`` where *headers* is a per-record list
        carrying each span's context. ``headers`` may come in as ``None``,
        one dict broadcast to the batch, or a per-record sequence.
        """
        hdr_seq = (
            list(headers)
            if isinstance(headers, (list, tuple))
            else [headers] * count
        )
        spans, out_headers = [], []
        for h in hdr_seq:
            span = self._tracer.start_span(
                "producer.send",
                parent=self._tracer.extract(h),
                site=self._trace_site,
            )
            if span.recording:
                h = dict(h) if h else {}
                self._tracer.inject(span, h)
            spans.append(span)
            out_headers.append(h)
        return spans, out_headers

    @staticmethod
    def _finish_spans(spans, error: str | None = None) -> None:
        if not spans:
            return
        for span in spans:
            if error is not None:
                span.set_attr("error", error)
            span.finish()

    def _call_with_retries(self, fn):
        """Run *fn*, retrying transient failures with backoff + jitter."""
        attempt = 0
        while True:
            try:
                return fn()
            except Exception as exc:
                if attempt >= self.retries or not is_retriable(exc):
                    raise
                self.produce_retries += 1
                delay = self._backoff_s(attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1

    def send(
        self,
        topic: str,
        value: Any,
        key: bytes | None = None,
        partition: int | None = None,
        headers: dict | None = None,
    ) -> RecordMetadata:
        """Append one record — a batch of one through :meth:`send_many`,
        on the partition its *key* selects."""
        self._check_open()
        if partition is None:
            partition = self._partition_for(topic, key)
        md = self.send_many(
            topic, [value], keys=[key], partition=partition, headers=headers
        )
        return RecordMetadata(topic=topic, partition=partition, offset=md.base_offset)

    def send_many(
        self,
        topic: str,
        values,
        keys=None,
        partition: int | None = None,
        headers=None,
    ) -> BatchMetadata:
        """Append a batch of ``bytes`` values in one broker call.

        The whole batch lands on **one** partition: either the explicit
        ``partition`` or the next in the keyless rotation (per-record key
        routing would split the batch). ``keys`` are stored with the
        records but do not route. Against a
        :class:`~repro.broker.remote.RemoteBroker` this is a single socket
        round-trip.
        """
        self._check_open()
        payloads = [_as_bytes(v) for v in values]
        if not payloads:
            raise ValidationError("send_many requires at least one value")
        if partition is None:
            partition = self._partition_for(topic, None)
        spans = None
        if self._tracer is not None:
            spans, headers = self._trace_send(headers, len(payloads))
        if self.idempotent:
            self._ensure_registered()
            base_sequence = self._next_sequence(topic, partition, len(payloads))
        else:
            base_sequence = None
        try:
            md = self._call_with_retries(
                lambda: self._broker.append_many(
                    topic,
                    partition,
                    payloads,
                    keys=keys,
                    headers=headers,
                    produce_ts=time.monotonic(),
                    producer_id=self._pid,
                    producer_epoch=self._epoch,
                    base_sequence=base_sequence,
                    acks=self._wire_acks,
                )
            )
        except Exception as exc:
            self._finish_spans(spans, error=type(exc).__name__)
            if base_sequence is not None:
                self._rollback_sequence(topic, partition, len(payloads))
            self.sends_failed += 1
            raise
        self._finish_spans(spans)
        self.records_sent += md.count
        self.bytes_sent += sum(len(p) for p in payloads)
        return md

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Mark the producer closed (sends are synchronous: nothing is
        buffered) and release a broker connection it opened itself."""
        if self._closed:
            return
        self._closed = True
        if self._owns_broker:
            close = getattr(self._broker, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Producer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ValidationError("producer is closed")

    def stats(self) -> dict:
        return {
            "client_id": self.client_id,
            "records_sent": self.records_sent,
            "bytes_sent": self.bytes_sent,
            "produce_retries": self.produce_retries,
            "sends_failed": self.sends_failed,
            "idempotent": self.idempotent,
        }

