"""Record types exchanged through the broker.

A :class:`Record` is what consumers receive: payload plus full
provenance (topic, partition, offset, timestamps). ``produce_ts`` is
stamped by the producer and ``append_ts`` by the broker, which lets the
monitoring subsystem split end-to-end latency into producer->broker and
broker->consumer components — the linked-metrics capability highlighted
in section III-1 of the paper.

``Record`` is a hand-rolled ``__slots__`` class rather than a frozen
dataclass: record construction sits on the broker's hottest path (one
per message in :meth:`PartitionLog.append_many`), and a plain ``__init__``
is ~4x cheaper than ``object.__setattr__``-per-field frozen-dataclass
initialisation. Treat instances as immutable — the broker shares them
between the log and every consumer that fetches them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

_RECORD_FIELDS = (
    "topic",
    "partition",
    "offset",
    "value",
    "key",
    "headers",
    "produce_ts",
    "append_ts",
)


class Record:
    """One message as stored in / fetched from a partition log.

    Treat as immutable: instances are shared between the broker's log
    and all consumers that fetch them. ``value`` is *bytes-like*:
    ``bytes`` from an in-process producer, a read-only ``memoryview``
    after a TCP hop (16-byte aligned, sharing a receive buffer of up to
    1 MiB with its frame neighbours) or off a sealed segment — take
    ``bytes(record.value)`` where a hashable or immutable value is needed.
    """

    __slots__ = _RECORD_FIELDS

    def __init__(
        self,
        topic: str,
        partition: int,
        offset: int,
        value: bytes,
        key: bytes | None = None,
        headers: dict | None = None,
        produce_ts: float = 0.0,
        append_ts: float = 0.0,
    ) -> None:
        self.topic = topic
        self.partition = partition
        self.offset = offset
        self.value = value
        self.key = key
        self.headers = {} if headers is None else headers
        #: Monotonic time the producer created the record.
        self.produce_ts = produce_ts
        #: Monotonic time the broker appended the record.
        self.append_ts = append_ts

    @property
    def size(self) -> int:
        """Approximate wire size in bytes (key + value)."""
        return len(self.value) + (len(self.key) if self.key else 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in _RECORD_FIELDS)

    def __repr__(self) -> str:
        return (
            f"Record({self.topic}/{self.partition}@{self.offset}, "
            f"{len(self.value)}B)"
        )


@dataclass(frozen=True)
class RecordMetadata:
    """Acknowledgement returned to the producer on append."""

    topic: str
    partition: int
    offset: int
    timestamp: float = field(default_factory=time.monotonic)


@dataclass(frozen=True)
class BatchMetadata:
    """Acknowledgement for a batched append (one per batch, not per record).

    Offsets within a batch are always contiguous — the whole batch is
    stamped under one partition lock — so ``base_offset`` plus ``count``
    fully describes every record's offset without materialising one
    metadata object per record (the per-record acks are what Kafka's
    produce-response format avoids too).
    """

    topic: str
    partition: int
    base_offset: int
    count: int
    timestamp: float = field(default_factory=time.monotonic)

    @property
    def offsets(self) -> range:
        return range(self.base_offset, self.base_offset + self.count)

    @property
    def last_offset(self) -> int:
        """Offset of the final record in the batch."""
        return self.base_offset + self.count - 1

    def __len__(self) -> int:
        return self.count
