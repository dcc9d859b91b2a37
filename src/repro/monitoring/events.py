"""Structured event journal: one timeline for the cluster and the run.

Metrics answer *how much*; the journal answers *what happened*. Every
control-plane transition — a leader election, an ISR eviction, a shard
respawn, a boot recovery, a flush stall, a pilot's state change, a load
peak, a function swap, a consumer scale-up — is appended to a
ring-buffered :class:`EventJournal` as a typed, monotonically sequenced
:class:`Event`. Each origin owns one journal (the supervisor, every
shard, every pilot, the autoscaler, a pipeline run); the
``events_since`` wire op lets the aggregation plane drain the shards'
incrementally, and :func:`merge_timeline` interleaves the streams into
one narrative ordered by wall clock with ``(origin, seq)`` as the
tiebreak, so a SIGKILL'd leader's story reads "shard_died →
leader_elected → shard_respawned → recovery_completed → isr_join" even
though four processes wrote it.

The journal is deliberately always-on: emissions are control-plane rare
(per election, per boot, per transition — never per record), so one
lock and one deque append per event costs nothing measurable, and the
events are exactly what an operator needs *after* the incident, when it
is too late to turn telemetry on. The one per-message type,
``processing_error``, is emitted only for the first ``_KEEP_ERRORS``
errors of a run (``repro.core.pipeline``): a function that raises on
every message would otherwise flood the ring and evict the rare events
around it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "EVENT_TYPES",
    "Event",
    "EventJournal",
    "merge_timeline",
    "read_jsonl",
]

#: Events one journal retains; older ones fall off the head.
MAX_EVENTS = 4096

# The closed set of event types. ``emit`` accepts only these so a
# typo'd event name fails at the emission site, not silently at query
# time. Extend the tuple when a new subsystem gains a voice.
EVENT_TYPES = (
    "shard_started",      # worker process bound its port (supervisor)
    "shard_died",         # monitor detected a dead worker (supervisor)
    "shard_respawned",    # monitor restarted a worker (supervisor)
    "leader_elected",     # partition leadership moved (supervisor)
    "isr_join",           # follower caught up, joined the ISR (leader shard)
    "isr_evict",          # follower lagged/timed out, left the ISR (leader shard)
    "recovery_completed", # boot recovery replayed a partition's segments (shard)
    "flush_stall",        # a group-commit flush exceeded the stall threshold (shard)
    "producer_fenced",    # idempotent producer rejected by epoch fencing (shard)
    "load_peak",          # backlog crossed the scale-up mark (autoscaler)
    "load_normal",        # backlog fell to the scale-down mark (autoscaler)
    "function_replaced",  # the processing function was swapped (pipeline run)
    "consumers_scaled",   # consumer tasks were added mid-run (pipeline run)
    "processing_error",   # a message's processing raised (pipeline run)
    "pilot_state",        # a pilot changed state (pilot)
)


@dataclass(frozen=True)
class Event:
    """One control-plane transition.

    ``seq`` is monotonic *per journal* (per process); global ordering
    across journals is by ``ts`` with ``(origin, seq)`` as tiebreak —
    see :func:`merge_timeline`.
    """

    seq: int
    ts: float
    type: str
    origin: str
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "type": self.type,
            "origin": self.origin,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        return cls(
            seq=int(data["seq"]),
            ts=float(data["ts"]),
            type=str(data["type"]),
            origin=str(data.get("origin", "?")),
            fields=dict(data.get("fields") or {}),
        )

    def format(self) -> str:
        """One human-readable timeline line."""
        detail = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        stamp = time.strftime("%H:%M:%S", time.localtime(self.ts))
        frac = f"{self.ts % 1:.3f}"[1:]
        return f"{stamp}{frac} [{self.origin}:{self.seq}] {self.type} {detail}".rstrip()


class EventJournal:
    """Ring-buffered, monotonically sequenced event log for one process.

    ``emit`` is thread-safe and cheap (one lock, one deque append); the
    ring bound means a chatty subsystem can never OOM the process — old
    events fall off the head, and ``events_since`` reports the drop via
    the caller's cursor simply returning fewer events than the gap.
    """

    def __init__(self, origin: str = "local") -> None:
        self.origin = origin
        # A fresh random token per journal instance: a collector that
        # cached a cursor against a dead process's journal sees the boot
        # token change after a respawn and re-drains from zero.
        self.boot = os.urandom(4).hex()
        self._events: deque[Event] = deque(maxlen=MAX_EVENTS)
        self._seq = 0
        self._lock = threading.Lock()

    def emit(self, type: str, **fields) -> Event:
        if type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {type!r}; add it to EVENT_TYPES")
        with self._lock:
            self._seq += 1
            event = Event(
                seq=self._seq,
                ts=time.time(),
                type=type,
                origin=self.origin,
                fields=fields,
            )
            self._events.append(event)
        return event

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def next_seq(self) -> int:
        """The sequence number the *next* emitted event will carry."""
        with self._lock:
            return self._seq + 1

    def events(self) -> list[Event]:
        with self._lock:
            return list(self._events)

    def events_since(self, seq: int = 0) -> list[Event]:
        """Every retained event with ``event.seq > seq``, in order.

        This is the incremental-drain primitive behind the wire op: a
        collector remembers the last seq it saw per journal and passes
        it back, getting only the delta.
        """
        with self._lock:
            return [e for e in self._events if e.seq > seq]


def merge_timeline(*streams) -> list[Event]:
    """Interleave events from many journals into one global order.

    Accepts any mix of :class:`EventJournal` instances, lists of
    :class:`Event`, and lists of event dicts (as drained over the wire
    or re-read from a JSONL artifact). Orders by ``(ts, origin, seq)``:
    wall clock first — the only clock the processes share — with the
    per-journal sequence breaking ties so two events from one origin
    never swap even when their timestamps collide.
    """
    merged: list[Event] = []
    for stream in streams:
        if isinstance(stream, EventJournal):
            merged.extend(stream.events())
            continue
        for item in stream:
            merged.append(item if isinstance(item, Event) else Event.from_dict(item))
    merged.sort(key=lambda e: (e.ts, e.origin, e.seq))
    return merged


def read_jsonl(path) -> list[Event]:
    """Re-read the ``events.jsonl`` that ``ClusterEventCollector.write_jsonl`` wrote."""
    events: list[Event] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(Event.from_dict(json.loads(line)))
    return events
