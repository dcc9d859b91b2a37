"""Thread-safe metric collection: one fixed-slot row per message.

A message's row holds one timestamp per stage of :data:`STAGES`, its
payload size and its partition. Stage names follow the pipeline's
dataflow: ``produce`` is stamped by the edge device, ``uplink_start``
when the edge→broker transfer starts, ``broker_in`` when the append
returned, ``dequeue`` when a consumer took the record off the broker
(before the downlink transfer), ``consume`` when the processing task has
received it, ``consume_sink`` when a message already processed on the
device reached a consumer, and ``process_start`` / ``process_end``
around the model execution.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.monitoring.instruments import MetricsRegistry

#: The stages a row has a timestamp slot for, in dataflow order.
STAGES = (
    "produce", "uplink_start", "broker_in", "dequeue",
    "consume", "consume_sink", "process_start", "process_end",
)
_SLOT = {stage: slot for slot, stage in enumerate(STAGES)}
_PRODUCE, _END = _SLOT["produce"], _SLOT["process_end"]
_NBYTES, _PARTITION = len(STAGES), len(STAGES) + 1
_EMPTY_ROW = [float("nan")] * len(STAGES) + [0, -1]


def _slot(stage: str) -> int:
    try:
        return _SLOT[stage]
    except KeyError:
        raise ValueError(f"unknown stage {stage!r}; the stages are {STAGES}") from None


class MetricsCollector:
    """The stage stamps of one run, one row per message id whichever
    thread stamped it; its named counters live in a registry."""

    def __init__(self, run_id: str, registry=None) -> None:
        self.run_id = run_id
        self._rows: dict[str, list] = {}
        #: The :class:`repro.monitoring.MetricsRegistry` that holds this
        #: run's counters and gauges (the caller's, or one of its own);
        #: ``process_end`` stamps feed its live end-to-end latency
        #: histogram, so percentiles are available mid-run.
        self.registry = registry or MetricsRegistry()
        self._e2e_hist = self.registry.histogram("pipeline_e2e_latency_s")
        self._lock = threading.Lock()

    def stamp(self, message_id: str, stage: str, timestamp: float, nbytes: int = 0,
              partition: int = -1) -> None:
        """Record one stage hit for *message_id*."""
        slot = _slot(stage)
        with self._lock:
            start = self._put(slot, timestamp, message_id, nbytes, partition)
        if slot == _END and timestamp >= start:
            self._e2e_hist.observe(timestamp - start)

    def stamp_many(self, message_ids, stage: str, timestamp: float, nbytes=0, partition=-1) -> None:
        """Record one stage hit for a whole batch of messages, under one
        lock acquisition.

        ``nbytes`` and ``partition`` may be scalars (applied to every
        message) or sequences aligned with *message_ids*. A stage stamped
        twice keeps its last time; a row keeps the first non-zero
        ``nbytes`` and the last non-negative ``partition`` it was given.
        An unknown *stage* raises ``ValueError``.
        """
        slot = _slot(stage)
        ids = list(message_ids)
        nbytes_seq = nbytes if hasattr(nbytes, "__len__") else [nbytes] * len(ids)
        part_seq = partition if hasattr(partition, "__len__") else [partition] * len(ids)
        if len(nbytes_seq) != len(ids) or len(part_seq) != len(ids):
            raise ValueError("per-message nbytes/partition must align with message_ids")
        put = self._put
        with self._lock:
            starts = [put(slot, timestamp, m, nb, part) for m, nb, part in zip(ids, nbytes_seq, part_seq)]
        if slot == _END:
            # Live end-to-end latency; an unstamped produce (NaN) compares false.
            self._e2e_hist.observe_many([timestamp - s for s in starts if timestamp >= s])

    def _put(self, slot: int, timestamp: float, message_id: str, nbytes: int, partition: int):
        """Stamp one row, the lock held; returns the row's produce time."""
        row = self._rows.get(message_id)
        if row is None:
            row = self._rows[message_id] = _EMPTY_ROW.copy()
        row[slot] = timestamp
        if nbytes and not row[_NBYTES]:
            row[_NBYTES] = nbytes
        if partition >= 0:
            row[_PARTITION] = partition
        return row[_PRODUCE]

    def columns(self) -> dict:
        """The rows as columns, in the order the messages were first
        stamped: ``message_id`` (a list), one float64 array per stage of
        :data:`STAGES` (NaN where that stage was not stamped), and int64
        ``nbytes`` and ``partition`` arrays."""
        with self._lock:
            ids = list(self._rows)
            table = np.array(list(self._rows.values()), dtype=np.float64).reshape(-1, len(_EMPTY_ROW))
        columns = {"message_id": ids}
        columns.update((stage, table[:, slot]) for stage, slot in _SLOT.items())
        columns["nbytes"] = table[:, _NBYTES].astype(np.int64)
        columns["partition"] = table[:, _PARTITION].astype(np.int64)
        return columns

    def incr(self, name: str, value: float = 1.0) -> None:
        self.registry.counter(name).inc(value)

    def counter(self, name: str) -> float:
        """One counter or gauge of the registry; 0 if nothing reported it."""
        return self.counters().get(name, 0.0)

    def counters(self) -> dict:
        """Flat ``{name: value}`` view of the registry's counters and
        gauges (rates and levels in one dict, as reports read them)."""
        snap = self.registry.snapshot()
        return {**snap["gauges"], **snap["counters"]}
