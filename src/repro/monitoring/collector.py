"""Thread-safe metric collection."""

from __future__ import annotations

import threading

from repro.monitoring.instruments import MetricsRegistry
from repro.monitoring.metrics import MessageTrace


def _is_sequence(value) -> bool:
    """Sequence-of-values vs scalar for the stamp_many broadcast rule."""
    return isinstance(value, (list, tuple)) or (
        hasattr(value, "__len__") and not isinstance(value, (str, bytes))
    )


class MetricsCollector:
    """Accumulates the message traces of one run; its named counters
    live in a registry.

    All pipeline components share one collector per run; traces are linked
    by ``(run_id, message_id)`` so a message's path can be reconstructed
    regardless of which thread/site stamped each stage.
    """

    def __init__(self, run_id: str, registry=None) -> None:
        self.run_id = run_id
        self._traces: dict[str, MessageTrace] = {}
        #: The :class:`repro.monitoring.MetricsRegistry` that holds this
        #: run's counters and gauges (the caller's, or one of its own);
        #: ``process_end`` stamps feed its live end-to-end latency
        #: histogram, so percentiles are available mid-run.
        self.registry = registry or MetricsRegistry()
        self._e2e_hist = self.registry.histogram("pipeline_e2e_latency_s")
        self._lock = threading.Lock()

    # -- traces ----------------------------------------------------------

    def stamp(
        self,
        message_id: str,
        stage: str,
        timestamp: float,
        nbytes: int = 0,
        site: str = "",
        partition: int = -1,
    ) -> None:
        """Record one stage hit for *message_id*."""
        with self._lock:
            trace = self._traces.get(message_id)
            if trace is None:
                trace = MessageTrace(self.run_id, message_id)
                self._traces[message_id] = trace
            if partition >= 0:
                trace.partition = partition
            trace.stamp(stage, timestamp, nbytes=nbytes, site=site)
        if stage == "process_end":
            self._observe_latencies((trace,), timestamp)

    def stamp_many(
        self,
        message_ids,
        stage: str,
        timestamp: float,
        nbytes=0,
        site: str = "",
        partition=-1,
    ) -> None:
        """Record one stage hit for a whole batch of messages.

        The batched pipeline paths stamp every message of a poll/publish
        batch at the same stage and timestamp; doing it here costs ONE
        lock acquisition instead of one per message (~6 lock round-trips
        per message across the six pipeline stages otherwise).

        ``nbytes`` and ``partition`` may be scalars (applied to every
        message) or sequences aligned with *message_ids* (per-message
        values, e.g. record sizes at the ``consume`` stage).
        """
        ids = list(message_ids)
        nbytes_seq = nbytes if _is_sequence(nbytes) else [nbytes] * len(ids)
        part_seq = partition if _is_sequence(partition) else [partition] * len(ids)
        if len(nbytes_seq) != len(ids) or len(part_seq) != len(ids):
            raise ValueError("per-message nbytes/partition must align with message_ids")
        touched = []
        with self._lock:
            for message_id, nb, part in zip(ids, nbytes_seq, part_seq):
                trace = self._traces.get(message_id)
                if trace is None:
                    trace = MessageTrace(self.run_id, message_id)
                    self._traces[message_id] = trace
                if part >= 0:
                    trace.partition = part
                trace.stamp(stage, timestamp, nbytes=nb, site=site)
                touched.append(trace)
        if stage == "process_end":
            self._observe_latencies(touched, timestamp)

    def _observe_latencies(self, traces, end_ts: float) -> None:
        """Feed live latency histograms from completed message traces."""
        latencies = []
        for trace in traces:
            start = trace.at("produce")
            if start is not None and end_ts >= start:
                latencies.append(end_ts - start)
        self._e2e_hist.observe_many(latencies)

    def trace(self, message_id: str) -> MessageTrace | None:
        with self._lock:
            return self._traces.get(message_id)

    def traces(self, complete_only: bool = False) -> list[MessageTrace]:
        with self._lock:
            out = list(self._traces.values())
        if complete_only:
            out = [t for t in out if t.complete]
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    # -- counters ---------------------------------------------------------

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
