"""Background sampling: live time series for a running pipeline.

A :class:`TelemetrySampler` is the *history* of a
:class:`~repro.monitoring.instruments.MetricsRegistry`: every tick it
takes the registry's snapshot and appends each counter and gauge to an
in-memory time series. Gauge *sources* — callables returning
``{series_name: value}`` — are registered as readers of that registry,
so one value is computed once and reaches the series, the JSONL dump
and the Prometheus exposition alike. Convenience ``watch_*`` methods
register the gauges the broker exposes:

* per-partition log depth, end offset, and retained bytes
  (:meth:`Broker.partition_depths`, also served over the wire),
* **consumer lag** per group × partition (end offset minus committed
  offset, via :meth:`Broker.consumer_lag`),
* group membership size,
* a sharded cluster's per-shard server gauges, shards-up count and
  replication health (:meth:`ClusterBroker.metrics_snapshots`).

Series export as JSONL (one sample round per line, read back by
:func:`series_from_jsonl`); the registry renders Prometheus text
exposition, which the CLI dumps as ``metrics.prom``.

Everything here is opt-in: nothing in the data path references a sampler.
"""

from __future__ import annotations

import json
import threading
import time

from repro.monitoring.instruments import MetricsRegistry

#: Retention bound per series; the oldest samples are dropped first.
MAX_SAMPLES = 10_000


class TelemetrySampler:
    """Samples a registry's counters and gauges on a fixed interval.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` to sample (one of its own when not
        given); sources added here become its gauge readers.
    interval_s:
        Background sampling period. :meth:`sample_now` can always be
        called directly (tests do, for determinism).

    Each series keeps its last :data:`MAX_SAMPLES` points.
    """

    def __init__(self, registry=None, interval_s: float = 0.25) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.registry = registry or MetricsRegistry()
        self.interval_s = float(interval_s)
        #: series name -> [(elapsed_seconds, value), ...]
        self._series: dict[str, list[tuple[float, float]]] = {}
        self._t0 = time.monotonic()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.sample_rounds = 0
        #: Ticks the background loop skipped because sampling overran the
        #: interval (absolute schedule: late rounds don't compound).
        self.ticks_skipped = 0

    # -- sources ---------------------------------------------------------

    def add_source(self, fn) -> None:
        """Register a gauge source: ``fn() -> {series_name: value}``."""
        self.registry.add_reader("gauges", fn)

    @property
    def source_errors(self) -> int:
        """Source calls that raised — a dying component must not take
        the telemetry loop (or the run) down with it."""
        return self.registry.reader_errors

    def watch_broker(self, broker) -> None:
        """Sample per-partition depth/end-offset/bytes, group membership
        size, and per-group consumer lag from *broker* (in-proc or
        remote — both expose the same telemetry surface).

        Groups are remembered once seen: a group whose last member left
        keeps its lag series alive (computed from committed offsets), so
        a run's lag trajectory visibly returns to 0 instead of ending on
        its last pre-shutdown value.
        """
        seen_groups: set[str] = set()

        def _sample() -> dict:
            out: dict[str, float] = {}
            depths = getattr(broker, "partition_depths", None)
            if depths is not None:
                for (topic, p), d in depths().items():
                    out[f"broker.log_depth.{topic}.{p}"] = d["depth"]
                    out[f"broker.end_offset.{topic}.{p}"] = d["end_offset"]
                    out[f"broker.log_bytes.{topic}.{p}"] = d["bytes"]
            coordinator = getattr(broker, "coordinator", None)
            if coordinator is not None and hasattr(coordinator, "group_ids"):
                seen_groups.update(coordinator.group_ids())
                try:
                    # Groups that already left still have committed
                    # offsets; include them so even a first sample taken
                    # after shutdown records the (drained) lag.
                    seen_groups.update(
                        key[0] for key in broker.committed_offsets()
                    )
                except (TypeError, AttributeError):
                    pass  # remote brokers only expose per-group queries
                for group in sorted(seen_groups):
                    out[f"group.members.{group}"] = len(coordinator.members(group))
                    for (topic, p), lag in broker.consumer_lag(group).items():
                        out[f"consumer_lag.{group}.{topic}.{p}"] = lag
            return out

        self.add_source(_sample)

    def watch_cluster(self, cluster, name: str = "cluster") -> None:
        """Sample a sharded broker's per-shard server gauges.

        *cluster* is anything exposing ``metrics_snapshots() ->
        {shard_index: typed snapshot | None}`` (a
        :class:`~repro.broker.cluster.ClusterBroker`). Each responsive
        shard's ``server.*`` gauges (``connections_active``,
        ``parked_fetches``, ``reactor_loop_lag_s``, ...) land under
        shard-labeled series (``cluster.shard0.parked_fetches``, ...),
        plus ``shards_up`` / ``shards_total`` so a dead shard is visible
        as a gap *and* a level drop. On a replicated cluster
        (``replication_status``) each led partition additionally reports
        ``isr_size`` and ``replica_lag`` (worst follower), plus the
        cluster-wide ``under_replicated_partitions`` count — the
        standard Kafka health gauge.
        """

        def _sample() -> dict:
            out: dict[str, float] = {}
            up = 0
            for index, snap in cluster.metrics_snapshots().items():
                if not snap:
                    continue
                up += 1
                for gauge, value in snap["gauges"].items():
                    if gauge.startswith("server."):
                        key = gauge[len("server."):]
                        out[f"{name}.shard{index}.{key}"] = float(value)
            out[f"{name}.shards_up"] = float(up)
            total = getattr(cluster, "num_shards", None)
            if total is not None:
                out[f"{name}.shards_total"] = float(total)
            replication = getattr(cluster, "replication_status", None)
            if replication is not None:
                status = replication()
                if status.get("replication_factor", 1) > 1:
                    under = 0
                    for part in status.get("partitions", ()):
                        topic, p = part["topic"], part["partition"]
                        out[f"{name}.isr_size.{topic}.{p}"] = float(
                            len(part.get("isr", ()))
                        )
                        lags = [
                            f["lag"] for f in part.get("followers", ())
                        ] or [0]
                        out[f"{name}.replica_lag.{topic}.{p}"] = float(max(lags))
                        if part.get("under_replicated"):
                            under += 1
                    out[f"{name}.under_replicated_partitions"] = float(under)
            return out

        self.add_source(_sample)

    # -- sampling --------------------------------------------------------

    def sample_now(self) -> dict:
        """Read the registry once; returns this round's ``{name: value}``
        (its counters and gauges, every source's included)."""
        snap = self.registry.snapshot()
        values = {**snap["counters"], **snap["gauges"]}
        t = time.monotonic() - self._t0
        with self._lock:
            self.sample_rounds += 1
            for name, value in values.items():
                series = self._series.setdefault(name, [])
                series.append((t, float(value)))
                if len(series) > MAX_SAMPLES:
                    del series[: len(series) - MAX_SAMPLES]
        return values

    def _run(self) -> None:
        # Absolute schedule: each tick is t0 + k*interval, so a slow
        # sample round delays the NEXT round but does not push every
        # subsequent one later (the drift a relative `wait(interval)`
        # loop accumulates). Rounds the loop can no longer make are
        # skipped — counted, not crammed in back-to-back.
        interval = self.interval_s
        next_tick = time.monotonic() + interval
        while not self._stop.wait(max(0.0, next_tick - time.monotonic())):
            self.sample_now()
            next_tick += interval
            now = time.monotonic()
            if next_tick <= now:
                missed = int((now - next_tick) // interval) + 1
                self.ticks_skipped += missed
                next_tick += missed * interval

    def start(self) -> "TelemetrySampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="telemetry-sampler", daemon=True
        )
        self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None

    def stop(self, final_sample: bool = True) -> None:
        """Stop the background thread; by default take one last sample so
        end-of-run levels (lag back to 0, buffers drained) are recorded."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s + 5.0)
            self._thread = None
        if final_sample:
            self.sample_now()

    def __enter__(self) -> "TelemetrySampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- access / export -------------------------------------------------

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def series(self, name: str) -> list[tuple[float, float]]:
        with self._lock:
            return list(self._series.get(name, ()))

    def snapshot(self) -> dict:
        with self._lock:
            return {name: list(points) for name, points in self._series.items()}

    def to_jsonl(self) -> str:
        """One JSON object per sample time: ``{"t": ..., "values": {...}}``.

        Rebuilt by grouping every series' points by timestamp, so a
        parsed dump reconstructs the exact in-memory series (see
        :func:`series_from_jsonl`).
        """
        rounds: dict[float, dict] = {}
        for name, points in self.snapshot().items():
            for t, value in points:
                rounds.setdefault(t, {})[name] = value
        lines = [
            json.dumps({"t": t, "values": rounds[t]}, sort_keys=True)
            for t in sorted(rounds)
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


def series_from_jsonl(text: str) -> dict:
    """Parse a sampler JSONL dump back into per-series point lists.

    Inverse of :meth:`TelemetrySampler.to_jsonl`: returns
    ``{series_name: [(t, value), ...]}`` with points in time order.
    """
    series: dict[str, list] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        t = obj["t"]
        for name, value in obj["values"].items():
            series.setdefault(name, []).append((t, value))
    for points in series.values():
        points.sort(key=lambda p: p[0])
    return series
