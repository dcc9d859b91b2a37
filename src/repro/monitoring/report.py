"""Aggregate reports and bottleneck analysis.

The report reproduces the two metrics the paper's figures plot —
**throughput** (MB/s of processed payload over the run's busy window)
and **latency** (end-to-end per message, with percentiles) — plus the
per-stage decomposition used for bottleneck attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.monitoring.collector import MetricsCollector


def percentile(values, q: float) -> float:
    """Percentile of a sequence (q in [0, 100]); NaN-safe for empties."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))


#: A report's ``stage_means_s`` are the mean gaps between these stages, each to the next.
_REPORTED_STAGES = ("produce", "broker_in", "consume", "process_start", "process_end")


@dataclass
class ThroughputReport:
    """Summary statistics for one pipeline run."""

    run_id: str
    messages: int
    total_bytes: int
    duration_s: float
    throughput_msgs_s: float
    throughput_mb_s: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    stage_means_s: dict = field(default_factory=dict)
    #: Lag-over-time summary (from a TelemetrySampler), see
    #: :func:`lag_over_time`. Empty when no sampler was attached.
    lag: dict = field(default_factory=dict)
    #: Span-tree bottleneck attribution (from a Tracer), see
    #: :func:`span_bottleneck`. Empty when tracing was off.
    spans: dict = field(default_factory=dict)

    @classmethod
    def from_collector(
        cls,
        collector: MetricsCollector,
        duration_s: float | None = None,
        sampler=None,
        tracer=None,
    ) -> "ThroughputReport":
        lag = lag_over_time(sampler) if sampler is not None else {}
        spans = span_bottleneck(tracer) if tracer is not None else {}
        rows = _complete_rows(collector)
        messages = len(rows["produce"])
        if not messages:
            return cls(
                run_id=collector.run_id,
                messages=0,
                total_bytes=0,
                duration_s=0.0,
                throughput_msgs_s=0.0,
                throughput_mb_s=0.0,
                latency_mean_s=float("nan"),
                latency_p50_s=float("nan"),
                latency_p95_s=float("nan"),
                latency_p99_s=float("nan"),
                lag=lag,
                spans=spans,
            )
        latencies = rows["process_end"] - rows["produce"]
        total_bytes = int(rows["nbytes"].sum())
        if duration_s is None:
            duration_s = max(float(rows["process_end"].max() - rows["produce"].min()), 1e-9)
        stage_means = {}
        for a, b in zip(_REPORTED_STAGES, _REPORTED_STAGES[1:]):
            if (mean := _mean_gap(rows, a, b, empty=None)) is not None:
                stage_means[f"{a}->{b}"] = mean
        return cls(
            run_id=collector.run_id,
            messages=messages,
            total_bytes=total_bytes,
            duration_s=float(duration_s),
            throughput_msgs_s=messages / duration_s,
            throughput_mb_s=total_bytes / duration_s / 1e6,
            latency_mean_s=float(latencies.mean()),
            latency_p50_s=percentile(latencies, 50),
            latency_p95_s=percentile(latencies, 95),
            latency_p99_s=percentile(latencies, 99),
            stage_means_s=stage_means,
            lag=lag,
            spans=spans,
        )

    def row(self) -> dict:
        """Flat dict for tabular printing in the benchmark harness."""
        return {
            "messages": self.messages,
            "MB": round(self.total_bytes / 1e6, 3),
            "duration_s": round(self.duration_s, 3),
            "msgs/s": round(self.throughput_msgs_s, 2),
            "MB/s": round(self.throughput_mb_s, 3),
            "lat_mean_ms": round(self.latency_mean_s * 1e3, 2),
            "lat_p50_ms": round(self.latency_p50_s * 1e3, 2),
            "lat_p95_ms": round(self.latency_p95_s * 1e3, 2),
        }


def lag_over_time(sampler) -> dict:
    """Consumer-lag trajectory from a :class:`TelemetrySampler`.

    Sums every ``consumer_lag.<group>.<topic>.<partition>`` series per
    sample time into one total-lag curve and summarizes it: peak backlog,
    when it occurred, the final value, and whether the run drained
    (``returned_to_zero``). A healthy run's curve rises while producers
    outpace consumers and returns to 0 by the end.
    """
    per_time: dict[float, float] = {}
    for name in sampler.names():
        if not name.startswith("consumer_lag."):
            continue
        for t, value in sampler.series(name):
            per_time[t] = per_time.get(t, 0.0) + value
    if not per_time:
        return {}
    curve = sorted(per_time.items())
    peak_t, peak = max(curve, key=lambda p: p[1])
    final_t, final = curve[-1]
    return {
        "series": curve,
        "peak": peak,
        "peak_t_s": peak_t,
        "final": final,
        "final_t_s": final_t,
        "returned_to_zero": final == 0.0,
    }


def span_bottleneck(tracer) -> dict:
    """Span-tree bottleneck attribution from a :class:`Tracer`.

    Aggregates finished spans by name (mean/total/count per operation)
    and names the operation with the largest total recorded time — the
    hop of the produce→broker→consume tree where wall-clock actually
    went. Instantaneous marker spans (zero duration) can never win.
    """
    by_name: dict[str, dict] = {}
    for span in tracer.spans():
        if span.end is None:
            continue
        agg = by_name.setdefault(span.name, {"count": 0, "total_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += span.duration
    for agg in by_name.values():
        agg["mean_s"] = agg["total_s"] / agg["count"]
    slowest = max(
        (name for name in by_name if by_name[name]["total_s"] > 0),
        key=lambda n: by_name[n]["total_s"],
        default=None,
    )
    stats = tracer.stats()
    return {
        "by_name": by_name,
        "slowest": slowest,
        "traces": len(tracer.trace_ids()),
        **stats,
    }


def analyze_bottleneck(collector: MetricsCollector) -> dict:
    """Attribute the pipeline bottleneck to a stage.

    Compares the mean per-message *service* times of the transfer path
    against the processing stage (process_start->process_end). Transfer
    is the uplink, uplink_start->broker_in (produce->broker_in when no
    message has an uplink_start), plus the downlink, dequeue->consume.
    The queue waits are left out: broker_in->dequeue (reported as
    ``mean_broker_queue_s``), produce->uplink_start and
    consume->process_start. A backlog is the *symptom* of a slow
    service, as in the paper's Fig. 2 four-partition observation ("the
    broker can process more data than the consuming processing tasks").
    """
    rows = _complete_rows(collector)
    if not len(rows["produce"]):
        return {"bottleneck": "unknown", "reason": "no complete traces"}

    uplink_from = "produce" if np.isnan(rows["uplink_start"]).all() else "uplink_start"
    mean_transfer = _mean_gap(rows, uplink_from, "broker_in") + _mean_gap(rows, "dequeue", "consume")
    mean_processing = _mean_gap(rows, "process_start", "process_end")
    mean_queueing = _mean_gap(rows, "broker_in", "dequeue")
    if mean_processing >= mean_transfer:
        bottleneck = "processing"
        reason = (
            f"mean processing {mean_processing*1e3:.1f} ms >= "
            f"mean transfer {mean_transfer*1e3:.1f} ms"
        )
    else:
        bottleneck = "transfer"
        reason = (
            f"mean transfer {mean_transfer*1e3:.1f} ms > "
            f"mean processing {mean_processing*1e3:.1f} ms"
        )
    return {
        "bottleneck": bottleneck,
        "reason": reason,
        "mean_transfer_s": mean_transfer,
        "mean_processing_s": mean_processing,
        "mean_broker_queue_s": mean_queueing,
    }


def _complete_rows(collector: MetricsCollector) -> dict:
    """The collector's columns, cut to the rows stamped at both ``produce`` and ``process_end``."""
    columns = collector.columns()
    complete = ~(np.isnan(columns["produce"]) | np.isnan(columns["process_end"]))
    return {name: values[complete] for name, values in columns.items() if name != "message_id"}


def _mean_gap(rows: dict, a: str, b: str, empty=0.0) -> float | None:
    """Mean seconds from stage *a* to stage *b* over the rows stamped at both; *empty* if none is."""
    gaps = rows[b] - rows[a]
    gaps = gaps[~np.isnan(gaps)]
    return float(gaps.mean()) if gaps.size else empty
