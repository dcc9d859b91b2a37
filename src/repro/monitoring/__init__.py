"""Linked cross-component metrics, tracing, and live telemetry.

The paper emphasises that "the framework captures and links comprehensive
metrics across all involved components, particularly the edge data
generator, broker, and cloud processing services", enabling bottleneck
identification (e.g. Fig. 2's observation that at four partitions the
consumers, not the broker, limit throughput).

This package provides:

- :class:`MetricsCollector` — one fixed-slot row per message of a run:
  a timestamp per stage (``produce`` → ``process_end``), its size and
  partition, read back as columns; its named counters live in its
  registry,
- :class:`Tracer` / :class:`Span` — distributed tracing with
  ``(trace_id, span_id, parent_id)`` context propagated through message
  and frame headers, so one message's produce→broker→consume path
  reconstructs as a span tree across sites,
- :class:`MetricsRegistry` — the one place a number is read from: typed
  instruments (:class:`Counter`, :class:`Gauge`, log-bucketed
  :class:`Histogram` with live p50/p95/p99) plus read callbacks for
  numbers a component keeps itself; Prometheus text exposition,
- :class:`TelemetrySampler` — a background thread recording the
  registry's counters and gauges (per-partition log depth, consumer
  lag, group size, ...) as a JSONL-exportable time series,
- :class:`EventJournal` / :func:`merge_timeline` — each process's
  control-plane events and the one timeline they interleave into,
- :class:`ClusterMetricsAggregator`, :class:`ClusterEventCollector` and
  :class:`ClusterTraceCollector` — what a sharded broker's processes
  measure, record and trace, drained into one view (``repro top``, and
  the ``spans.json`` that ``--telemetry DIR`` writes); :func:`stitch_spans`
  reassembles the span trees,
- :class:`ThroughputReport` / :func:`analyze_bottleneck` /
  :func:`lag_over_time` / :func:`span_bottleneck` — the aggregate
  statistics, stage-rate comparison, lag trajectory, and span-tree
  attribution the benchmark harness prints for each figure.
"""

from repro.monitoring.collector import MetricsCollector
from repro.monitoring.instruments import Counter, Gauge, Histogram, MetricsRegistry
from repro.monitoring.tracing import NOOP_SPAN, Span, Tracer
from repro.monitoring.sampler import TelemetrySampler
from repro.monitoring.events import Event, EventJournal, merge_timeline
from repro.monitoring.cluster import (
    ClusterEventCollector,
    ClusterMetricsAggregator,
    ClusterTraceCollector,
    stitch_spans,
)
from repro.monitoring.report import (
    ThroughputReport,
    analyze_bottleneck,
    lag_over_time,
    percentile,
    span_bottleneck,
)

__all__ = [
    "MetricsCollector",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "TelemetrySampler",
    "Event",
    "EventJournal",
    "merge_timeline",
    "ClusterEventCollector",
    "ClusterMetricsAggregator",
    "ClusterTraceCollector",
    "stitch_spans",
    "ThroughputReport",
    "analyze_bottleneck",
    "lag_over_time",
    "percentile",
    "span_bottleneck",
]
