"""Cluster-wide observability plane: federate what N processes measure.

Since the broker became a supervisor plus N forked shards, every
interesting signal lives in a process the in-proc ``MetricsRegistry``
cannot see. This module is the collection side of the fix; the serving
side is three wire ops each shard answers:

* ``metrics_snapshot`` — the shard registry's typed snapshot
  (:meth:`~repro.monitoring.instruments.MetricsRegistry.snapshot`),
* ``events_since`` — the shard's control-plane
  :class:`~repro.monitoring.events.EventJournal` drained by cursor,
* ``trace_spans`` — the shard tracer's finished spans drained by cursor.

:class:`ClusterMetricsAggregator` scrapes every shard on the sampler
tick and re-exports ONE merged Prometheus exposition: counters are
summed across shards (a rate is a rate wherever it happened), gauges
keep a ``shard`` label (a level is only meaningful per process), and
histograms are bucket-merged (every histogram shares one bucket layout,
so the merge is an elementwise add). :class:`ClusterEventCollector`
drains journals into one wall-clock-ordered incident timeline (``repro
top``), and :class:`ClusterTraceCollector` drains every tracer into the
one span pool the CLI writes as ``spans.json``; :func:`stitch_spans`
reassembles its trees, whose hops happened in different processes — the
produce path's leader append and follower replication ack included.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from repro.monitoring.events import Event, merge_timeline
from repro.monitoring.instruments import render_prometheus, with_percentiles
from repro.monitoring.tracing import Span

__all__ = [
    "ClusterMetricsAggregator",
    "ClusterEventCollector",
    "ClusterTraceCollector",
    "merge_metric_snapshots",
    "merge_histogram_snapshots",
    "stitch_spans",
    "render_dashboard",
]


# -- snapshot merging ------------------------------------------------------


def merge_histogram_snapshots(a: dict, b: dict) -> dict:
    """Merge two histogram snapshots.

    Every histogram shares the one bucket layout of
    :mod:`repro.monitoring.instruments`, so cross-shard merging is an
    elementwise bucket add; percentiles are re-estimated from the merged
    buckets by the estimator the live instrument uses. An empty
    snapshot (``count`` 0) has no minimum or maximum to contribute.
    """
    seen = [snap for snap in (a, b) if snap["count"]]
    merged = {
        "count": a["count"] + b["count"],
        "sum": a["sum"] + b["sum"],
        "min": min((snap["min"] for snap in seen), default=0.0),
        "max": max((snap["max"] for snap in seen), default=0.0),
        "buckets": [x + y for x, y in zip(a["buckets"], b["buckets"])],
        "bounds": list(a["bounds"]),
    }
    return with_percentiles(merged)


def merge_metric_snapshots(snapshots: dict) -> dict:
    """Merge per-shard typed snapshots into one cluster view.

    *snapshots* maps a shard index to the dict served by the
    ``metrics_snapshot`` wire op (or ``None`` for unreachable shards —
    they are skipped, never fabricated). Returns::

        {
            "counters": {name: summed_total},
            "gauges": {name: {shard_index: value}},
            "histograms": {name: merged_snapshot},
            "shards": [index, ...],   # shards that contributed
        }
    """
    counters: dict[str, float] = {}
    gauges: dict[str, dict] = {}
    histograms: dict[str, dict] = {}
    shards: list = []
    for index in sorted(snapshots, key=str):
        snap = snapshots[index]
        if not snap:
            continue
        shards.append(index)
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges.setdefault(name, {})[index] = value
        for name, hsnap in snap.get("histograms", {}).items():
            if name in histograms:
                histograms[name] = merge_histogram_snapshots(histograms[name], hsnap)
            else:
                histograms[name] = dict(hsnap)
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "shards": shards,
    }


class ClusterMetricsAggregator:
    """Scrape every shard's registry and serve one merged exposition.

    *cluster* is anything with a ``metrics_snapshots()`` method
    returning ``{shard_index: snapshot_dict | None}`` — in practice a
    :class:`repro.broker.cluster.ClusterBroker`.

    The aggregator is pull-based and stateless between scrapes except
    for scrape metadata; hook it to a
    :class:`~repro.monitoring.sampler.TelemetrySampler` via
    :meth:`attach` to scrape on the sampler tick.
    """

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self._lock = threading.Lock()
        self._merged: dict = {"counters": {}, "gauges": {}, "histograms": {}, "shards": []}
        self._scrapes = 0
        self._last_scrape_s = 0.0

    # -- scraping --------------------------------------------------------

    def scrape(self) -> dict:
        """Pull every shard once; returns (and retains) the merged view."""
        t0 = time.perf_counter()
        merged = merge_metric_snapshots(self._cluster.metrics_snapshots())
        elapsed = time.perf_counter() - t0
        with self._lock:
            self._merged = merged
            self._scrapes += 1
            self._last_scrape_s = elapsed
        return merged

    def merged(self) -> dict:
        """The most recent scrape's merged view (empty before the first)."""
        with self._lock:
            return self._merged

    @property
    def last_scrape_s(self) -> float:
        with self._lock:
            return self._last_scrape_s

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        """The last scrape as one typed snapshot — summed counters,
        ``{shard: value}`` gauges, bucket-merged histograms — plus the
        aggregator's own scrape metadata (``cluster.*``)."""
        with self._lock:
            merged, scrapes, elapsed = self._merged, self._scrapes, self._last_scrape_s
        return {
            "counters": {**merged["counters"], "cluster.scrapes_total": scrapes},
            "gauges": {
                **merged["gauges"],
                "cluster.scrape_seconds": elapsed,
                "cluster.shards_scraped": len(merged["shards"]),
            },
            "histograms": merged["histograms"],
        }

    def to_prometheus(self) -> str:
        """The merged text exposition (gauges carry a ``shard`` label)."""
        return render_prometheus(self.snapshot())

    # -- sampler integration ---------------------------------------------

    def sample(self) -> dict:
        """Scrape and flatten for a ``TelemetrySampler`` source.

        Counters federate as ``cluster.<name>`` totals; per-shard gauge
        detail stays in the Prometheus exposition (the sampler's JSONL is
        a time series, and per-shard fan-out there would explode the
        series count without adding anything the exposition lacks).
        """
        merged = self.scrape()
        out = {
            "cluster.scrape_ms": self.last_scrape_s * 1e3,
            "cluster.shards_scraped": float(len(merged["shards"])),
        }
        for name, value in merged["counters"].items():
            out[f"cluster.{name}"] = value
        for name, per_shard in merged["gauges"].items():
            if per_shard:
                out[f"cluster.{name}.max"] = max(per_shard.values())
        return out

    def attach(self, sampler) -> None:
        """Scrape on every tick of *sampler* (a ``TelemetrySampler``)."""
        sampler.add_source(self.sample)


# -- event federation ------------------------------------------------------


class ClusterEventCollector:
    """Drain every journal in the cluster into one merged timeline.

    Remote shard journals are drained through the ``events_since`` wire
    op with a per-shard cursor; *journals* adds local
    :class:`~repro.monitoring.events.EventJournal` instances (the
    supervisor's, the pilots', a pipeline run's) polled directly, and
    :meth:`write_jsonl` writes the merged timeline (``events.jsonl``).
    A shard respawn resets that shard's journal — the payload's ``boot``
    token changes — and the collector re-drains from zero so the fresh
    process's first events (recovery, ISR rejoin) are never skipped.
    """

    def __init__(self, cluster=None, journals=()) -> None:
        self._cluster = cluster
        self._journals = list(journals)
        self._cursors: dict = {}          # shard index -> (boot, last_seq)
        self._local_cursors: dict = {}    # id(journal) -> last_seq
        self._events: list[Event] = []
        self._lock = threading.Lock()

    def poll(self) -> list[Event]:
        """Fetch events new since the last poll; returns just the new ones."""
        new: list[Event] = []
        if self._cluster is not None:
            for index, payload in dict(self._cluster.events_snapshots(self._cursor_seqs())).items():
                if not payload:
                    continue
                boot = payload.get("boot", "")
                known_boot, _ = self._cursors.get(index, ("", 0))
                if known_boot and boot != known_boot:
                    # Journal restarted (shard respawn): our cursor is
                    # from a dead process; re-drain this shard from 0.
                    payload = self._cluster.shard_events(index, since=0) or payload
                events = [Event.from_dict(d) for d in payload.get("events", [])]
                if events:
                    self._cursors[index] = (payload.get("boot", ""), events[-1].seq)
                elif boot:
                    self._cursors[index] = (boot, self._cursors.get(index, ("", 0))[1])
                new.extend(events)
        for journal in self._journals:
            since = self._local_cursors.get(id(journal), 0)
            events = journal.events_since(since)
            if events:
                self._local_cursors[id(journal)] = events[-1].seq
            new.extend(events)
        if new:
            with self._lock:
                self._events = merge_timeline(self._events, new)
        return merge_timeline(new)

    def _cursor_seqs(self) -> dict:
        return {index: seq for index, (_, seq) in self._cursors.items()}

    def events(self) -> list[Event]:
        with self._lock:
            return list(self._events)

    def write_jsonl(self, path) -> int:
        events = self.events()
        with open(path, "w", encoding="utf-8") as fh:
            for e in events:
                fh.write(json.dumps(e.to_dict(), sort_keys=True) + "\n")
        return len(events)


# -- trace federation ------------------------------------------------------


class ClusterTraceCollector:
    """Drain finished spans from every shard tracer (plus local tracers).

    Same cursor-and-boot protocol as the event collector, over the
    ``trace_spans`` wire op. The result is a flat span-dict pool that
    :func:`stitch_spans` turns back into per-trace trees — the only way
    a trace whose hops ran in three processes becomes one tree again.
    """

    def __init__(self, cluster=None, tracers=()) -> None:
        self._cluster = cluster
        self._tracers = list(tracers)
        self._cursors: dict = {}        # shard index -> (boot, next_index)
        self._local_cursors: dict = {}  # id(tracer) -> next_index
        self._spans: list[dict] = []
        self._lock = threading.Lock()

    def poll(self) -> list[dict]:
        new: list[dict] = []
        if self._cluster is not None:
            cursors = {index: nxt for index, (_, nxt) in self._cursors.items()}
            for index, payload in dict(self._cluster.span_snapshots(cursors)).items():
                if not payload:
                    continue
                boot = payload.get("boot", "")
                known_boot, _ = self._cursors.get(index, ("", 0))
                if known_boot and boot != known_boot:
                    payload = self._cluster.shard_spans(index, since=0) or payload
                spans = payload.get("spans", [])
                self._cursors[index] = (payload.get("boot", ""), payload.get("next", 0))
                new.extend(spans)
        for tracer in self._tracers:
            since = self._local_cursors.get(id(tracer), 0)
            spans = tracer.spans()[since:]
            self._local_cursors[id(tracer)] = since + len(spans)
            new.extend(s.to_dict() for s in spans)
        if new:
            with self._lock:
                self._spans.extend(new)
        return new

    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def write_json(self, path) -> int:
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh, sort_keys=True)
        return len(spans)


def stitch_spans(span_dicts) -> dict:
    """Reassemble cross-process span trees from a flat span-dict pool.

    Returns ``{trace_id: {"span": Span, "children": [...]}}``; a span
    whose parent was not collected attaches under the root. The pool may
    mix span dicts and :class:`Span` objects, so a collector's pool and
    one tracer's ``spans()`` stitch alike. Traces whose root was not
    collected (e.g. the rooting process died) are returned under their
    trace id with a synthetic rootless node list, because an incident
    trace with a dead leader is exactly the one worth inspecting.
    """
    by_trace: dict[str, list[Span]] = {}
    for data in span_dicts:
        span = data if isinstance(data, Span) else Span.from_dict(data)
        by_trace.setdefault(span.trace_id, []).append(span)
    trees: dict[str, dict] = {}
    for trace_id, spans in by_trace.items():
        nodes = {s.span_id: {"span": s, "children": []} for s in spans}
        root = None
        orphans = []
        for s in spans:
            node = nodes[s.span_id]
            if s.parent_id and s.parent_id in nodes:
                nodes[s.parent_id]["children"].append(node)
            elif not s.parent_id:
                root = node if root is None else root
            else:
                orphans.append(node)
        if root is not None:
            root["children"].extend(orphans)
            trees[trace_id] = root
        elif orphans:
            head, rest = orphans[0], orphans[1:]
            head["children"].extend(rest)
            trees[trace_id] = head
    return trees


# -- dashboard -------------------------------------------------------------

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 60) -> str:
    """Compress a series into a unicode sparkline of ~width chars."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return ""
    if arr.size > width:
        # Bucket-average down to the target width.
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([
            arr[a:b].mean() if b > a else 0.0 for a, b in zip(edges, edges[1:])
        ])
    lo, hi = float(arr.min()), float(arr.max())
    span = hi - lo
    if span <= 0:
        return _BLOCKS[4] * arr.size
    idx = ((arr - lo) / span * (len(_BLOCKS) - 1)).round().astype(int)
    return "".join(_BLOCKS[i] for i in idx)


def bar(value: float, maximum: float, width: int = 40) -> str:
    """A horizontal bar scaled against *maximum*."""
    if maximum <= 0:
        return ""
    filled = int(round(min(value / maximum, 1.0) * width))
    return "█" * filled + "·" * (width - filled)



def render_dashboard(
    merged: dict,
    events=None,
    rate_history=None,
    scrape_s: float = 0.0,
    width: int = 40,
) -> str:
    """One text panel of the aggregated cluster view (``repro top``).

    *merged* is an aggregator scrape (its per-shard ``server.*`` gauges
    fill the shard table); *events* is the collector's recent tail; *rate_history* a list of records/s samples
    (sparklined). Pure function of its inputs so the watch loop and the
    tests share it.
    """
    lines: list[str] = []
    shards = merged.get("shards", [])
    lines.append(
        f"== repro cluster == shards up: {len(shards)}"
        f"  scrape: {scrape_s * 1e3:.1f} ms"
    )
    if rate_history:
        lines.append(f"produce rate: {sparkline(rate_history, width=width)} "
                     f"{rate_history[-1]:,.0f} rec/s")
    gauges = merged.get("gauges", {})
    conns = gauges.get("server.connections_active", {})
    if conns:
        requests = gauges.get("server.requests_served", {})
        lines.append("")
        lines.append("shard  conns  requests")
        for index in sorted(conns, key=str):
            lines.append(
                f"{str(index):>5}  {conns[index]:>5.0f}  {requests.get(index, 0):>8.0f}"
            )
    counters = merged.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters (summed across shards)")
        top = sorted(counters.items(), key=lambda kv: -abs(kv[1]))[:12]
        peak = max(abs(v) for _, v in top) or 1.0
        for name, value in top:
            lines.append(f"{name:<40} {bar(abs(value), peak, width)} {value:,.0f}")
    hists = merged.get("histograms", {})
    if hists:
        lines.append("")
        lines.append("latency histograms (bucket-merged)")
        for name in sorted(hists):
            snap = hists[name]
            lines.append(
                f"{name:<40} n={snap['count']:<8} "
                f"p50={snap['p50'] * 1e3:.3f}ms p99={snap['p99'] * 1e3:.3f}ms"
            )
    lag_gauges = {k: v for k, v in gauges.items() if "lag" in k or "pending" in k}
    if lag_gauges:
        lines.append("")
        lines.append("lag / pending (per shard)")
        for name in sorted(lag_gauges)[:10]:
            per_shard = lag_gauges[name]
            detail = " ".join(
                f"s{shard}={value:,.0f}" for shard, value in sorted(per_shard.items(), key=lambda kv: str(kv[0]))
            )
            lines.append(f"{name:<40} {detail}")
    if events:
        lines.append("")
        lines.append("recent control-plane events")
        for event in list(events)[-8:]:
            lines.append("  " + (event.format() if isinstance(event, Event) else str(event)))
    return "\n".join(lines)
