"""Unit tests for the cluster observability plane: snapshot merging,
the federated aggregator, the event collector's boot-aware cursors, and
cross-process span stitching — all against fake in-memory clusters, so
the merge/cursor/stitch logic is exercised without process spawning."""

from repro.monitoring.cluster import (
    ClusterEventCollector,
    ClusterMetricsAggregator,
    ClusterTraceCollector,
    merge_histogram_snapshots,
    merge_metric_snapshots,
    render_dashboard,
    stitch_spans,
)
from repro.monitoring.events import EventJournal
from repro.monitoring.instruments import Histogram, MetricsRegistry
from repro.monitoring.tracing import Span, Tracer


def _hist_snapshot(values):
    hist = Histogram("h")
    for v in values:
        hist.observe(v)
    return hist.snapshot()


class TestHistogramMerge:
    def test_merge_is_elementwise_and_count_exact(self):
        a = _hist_snapshot([0.001, 0.002, 0.004])
        b = _hist_snapshot([0.008, 0.016])
        merged = merge_histogram_snapshots(a, b)
        assert merged["count"] == 5
        assert merged["sum"] == a["sum"] + b["sum"]
        assert merged["buckets"] == [x + y for x, y in zip(a["buckets"], b["buckets"])]
        assert merged["min"] == 0.001
        assert merged["max"] == 0.016

    def test_merged_percentiles_match_single_histogram(self):
        values = [0.001 * (i + 1) for i in range(100)]
        one = _hist_snapshot(values)
        merged = merge_histogram_snapshots(
            _hist_snapshot(values[:50]), _hist_snapshot(values[50:])
        )
        for q in ("p50", "p95", "p99"):
            assert abs(merged[q] - one[q]) < 1e-9

    def test_split_observations_merge_to_one_histogram(self):
        # A genuine 0.0 minimum is an observation, not "empty": only a
        # snapshot's count says it holds nothing.
        for left, right in (
            ([0.0, 1e-3], [0.5]),
            ([0.5], [0.0, 1e-3]),
            ([], [0.0, 0.25]),
            ([0.0], []),
        ):
            one = _hist_snapshot(left + right)
            merged = merge_histogram_snapshots(
                _hist_snapshot(left), _hist_snapshot(right)
            )
            for key in ("count", "min", "max", "p50", "p99"):
                assert merged[key] == one[key], (left, right, key)


class TestMergeMetricSnapshots:
    def _snap(self, shard, counters=None, gauges=None):
        return {
            "shard": shard,
            "counters": counters or {},
            "gauges": gauges or {},
            "histograms": {},
        }

    def test_counters_sum_gauges_keep_shard_key(self):
        merged = merge_metric_snapshots({
            0: self._snap(0, counters={"records_in": 10}, gauges={"depth": 3}),
            1: self._snap(1, counters={"records_in": 5}, gauges={"depth": 7}),
        })
        assert merged["counters"]["records_in"] == 15
        assert merged["gauges"]["depth"] == {0: 3, 1: 7}
        assert merged["shards"] == [0, 1]

    def test_unreachable_shards_are_skipped(self):
        merged = merge_metric_snapshots({
            0: self._snap(0, counters={"records_in": 1}),
            1: None,
        })
        assert merged["shards"] == [0]
        assert merged["counters"]["records_in"] == 1


class _FakeCluster:
    """Duck-typed ClusterBroker: serves canned shard payloads."""

    def __init__(self, shards):
        self.shards = shards  # {index: (journal, registry, tracer)}

    def metrics_snapshots(self):
        out = {}
        for index, (journal, registry, tracer) in self.shards.items():
            if registry is None:
                out[index] = None
                continue
            snap = registry.snapshot()
            snap["shard"] = index
            out[index] = snap
        return out

    def shard_events(self, index, since=0):
        journal = self.shards[index][0]
        if journal is None:
            return None
        return {
            "shard": index,
            "boot": journal.boot,
            "next_seq": journal.next_seq,
            "events": [e.to_dict() for e in journal.events_since(since)],
        }

    def events_snapshots(self, cursors=None):
        cursors = cursors or {}
        return {
            index: self.shard_events(index, cursors.get(index, 0))
            for index in self.shards
        }

    def shard_spans(self, index, since=0):
        journal, _, tracer = self.shards[index]
        if tracer is None:
            return None
        spans = tracer.spans()
        return {
            "shard": index,
            "boot": journal.boot,
            "next": len(spans),
            "spans": [s.to_dict() for s in spans[since:]],
        }

    def span_snapshots(self, cursors=None):
        cursors = cursors or {}
        return {
            index: self.shard_spans(index, cursors.get(index, 0))
            for index in self.shards
        }


def _shard(origin):
    journal = EventJournal(origin=origin)
    registry = MetricsRegistry()
    tracer = Tracer(service=origin)
    return journal, registry, tracer


class TestClusterMetricsAggregator:
    def test_scrape_merges_and_counts_shards(self):
        s0, s1 = _shard("shard-0"), _shard("shard-1")
        s0[1].counter("records_in").inc(4)
        s1[1].counter("records_in").inc(6)
        agg = ClusterMetricsAggregator(_FakeCluster({0: s0, 1: s1}))
        merged = agg.scrape()
        assert merged["counters"]["records_in"] == 10
        assert agg.merged() == merged
        assert agg.last_scrape_s >= 0.0

    def test_prometheus_export_labels_gauges_by_shard(self):
        s0, s1 = _shard("shard-0"), _shard("shard-1")
        s0[1].gauge("pending").set(1)
        s1[1].gauge("pending").set(2)
        s0[1].counter("flushes").inc(5)
        s0[1].histogram("lat").observe(0.003)
        agg = ClusterMetricsAggregator(_FakeCluster({0: s0, 1: s1}))
        agg.scrape()
        text = agg.to_prometheus()
        assert 'repro_pending{shard="0"} 1' in text
        assert 'repro_pending{shard="1"} 2' in text
        assert "repro_flushes 5" in text
        assert "repro_lat_count 1" in text
        assert "repro_cluster_shards_scraped 2" in text

    def test_sample_flattens_for_the_sampler(self):
        s0 = _shard("shard-0")
        s0[1].counter("records_in").inc(7)
        s0[1].gauge("depth").set(9)
        agg = ClusterMetricsAggregator(_FakeCluster({0: s0}))
        flat = agg.sample()
        assert flat["cluster.records_in"] == 7
        assert flat["cluster.depth.max"] == 9
        assert flat["cluster.shards_scraped"] == 1.0


class TestClusterEventCollector:
    def test_poll_is_incremental(self):
        s0 = _shard("shard-0")
        cluster = _FakeCluster({0: s0})
        collector = ClusterEventCollector(cluster=cluster)
        s0[0].emit("shard_started", shard=0)
        assert [e.type for e in collector.poll()] == ["shard_started"]
        assert collector.poll() == []
        s0[0].emit("isr_join", follower=1)
        assert [e.type for e in collector.poll()] == ["isr_join"]
        assert [e.type for e in collector.events()] == ["shard_started", "isr_join"]

    def test_boot_change_triggers_full_redrain(self):
        s0 = _shard("shard-0")
        cluster = _FakeCluster({0: s0})
        collector = ClusterEventCollector(cluster=cluster)
        s0[0].emit("shard_started", shard=0)
        collector.poll()
        # Respawn: a fresh journal restarts seq at 1 with a new boot
        # token. A seq-only cursor would skip the first event.
        fresh = EventJournal(origin="shard-0")
        cluster.shards[0] = (fresh, s0[1], s0[2])
        fresh.emit("recovery_completed", topic="t", partition=0)
        assert [e.type for e in collector.poll()] == ["recovery_completed"]

    def test_local_journals_merge_into_the_timeline(self):
        supervisor = EventJournal(origin="supervisor")
        collector = ClusterEventCollector(journals=[supervisor])
        supervisor.emit("shard_died", shard=1)
        supervisor.emit("leader_elected", topic="t", partition=0)
        assert [e.type for e in collector.poll()] == [
            "shard_died", "leader_elected",
        ]
        assert collector.events()[0].format().endswith("shard_died shard=1")

    def test_write_jsonl_round_trips(self, tmp_path):
        supervisor = EventJournal(origin="supervisor")
        supervisor.emit("shard_respawned", shard=1, epoch=3)
        collector = ClusterEventCollector(journals=[supervisor])
        collector.poll()
        path = tmp_path / "events.jsonl"
        assert collector.write_jsonl(path) == 1
        from repro.monitoring.events import read_jsonl

        assert read_jsonl(path)[0].fields == {"shard": 1, "epoch": 3}


class TestTraceStitching:
    def _span(self, trace, span_id, parent, name, site, start=0.0, end=1.0):
        s = Span(None, trace, span_id, parent, name, site=site, start=start)
        s.end = end
        return s

    def test_cross_process_tree_reassembles(self):
        pool = [
            self._span("t1", "a", "", "produce", "client", 0.0, 5.0).to_dict(),
            self._span("t1", "b", "a", "broker.append", "shard-0", 1.0, 2.0).to_dict(),
            self._span("t1", "c", "a", "replica.append", "shard-1", 2.0, 3.0).to_dict(),
        ]
        trees = stitch_spans(pool)
        root = trees["t1"]
        assert root["span"].name == "produce"
        children = sorted(n["span"].name for n in root["children"])
        assert children == ["broker.append", "replica.append"]

    def test_rootless_trace_survives(self):
        pool = [
            self._span("t2", "b", "gone", "broker.append", "shard-0").to_dict(),
            self._span("t2", "c", "gone", "replica.append", "shard-1").to_dict(),
        ]
        trees = stitch_spans(pool)
        assert "t2" in trees  # the dead-leader trace is the interesting one

    def test_collector_polls_remote_and_local_tracers(self):
        s0 = _shard("shard-0")
        with s0[2].start_trace("broker.append", site="shard-0"):
            pass
        local = Tracer(service="client")
        with local.start_trace("produce", site="client"):
            pass
        collector = ClusterTraceCollector(
            cluster=_FakeCluster({0: s0}), tracers=[local]
        )
        names = sorted(s["name"] for s in collector.poll())
        assert names == ["broker.append", "produce"]
        assert collector.poll() == []  # cursors advanced


class TestRenderDashboard:
    def test_renders_all_sections(self):
        s0 = _shard("shard-0")
        s0[1].counter("broker.records_in").inc(100)
        s0[1].gauge("replication.hwm_lag.t.0").set(2)
        s0[1].gauge("server.connections_active").set(2)
        s0[1].gauge("server.requests_served").set(9)
        s0[1].histogram("storage.fsync_latency_seconds").observe(0.002)
        agg = ClusterMetricsAggregator(_FakeCluster({0: s0}))
        merged = agg.scrape()
        journal = EventJournal(origin="sup")
        journal.emit("leader_elected", topic="t", partition=0, epoch=2)
        panel = render_dashboard(
            merged,
            events=journal.events(),
            rate_history=[10.0, 50.0, 100.0],
            scrape_s=0.004,
        )
        assert "shards up: 1" in panel
        assert "    0      2         9" in panel  # shard / conns / requests
        assert "broker.records_in" in panel
        assert "replication.hwm_lag.t.0" in panel
        assert "storage.fsync_latency_seconds" in panel
        assert "leader_elected" in panel
        assert "rec/s" in panel
