"""Tests for the collector's per-message rows and the reports."""

import math

import numpy as np
import pytest

from repro.monitoring import (
    MetricsCollector,
    ThroughputReport,
    analyze_bottleneck,
    percentile,
)


class TestMetricsCollector:
    def test_stamps_link_across_stages(self):
        c = MetricsCollector("run")
        c.stamp("m1", "produce", 1.0, nbytes=10)
        c.stamp("m1", "process_end", 2.0)
        rows = c.columns()
        assert rows["message_id"] == ["m1"]
        assert rows["process_end"][0] - rows["produce"][0] == 1.0
        assert rows["nbytes"][0] == 10

    def test_partition_recorded(self):
        c = MetricsCollector("run")
        c.stamp("m1", "produce", 1.0, partition=3)
        assert c.columns()["partition"].tolist() == [3]

    def test_complete_only_filter(self):
        # Every row is read back; the reports count only the complete ones
        # (produce and process_end), an unstamped stage reading NaN.
        c = MetricsCollector("run")
        c.stamp("m1", "produce", 1.0)
        c.stamp("m2", "produce", 1.0)
        c.stamp("m2", "process_end", 2.0)
        rows = c.columns()
        assert rows["message_id"] == ["m1", "m2"]
        assert math.isnan(rows["process_end"][0]) and rows["process_end"][1] == 2.0
        assert rows["partition"].tolist() == [-1, -1]
        assert ThroughputReport.from_collector(c).messages == 1

    def test_nbytes_taken_from_first_stamped(self):
        # A stage stamped twice keeps its last time; the size is the first given.
        c = MetricsCollector("run")
        c.stamp("m1", "consume", 1.0, nbytes=64)
        c.stamp("m1", "produce", 0.5, nbytes=48)
        c.stamp("m1", "consume", 2.0, nbytes=80)
        rows = c.columns()
        assert (rows["produce"][0], rows["consume"][0], rows["nbytes"][0]) == (0.5, 2.0, 64)

    def test_unknown_stage_rejected(self):
        c = MetricsCollector("run")
        with pytest.raises(ValueError, match="unknown stage"):
            c.stamp("m1", "prodcue", 1.0)
        with pytest.raises(ValueError, match="unknown stage"):
            c.stamp_many(["m1"], "sent", 1.0)
        assert c.columns()["message_id"] == []

    def test_empty_collector_has_empty_columns(self):
        rows = MetricsCollector("run").columns()
        assert rows["message_id"] == []
        assert rows["produce"].shape == rows["nbytes"].shape == (0,)

    def test_counters(self):
        c = MetricsCollector("run")
        c.incr("dropped")
        c.incr("dropped", 2)
        assert c.counter("dropped") == 3
        assert c.counters() == {"dropped": 3}

    def test_thread_safety(self):
        import threading

        c = MetricsCollector("run")

        def stamp_many(offset):
            for i in range(500):
                c.stamp(f"m{offset}-{i}", "produce", float(i))

        threads = [threading.Thread(target=stamp_many, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(c.columns()["message_id"]) == 2000


class TestCounterRead:
    def test_unreported_name_reads_zero(self):
        assert MetricsCollector("run").counter("nope") == 0.0


class TestSplitCounters:
    def test_gauges_separated_from_counters(self):
        # The collector holds neither: both live, typed, in its registry.
        c = MetricsCollector("run")
        c.incr("records", 3)
        c.registry.gauge("peak_inflight").set(7)
        snap = c.registry.snapshot()
        assert snap["counters"] == {"records": 3}
        assert snap["gauges"] == {"peak_inflight": 7.0}

    def test_merged_view_keeps_legacy_keys(self):
        # Bench guards read both kinds from counters(); both must stay
        # visible under their old names.
        c = MetricsCollector("run")
        c.incr("records", 3)
        c.registry.gauge("peak_inflight").set(7)
        assert c.counters() == {"records": 3, "peak_inflight": 7.0}

    def test_name_collision_across_kinds_raises(self):
        # One registry, one type per name: a counter reported as a
        # gauge is a wiring bug, not a merge rule.
        c = MetricsCollector("run")
        c.registry.gauge("x").set(99)
        with pytest.raises(TypeError):
            c.incr("x", 1)
        assert c.counter("x") == 99


class TestRegistryForwarding:
    def _registry(self):
        from repro.monitoring import MetricsRegistry

        return MetricsRegistry()

    def test_incr_feeds_counter_instrument(self):
        reg = self._registry()
        c = MetricsCollector("run", registry=reg)
        c.incr("dropped", 2)
        c.incr("dropped")
        assert reg.counter("dropped").value == 3

    def test_negative_incr_skips_monotonic_instrument(self):
        reg = self._registry()
        c = MetricsCollector("run", registry=reg)
        c.incr("adjustment", 2)
        with pytest.raises(ValueError):
            c.incr("adjustment", -1)
        assert c.counter("adjustment") == 2  # the instrument stays monotonic

    def test_process_end_stamps_feed_latency_histogram(self):
        reg = self._registry()
        c = MetricsCollector("run", registry=reg)
        c.stamp("m1", "produce", 1.0)
        c.stamp("m1", "process_end", 1.5)
        c.stamp_many(["m2", "m3"], "produce", 2.0)
        c.stamp_many(["m2", "m3"], "process_end", 2.25)
        hist = reg.histogram("pipeline_e2e_latency_s")
        assert hist.count == 3
        assert hist.sum == pytest.approx(1.0)

    def test_no_registry_is_default(self):
        # Given none, the collector makes its own: there is always one.
        c = MetricsCollector("run")
        c.stamp("m1", "produce", 1.0)
        c.stamp("m1", "process_end", 1.5)
        assert c.registry.histogram("pipeline_e2e_latency_s").count == 1
        assert c.registry is not MetricsCollector("other").registry


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))


class TestThroughputReport:
    def _collector_with_messages(self, n=10, latency=0.1, nbytes=1000, gap=0.01):
        c = MetricsCollector("run")
        for i in range(n):
            start = i * gap
            c.stamp(f"m{i}", "produce", start, nbytes=nbytes)
            c.stamp(f"m{i}", "broker_in", start + latency * 0.2)
            c.stamp(f"m{i}", "consume", start + latency * 0.5)
            c.stamp(f"m{i}", "process_start", start + latency * 0.6)
            c.stamp(f"m{i}", "process_end", start + latency)
        return c

    def test_counts_and_throughput(self):
        c = self._collector_with_messages(n=10, latency=0.1, nbytes=1000, gap=0.01)
        report = ThroughputReport.from_collector(c)
        assert report.messages == 10
        assert report.total_bytes == 10_000
        # Duration: first produce (0) to last process_end (0.09 + 0.1).
        assert report.duration_s == pytest.approx(0.19)
        assert report.throughput_msgs_s == pytest.approx(10 / 0.19, rel=1e-6)

    def test_latency_stats(self):
        c = self._collector_with_messages(latency=0.2)
        report = ThroughputReport.from_collector(c)
        assert report.latency_mean_s == pytest.approx(0.2)
        assert report.latency_p50_s == pytest.approx(0.2)

    def test_stage_means(self):
        c = self._collector_with_messages(latency=0.1)
        report = ThroughputReport.from_collector(c)
        assert report.stage_means_s["produce->broker_in"] == pytest.approx(0.02)
        assert report.stage_means_s["process_start->process_end"] == pytest.approx(0.04)

    def test_empty_collector(self):
        report = ThroughputReport.from_collector(MetricsCollector("run"))
        assert report.messages == 0
        assert math.isnan(report.latency_mean_s)

    def test_explicit_duration(self):
        c = self._collector_with_messages(n=10)
        report = ThroughputReport.from_collector(c, duration_s=2.0)
        assert report.throughput_msgs_s == 5.0

    def test_row_is_flat(self):
        c = self._collector_with_messages()
        row = ThroughputReport.from_collector(c).row()
        assert set(row) >= {"messages", "MB/s", "lat_mean_ms"}


class TestBottleneckAnalysis:
    def test_processing_bound(self):
        c = MetricsCollector("run")
        for i in range(5):
            c.stamp(f"m{i}", "produce", i * 1.0)
            c.stamp(f"m{i}", "broker_in", i * 1.0 + 0.01)
            c.stamp(f"m{i}", "dequeue", i * 1.0 + 0.015)
            c.stamp(f"m{i}", "consume", i * 1.0 + 0.02)
            c.stamp(f"m{i}", "process_start", i * 1.0 + 0.02)
            c.stamp(f"m{i}", "process_end", i * 1.0 + 1.0)
        result = analyze_bottleneck(c)
        assert result["bottleneck"] == "processing"

    def test_transfer_bound(self):
        c = MetricsCollector("run")
        for i in range(5):
            c.stamp(f"m{i}", "produce", i * 1.0)
            c.stamp(f"m{i}", "broker_in", i * 1.0 + 0.5)   # slow uplink
            c.stamp(f"m{i}", "dequeue", i * 1.0 + 0.5)
            c.stamp(f"m{i}", "consume", i * 1.0 + 0.9)     # slow downlink
            c.stamp(f"m{i}", "process_start", i * 1.0 + 0.9)
            c.stamp(f"m{i}", "process_end", i * 1.0 + 0.95)
        result = analyze_bottleneck(c)
        assert result["bottleneck"] == "transfer"
        assert result["mean_transfer_s"] == pytest.approx(0.9)

    def test_queue_wait_blamed_on_processing(self):
        # Broker backlog (broker_in -> dequeue) caused by slow consumers
        # must attribute to processing, not transfer (Fig. 2 reasoning).
        c = MetricsCollector("run")
        for i in range(5):
            c.stamp(f"m{i}", "produce", i * 1.0)
            c.stamp(f"m{i}", "broker_in", i * 1.0 + 0.01)
            c.stamp(f"m{i}", "dequeue", i * 1.0 + 2.0)     # long queue wait
            c.stamp(f"m{i}", "consume", i * 1.0 + 2.01)
            c.stamp(f"m{i}", "process_start", i * 1.0 + 2.01)
            c.stamp(f"m{i}", "process_end", i * 1.0 + 2.5)
        result = analyze_bottleneck(c)
        assert result["bottleneck"] == "processing"
        assert result["mean_broker_queue_s"] == pytest.approx(1.99)

    def test_gaps_never_stamped_read_zero(self):
        c = MetricsCollector("run")
        c.stamp("m1", "produce", 1.0)
        c.stamp("m1", "process_end", 2.0)
        result = analyze_bottleneck(c)
        assert result["bottleneck"] == "processing"
        assert result["mean_transfer_s"] == result["mean_processing_s"] == 0.0
        assert result["mean_broker_queue_s"] == 0.0
        assert ThroughputReport.from_collector(c).stage_means_s == {}

    def test_no_traces(self):
        assert analyze_bottleneck(MetricsCollector("run"))["bottleneck"] == "unknown"


class TestStampMany:
    def test_equivalent_to_per_message_stamps(self):
        batched = MetricsCollector("run")
        looped = MetricsCollector("run")
        ids = [f"m{i}" for i in range(8)]
        sizes = [100 * (i + 1) for i in range(8)]
        batched.stamp_many(ids, "consume", 1.5, nbytes=sizes, partition=3)
        for mid, nb in zip(ids, sizes):
            looped.stamp(mid, "consume", 1.5, nbytes=nb, partition=3)
        b, l = batched.columns(), looped.columns()
        assert b["message_id"] == l["message_id"] == ids
        assert b["consume"].tolist() == l["consume"].tolist() == [1.5] * 8
        assert b["nbytes"].tolist() == l["nbytes"].tolist() == sizes
        assert b["partition"].tolist() == l["partition"].tolist() == [3] * 8

    def test_scalar_nbytes_broadcasts(self):
        c = MetricsCollector("run")
        c.stamp_many(["a", "b"], "dequeue", 2.0, nbytes=64)
        assert c.columns()["nbytes"].tolist() == [64, 64]

    def test_misaligned_sequence_rejected(self):
        c = MetricsCollector("run")
        with pytest.raises(ValueError):
            c.stamp_many(["a", "b", "c"], "dequeue", 2.0, nbytes=[1, 2])
        with pytest.raises(ValueError):
            c.stamp_many(["a", "b"], "dequeue", 2.0, partition=[0])

    def test_empty_batch_is_noop(self):
        c = MetricsCollector("run")
        c.stamp_many([], "dequeue", 1.0)
        assert c.columns()["message_id"] == []

    def test_concurrent_stamp_many_hammer(self):
        import threading

        c = MetricsCollector("run")
        stages = ["dequeue", "consume", "process_start", "process_end"]
        n_threads, per_thread, batch = 4, 50, 16

        def hammer(k):
            stage = stages[k]
            for i in range(per_thread):
                ids = [f"m{i}-{j}" for j in range(batch)]
                c.stamp_many(ids, stage, float(i), nbytes=list(range(batch)))
                c.incr(f"batches_{stage}")

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All threads hammered the SAME id set on different stages: every
        # row must exist exactly once and carry all four stamps.
        rows = c.columns()
        assert sorted(rows["message_id"]) == sorted(
            f"m{i}-{j}" for i in range(per_thread) for j in range(batch)
        )
        for stage in stages:
            assert not np.isnan(rows[stage]).any()
        assert rows["nbytes"].tolist() == [int(m.split("-")[1]) for m in rows["message_id"]]
        for stage in stages:
            assert c.counters()[f"batches_{stage}"] == per_thread
