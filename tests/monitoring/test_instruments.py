"""Tests for typed instruments and the metrics registry."""

import threading

import pytest

from repro.monitoring import Counter, Gauge, Histogram, MetricsRegistry, instruments


def _bucket_layout(monkeypatch, buckets):
    """Bounds 1, 2, 4, ... (*buckets* of them) for histograms made next."""
    monkeypatch.setattr(instruments, "BUCKET_BASE", 1.0)
    monkeypatch.setattr(instruments, "BUCKET_GROWTH", 2.0)
    monkeypatch.setattr(instruments, "BUCKETS", buckets)


class TestCounter:
    def test_monotonic(self):
        c = Counter("records")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = Counter("records")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_concurrent_increments(self):
        c = Counter("records")

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 4000


class TestGauge:
    def test_set_and_read(self):
        g = Gauge("depth")
        assert g.value == 0.0
        g.set(7)
        assert g.value == 7.0

    def test_inc_dec(self):
        g = Gauge("inflight")
        g.inc()
        g.inc(2)
        g.inc(-1)
        assert g.value == 2.0


class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram("lat")
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.006)
        assert h.mean == pytest.approx(0.002)

    def test_percentiles_bracket_the_data(self):
        h = Histogram("lat")
        values = [i / 1000.0 for i in range(1, 101)]  # 1 ms .. 100 ms
        for v in values:
            h.observe(v)
        p50 = h.percentile(50)
        p99 = h.percentile(99)
        # log-bucketed estimates are exact to one growth factor
        assert 0.025 <= p50 <= 0.1
        assert p50 < p99 <= 0.1
        assert h.percentile(0) <= h.percentile(100)

    def test_bucket_edges_consistent(self, monkeypatch):
        _bucket_layout(monkeypatch, buckets=4)
        h = Histogram("lat")  # 1,2,4,8
        for v in (0.5, 1.0, 1.5, 8.0, 9.0):
            h.observe(v)
        snap = h.snapshot()
        # 0.5 and 1.0 land in the first bucket; 9.0 overflows
        assert snap["buckets"][0] == 2
        assert snap["buckets"][-1] == 1
        assert sum(snap["buckets"]) == 5

    def test_empty_percentile_is_zero(self):
        assert Histogram("lat").percentile(95) == 0.0

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("lat").percentile(101)

    def test_snapshot_percentile_keys(self):
        h = Histogram("lat")
        h.observe(0.01)
        snap = h.snapshot()
        assert {"count", "sum", "mean", "p50", "p95", "p99"} <= set(snap)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_snapshot_is_typed(self):
        reg = MetricsRegistry()
        reg.counter("in").inc(3)
        reg.gauge("depth").set(2)
        reg.histogram("lat").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"in": 3}
        assert snap["gauges"] == {"depth": 2}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_readers_are_called_at_every_snapshot(self):
        # A component keeps its number in a plain field and registers a
        # read callback once; nothing is copied into the registry.
        reg = MetricsRegistry()
        field = {"served": 1, "depth": 5}
        reg.add_reader("counters", lambda: {"served": field["served"]})
        reg.add_reader("gauges", lambda: {"depth": field["depth"]})
        assert reg.snapshot()["counters"] == {"served": 1}
        field["served"], field["depth"] = 4, 2
        snap = reg.snapshot()
        assert snap["counters"] == {"served": 4}
        assert snap["gauges"] == {"depth": 2}
        assert "repro_served 4" in reg.to_prometheus()
        reg.add_reader("gauges", lambda: {"depth": field["depth"]}, prefix="log.")
        assert reg.snapshot()["gauges"] == {"depth": 2, "log.depth": 2}
        with pytest.raises(ValueError):
            reg.add_reader("histograms", dict)

    def test_a_raising_reader_is_counted_not_fatal(self):
        reg = MetricsRegistry()
        reg.counter("in").inc()
        reg.add_reader("gauges", lambda: 1 / 0)
        assert reg.snapshot()["counters"] == {"in": 1}
        assert reg.reader_errors == 1

    def test_empty_instrument_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("")


class TestPrometheusExposition:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("records_in").inc(3)
        reg.gauge("log.depth").set(4.5)
        text = reg.to_prometheus()
        assert "# TYPE repro_records_in counter" in text
        assert "repro_records_in 3" in text
        # dots sanitized to underscores
        assert "# TYPE repro_log_depth gauge" in text
        assert "repro_log_depth 4.5" in text

    def test_histogram_buckets_cumulative(self, monkeypatch):
        _bucket_layout(monkeypatch, buckets=3)
        reg = MetricsRegistry()
        h = reg.histogram("lat")  # 1,2,4
        for v in (0.5, 1.5, 3.0, 99.0):
            h.observe(v)
        text = reg.to_prometheus()
        lines = [l for l in text.splitlines() if l.startswith("repro_lat_bucket")]
        # cumulative counts: le=1 -> 1, le=2 -> 2, le=4 -> 3, +Inf -> 4
        assert 'le="1"' in lines[0] and lines[0].endswith(" 1")
        assert 'le="2"' in lines[1] and lines[1].endswith(" 2")
        assert 'le="4"' in lines[2] and lines[2].endswith(" 3")
        assert 'le="+Inf"' in lines[3] and lines[3].endswith(" 4")
        assert "repro_lat_count 4" in text

    def test_empty_registry(self):
        reg = MetricsRegistry()
        assert reg.to_prometheus() == ""
        reg.counter("x").inc()
        assert reg.to_prometheus().startswith("# TYPE repro_x")
