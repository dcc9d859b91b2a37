"""Tests for the telemetry hot-path primitives added for the reactor PR:
batched span recording, batched histogram observation, lazy span attrs,
and the lock-free sampled-out counter."""

import threading

from repro.monitoring import MetricsRegistry, Tracer, tracing
from repro.monitoring.instruments import Histogram


class TestRecordHops:
    def test_records_leaf_spans_with_shared_shape(self):
        tracer = Tracer("svc")
        root = tracer.start_trace("root")
        hops = [
            (root.context, {"offset": 0}),
            (root.context, {"offset": 1}),
            (root.context, None),
        ]
        tracer.record_hops("broker.append", hops, site="b1", start=1.0, end=2.0)
        leaves = [s for s in tracer.spans() if s.name == "broker.append"]
        assert len(leaves) == 3
        for leaf in leaves:
            assert leaf.parent_id == root.span_id
            assert leaf.site == "b1"
            assert (leaf.start, leaf.end) == (1.0, 2.0)
        assert [s.attrs.get("offset") for s in leaves][:2] == [0, 1]
        assert leaves[2].attrs == {}

    def test_unparsable_contexts_skipped(self):
        tracer = Tracer("svc")
        tracer.record_hops(
            "hop",
            [(None, None), ("", None), ("nocolon", None), (":", None), ("a:", None)],
        )
        assert tracer.spans() == []

    def test_span_ids_unique(self):
        tracer = Tracer("svc")
        tracer.record_hops("hop", [("t:p", None)] * 50)
        ids = [s.span_id for s in tracer.spans()]
        assert len(set(ids)) == 50

    def test_retention_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 5)
        tracer = Tracer("svc")
        tracer.record_hops("hop", [("t:p", None)] * 8)
        assert len(tracer.spans()) == 5
        assert tracer.stats()["spans_dropped"] == 3
        tracer.record_hops("hop", [("t:p", None)] * 2)
        assert tracer.stats()["spans_dropped"] == 5

    def test_roundtrips_through_dict(self):
        tracer = Tracer("svc")
        tracer.record_hops("hop", [("t:p", {"k": "v"})], start=1.0, end=1.5)
        [span] = tracer.spans()
        data = span.to_dict()
        assert data["attrs"] == {"k": "v"}
        assert data["end"] - data["start"] == 0.5
        assert span.duration == 0.5


class TestSampledOutCounter:
    def test_sampled_out_counted_without_lock(self):
        tracer = Tracer("svc", sample_rate=0.0)
        spans = [tracer.start_trace("op") for _ in range(10)]
        assert all(not s.recording for s in spans)
        assert tracer.stats()["traces_sampled_out"] == 10

    def test_clear_resets_sampled_out(self):
        tracer = Tracer("svc", sample_rate=0.0)
        tracer.start_trace("op")
        tracer.clear()
        assert tracer.stats()["traces_sampled_out"] == 0
        tracer.start_trace("op")
        assert tracer.stats()["traces_sampled_out"] == 1

    def test_threaded_increments_all_land(self):
        tracer = Tracer("svc", sample_rate=0.0)

        def spin():
            for _ in range(200):
                tracer.start_trace("op")

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.stats()["traces_sampled_out"] == 800


class TestLazySpanAttrs:
    def test_attrs_lazy_until_touched(self):
        tracer = Tracer("svc")
        span = tracer.start_trace("op")
        assert span._attrs is None  # no dict allocated on the hot path
        assert span.to_dict()["attrs"] == {}
        span.set_attr("k", 1)
        assert span.attrs == {"k": 1}


class TestObserveMany:
    def test_matches_loop_of_observes(self):
        values = [1e-6, 3e-4, 0.02, 0.02, 5.0, 0.0, -1.0]
        one = Histogram("a")
        for v in values:
            one.observe(v)
        many = Histogram("b")
        many.observe_many(values)
        s1, s2 = one.snapshot(), many.snapshot()
        for key in ("count", "sum", "buckets", "p50", "p95", "p99"):
            assert s1[key] == s2[key]

    def test_empty_batch_is_a_noop(self):
        hist = Histogram("h")
        hist.observe_many([])
        assert hist.count == 0

    def test_registry_histogram_exposes_batch(self):
        reg = MetricsRegistry()
        reg.histogram("lat").observe_many([0.1, 0.2])
        assert reg.histogram("lat").count == 2
