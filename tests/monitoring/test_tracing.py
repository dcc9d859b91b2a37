"""Tests for span-based distributed tracing."""

import threading

import pytest

from repro.monitoring import NOOP_SPAN, Span, Tracer, stitch_spans, tracing
from repro.monitoring.tracing import TRACE_HEADER, parse_context


class TestSpanBasics:
    def test_root_span_has_no_parent(self):
        tracer = Tracer("svc")
        span = tracer.start_trace("op")
        assert span.parent_id == ""
        assert span.trace_id and span.span_id
        assert span.trace_id != span.span_id

    def test_finish_records_into_tracer(self):
        tracer = Tracer("svc")
        span = tracer.start_trace("op", start=1.0)
        assert tracer.spans() == []  # unfinished spans are not retained
        span.finish(end=2.5)
        assert [s.name for s in tracer.spans()] == ["op"]
        assert span.duration == pytest.approx(1.5)

    def test_double_finish_keeps_first_end(self):
        tracer = Tracer("svc")
        span = tracer.start_trace("op", start=1.0)
        span.finish(end=2.0)
        span.finish(end=9.0)
        assert span.end == 2.0
        assert len(tracer.spans()) == 1

    def test_context_manager_finishes_and_tags_errors(self):
        tracer = Tracer("svc")
        with pytest.raises(RuntimeError):
            with tracer.start_trace("op") as span:
                raise RuntimeError("boom")
        assert span.attrs["error"] == "RuntimeError"
        assert span.end is not None

    def test_child_span_links_to_parent(self):
        tracer = Tracer("svc")
        root = tracer.start_trace("root")
        child = tracer.start_span("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_span_roundtrips_through_dict(self):
        tracer = Tracer("svc")
        span = tracer.start_span("op", site="edge", start=3.0)
        span.set_attr("offset", 7)
        span.finish(end=4.0)
        clone = Span.from_dict(span.to_dict())
        assert clone.trace_id == span.trace_id
        assert clone.span_id == span.span_id
        assert clone.name == "op"
        assert clone.site == "edge"
        assert clone.attrs == {"offset": 7}
        assert clone.duration == pytest.approx(1.0)


class TestContextPropagation:
    def test_inject_extract_roundtrip(self):
        tracer = Tracer("svc")
        span = tracer.start_trace("op")
        headers = tracer.inject(span, {"message_id": "m1"})
        assert headers[TRACE_HEADER] == span.context
        ctx = Tracer.extract(headers)
        assert parse_context(ctx) == (span.trace_id, span.span_id)

    def test_inject_into_none_creates_dict(self):
        tracer = Tracer("svc")
        span = tracer.start_trace("op")
        headers = tracer.inject(span, None)
        assert headers == {TRACE_HEADER: span.context}

    def test_child_from_context_string(self):
        tracer = Tracer("svc")
        root = tracer.start_trace("root")
        child = tracer.start_span("remote", parent=root.context, site="broker")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.site == "broker"

    def test_garbage_context_starts_new_trace(self):
        tracer = Tracer("svc")
        span = tracer.start_span("op", parent="not-a-context")
        assert span.parent_id == ""
        assert span.recording

    def test_extract_missing_or_empty(self):
        assert Tracer.extract(None) is None
        assert Tracer.extract({}) is None
        assert Tracer.extract({TRACE_HEADER: ""}) is None

    def test_parse_context_rejects_malformed(self):
        assert parse_context("nocolon") is None
        assert parse_context(":half") is None
        assert parse_context("half:") is None
        assert parse_context(123) is None


class TestSampling:
    def test_sample_rate_zero_returns_noop(self):
        tracer = Tracer("svc", sample_rate=0.0)
        span = tracer.start_trace("op")
        assert span is NOOP_SPAN
        assert not span.recording
        assert tracer.stats()["traces_sampled_out"] == 1

    def test_noop_span_children_and_inject_are_noops(self):
        tracer = Tracer("svc", sample_rate=0.0)
        root = tracer.start_trace("op")
        child = tracer.start_span("child", parent=root)
        assert child is NOOP_SPAN
        headers = {"message_id": "m1"}
        assert tracer.inject(root, headers) is headers
        assert TRACE_HEADER not in headers
        root.finish()
        assert tracer.spans() == []

    def test_partial_sampling_is_deterministic_with_seed(self, monkeypatch):
        monkeypatch.setattr(tracing, "SAMPLE_SEED", 42)
        a = Tracer("svc", sample_rate=0.5)
        b = Tracer("svc", sample_rate=0.5)
        decisions_a = [a.start_trace("op") is NOOP_SPAN for _ in range(100)]
        decisions_b = [b.start_trace("op") is NOOP_SPAN for _ in range(100)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer("svc", sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer("svc", sample_rate=-0.1)


class TestRetention:
    def test_bounded_retention_counts_drops(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 5)
        tracer = Tracer("svc")
        for _ in range(8):
            tracer.start_trace("op").finish()
        stats = tracer.stats()
        assert stats["spans_retained"] == 5
        assert stats["spans_dropped"] == 3

    def test_clear_resets(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_SPANS", 2)
        tracer = Tracer("svc")
        for _ in range(4):
            tracer.start_trace("op").finish()
        tracer.clear()
        stats = tracer.stats()
        assert stats == {
            "spans_retained": 0,
            "spans_dropped": 0,
            "traces_sampled_out": 0,
        }

    def test_concurrent_recording(self):
        tracer = Tracer("svc")

        def record():
            for _ in range(200):
                tracer.start_trace("op").finish()

        threads = [threading.Thread(target=record) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.stats()["spans_retained"] == 800
        # ids must be unique even under contention
        ids = [s.span_id for s in tracer.spans()]
        assert len(set(ids)) == len(ids)


class TestSpanTree:
    def test_tree_reconstructs_hierarchy(self):
        tracer = Tracer("svc")
        root = tracer.start_trace("produce", site="edge")
        broker = tracer.start_span("append", parent=root, site="broker")
        consume = tracer.start_span("poll", parent=root, site="cloud")
        leaf = tracer.start_span("process", parent=consume, site="cloud")
        for s in (leaf, consume, broker, root):
            s.finish()
        tree = stitch_spans(tracer.spans())[root.trace_id]
        assert tree["span"].name == "produce"
        names = sorted(ch["span"].name for ch in tree["children"])
        assert names == ["append", "poll"]
        poll_node = next(
            ch for ch in tree["children"] if ch["span"].name == "poll"
        )
        assert [n["span"].name for n in poll_node["children"]] == ["process"]

    def test_orphans_attach_under_root(self):
        tracer = Tracer("svc")
        root = tracer.start_trace("root")
        # child of a span that was never retained (e.g. lost to retention)
        orphan = tracer.start_span(
            "orphan", parent=f"{root.trace_id}:missing-parent"
        )
        orphan.finish()
        root.finish()
        tree = stitch_spans(tracer.spans())[root.trace_id]
        assert [ch["span"].name for ch in tree["children"]] == ["orphan"]

    def test_trace_ids_in_first_seen_order(self):
        tracer = Tracer("svc")
        first = tracer.start_trace("a")
        second = tracer.start_trace("b")
        first.finish()
        second.finish()
        assert tracer.trace_ids() == [first.trace_id, second.trace_id]
