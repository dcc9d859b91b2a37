"""Tests for report/trace exporters."""

import csv
import json

import pytest

from repro.monitoring import MetricsCollector, ThroughputReport
from repro.monitoring.export import (
    report_rows,
    traces_to_json,
    write_reports_csv,
)


@pytest.fixture
def collector():
    c = MetricsCollector("run-x")
    for i in range(4):
        start = i * 0.1
        c.stamp(f"m{i}", "produce", start, nbytes=100, partition=i % 2)
        c.stamp(f"m{i}", "broker_in", start + 0.01)
        c.stamp(f"m{i}", "dequeue", start + 0.02)
        c.stamp(f"m{i}", "consume", start + 0.03)
        c.stamp(f"m{i}", "process_start", start + 0.03)
        c.stamp(f"m{i}", "process_end", start + 0.05, nbytes=100)
    return c


@pytest.fixture
def report(collector):
    return ThroughputReport.from_collector(collector)


class TestReportRows:
    def test_labelled_rows(self, report):
        rows = report_rows([report], labels=["baseline"])
        assert rows[0]["label"] == "baseline"
        assert rows[0]["messages"] == 4

    def test_default_label_is_run_id(self, report):
        rows = report_rows([report])
        assert rows[0]["label"] == "run-x"

    def test_stage_columns(self, report):
        rows = report_rows([report])
        assert any(k.startswith("stage:") for k in rows[0])

    def test_label_count_mismatch(self, report):
        with pytest.raises(ValueError):
            report_rows([report], labels=["a", "b"])


class TestCsv:
    def test_csv_string_parses(self, report, tmp_path):
        path = write_reports_csv(tmp_path / "out.csv", [report, report], labels=["a", "b"])
        text = path.read_text()
        rows = list(csv.DictReader(text.splitlines()))
        assert [r["label"] for r in rows] == ["a", "b"]

    def test_write_csv_file(self, report, tmp_path):
        path = write_reports_csv(tmp_path / "out.csv", [report])
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == 1
        assert float(rows[0]["MB/s"]) > 0

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_reports_csv(tmp_path / "out.csv", [])


class TestTraceJson:
    def test_json_shape(self, collector):
        payload = json.loads(traces_to_json(collector))
        assert len(payload["traces"]) == 4
        trace = payload["traces"][0]
        assert trace["run_id"] == "run-x"
        assert "produce" in trace["timings"]
        assert trace["end_to_end_latency_s"] == pytest.approx(0.05)

    def test_incomplete_traces_filtered(self, collector):
        collector.stamp("dangling", "produce", 99.0)
        payload = json.loads(traces_to_json(collector, complete_only=True))
        assert len(payload["traces"]) == 4
        payload_all = json.loads(traces_to_json(collector, complete_only=False))
        assert len(payload_all["traces"]) == 5

    def test_write_file(self, collector, tmp_path):
        path = tmp_path / "traces.json"
        path.write_text(traces_to_json(collector))
        assert json.loads(path.read_text())["traces"]


class TestTraceJsonRoundTrip:
    def test_reparsed_dump_matches_source_collector(self, collector):
        payload = json.loads(traces_to_json(collector))
        by_id = {t["message_id"]: t for t in payload["traces"]}
        for trace in collector.traces(complete_only=True):
            dumped = by_id[trace.message_id]
            assert dumped["partition"] == trace.partition
            assert dumped["end_to_end_latency_s"] == pytest.approx(
                trace.end_to_end_latency
            )
            for stage, timing in trace.timings.items():
                assert dumped["timings"][stage]["t"] == timing.timestamp
                assert dumped["timings"][stage]["nbytes"] == timing.nbytes
                assert dumped["timings"][stage]["site"] == timing.site

    def test_csv_stage_columns_match_report(self, report, tmp_path):
        text = write_reports_csv(tmp_path / "out.csv", [report], labels=["x"]).read_text()
        row = next(iter(csv.DictReader(text.splitlines())))
        for stage, seconds in report.stage_means_s.items():
            assert float(row[f"stage:{stage}_ms"]) == pytest.approx(
                seconds * 1e3, abs=1e-3
            )


class TestSpanJsonRoundTrip:
    def _tracer(self):
        from repro.monitoring import Tracer

        tracer = Tracer("svc")
        root = tracer.start_trace("produce", site="edge", start=1.0)
        child = tracer.start_span("append", parent=root, site="broker", start=1.1)
        child.set_attr("offset", 3)
        child.finish(end=1.2)
        root.finish(end=1.5)
        return tracer

    @staticmethod
    def _parse(text):
        from repro.monitoring import Span

        return {
            trace_id: [Span.from_dict(obj) for obj in spans]
            for trace_id, spans in json.loads(text)["traces"].items()
        }

    def test_spans_roundtrip(self):
        from repro.monitoring.export import spans_to_json

        tracer = self._tracer()
        parsed = self._parse(spans_to_json(tracer))
        (trace_id,) = parsed.keys()
        assert trace_id == tracer.trace_ids()[0]
        source = {s.span_id: s for s in tracer.spans()}
        assert len(parsed[trace_id]) == len(source)
        for span in parsed[trace_id]:
            original = source[span.span_id]
            assert span.name == original.name
            assert span.site == original.site
            assert span.parent_id == original.parent_id
            assert span.start == original.start
            assert span.end == original.end
            assert span.attrs == original.attrs

    def test_dump_carries_tracer_stats(self):
        from repro.monitoring.export import spans_to_json

        payload = json.loads(spans_to_json(self._tracer()))
        assert payload["stats"]["spans_retained"] == 2

    def test_write_spans_file(self, tmp_path):
        from repro.monitoring.export import write_spans_json

        tracer = self._tracer()
        path = write_spans_json(tmp_path / "spans.json", tracer)
        assert self._parse(path.read_text())


class TestSeriesJsonlRoundTrip:
    def test_series_roundtrip_matches_sampler(self, tmp_path):
        from repro.monitoring import TelemetrySampler
        from repro.monitoring.export import series_from_jsonl, write_series_jsonl

        sampler = TelemetrySampler()
        level = {"v": 0}
        sampler.add_source(lambda: {"lag": 10 - level["v"], "depth": level["v"]})
        for v in (2, 6, 10):
            level["v"] = v
            sampler.sample_now()
        path = write_series_jsonl(tmp_path / "series.jsonl", sampler)
        parsed = series_from_jsonl(path.read_text())
        assert parsed == sampler.snapshot()
        assert [p[1] for p in parsed["lag"]] == [8.0, 4.0, 0.0]
