"""Report and trace exporters.

Experiments want machine-readable artefacts next to the printed tables:
CSV rows (one per run) for spreadsheet-style sweeps, and JSON trace dumps
for offline latency analysis. Both formats are plain stdlib so exports
work in constrained environments.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from repro.monitoring.collector import MetricsCollector
from repro.monitoring.metrics import STAGES
from repro.monitoring.report import ThroughputReport


def report_rows(reports: Iterable[ThroughputReport], labels: Iterable[str] | None = None) -> list[dict]:
    """Flatten reports (optionally labelled) into CSV-ready dicts."""
    reports = list(reports)
    labels = list(labels) if labels is not None else [r.run_id for r in reports]
    if len(labels) != len(reports):
        raise ValueError(f"{len(labels)} labels for {len(reports)} reports")
    rows = []
    for label, report in zip(labels, reports):
        row = {"label": label, **report.row()}
        for stage, seconds in report.stage_means_s.items():
            row[f"stage:{stage}_ms"] = round(seconds * 1e3, 4)
        rows.append(row)
    return rows


def write_reports_csv(
    path: str | Path,
    reports: Iterable[ThroughputReport],
    labels: Iterable[str] | None = None,
) -> Path:
    """Write one CSV row per report; returns the path written."""
    rows = report_rows(reports, labels)
    if not rows:
        raise ValueError("no reports to write")
    # Union of keys across rows keeps sweeps with differing stages aligned.
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)
    return path


def traces_to_json(collector: MetricsCollector, complete_only: bool = True) -> str:
    """Serialize message traces for offline analysis."""
    out = []
    for trace in collector.traces(complete_only=complete_only):
        timings = {
            stage: {
                "t": timing.timestamp,
                "nbytes": timing.nbytes,
                "site": timing.site,
            }
            for stage, timing in sorted(trace.timings.items())
        }
        out.append(
            {
                "run_id": trace.run_id,
                "message_id": trace.message_id,
                "partition": trace.partition,
                "end_to_end_latency_s": trace.end_to_end_latency,
                "timings": timings,
            }
        )
    return json.dumps({"stages": list(STAGES), "traces": out}, indent=2)


def spans_to_json(tracer) -> str:
    """Serialize a tracer's retained spans (grouped by trace) as JSON."""
    traces = {
        trace_id: [span.to_dict() for span in tracer.spans(trace_id)]
        for trace_id in tracer.trace_ids()
    }
    return json.dumps({"stats": tracer.stats(), "traces": traces}, indent=2)


def write_spans_json(path: str | Path, tracer) -> Path:
    path = Path(path)
    path.write_text(spans_to_json(tracer))
    return path


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


def write_series_jsonl(path: str | Path, sampler) -> Path:
    path = Path(path)
    path.write_text(sampler.to_jsonl())
    return path
