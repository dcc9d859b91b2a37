"""The report and the bottleneck analysis, pinned on one fixed stamp set.

Every number below was computed by the collector and readers as they
were when the test was written; a change to how stamps are stored or
read must reproduce them.
"""

import pytest

from repro.monitoring import MetricsCollector, ThroughputReport, analyze_bottleneck


def _stamped() -> MetricsCollector:
    c = MetricsCollector("pinned")
    # A full path, uplink queue wait included.
    c.stamp("full", "produce", 10.0, nbytes=1000, partition=0)
    c.stamp("full", "uplink_start", 10.013)
    c.stamp("full", "broker_in", 10.041)
    c.stamp("full", "dequeue", 10.097)
    c.stamp("full", "consume", 10.123, nbytes=1024, partition=0)
    c.stamp("full", "process_start", 10.131)
    c.stamp("full", "process_end", 10.377, nbytes=1024)
    # No uplink_start: its uplink is left out of the uplink mean.
    c.stamp("no-uplink", "produce", 10.5, nbytes=700, partition=1)
    c.stamp("no-uplink", "broker_in", 10.562)
    c.stamp("no-uplink", "dequeue", 10.61)
    c.stamp("no-uplink", "consume", 10.64, nbytes=730, partition=1)
    c.stamp("no-uplink", "process_start", 10.652)
    c.stamp("no-uplink", "process_end", 10.9, nbytes=730)
    # Processed on the device: process_* come first, the cloud only sinks it.
    c.stamp("edge", "process_start", 11.001)
    c.stamp("edge", "process_end", 11.207)
    c.stamp("edge", "produce", 11.0, nbytes=48, partition=2)
    c.stamp("edge", "uplink_start", 11.209)
    c.stamp("edge", "broker_in", 11.22)
    c.stamp("edge", "dequeue", 11.25)
    c.stamp("edge", "consume", 11.27, nbytes=64, partition=2)
    c.stamp("edge", "consume_sink", 11.27)
    # Never processed: counted nowhere.
    c.stamp("lost", "produce", 11.3, nbytes=5000, partition=0)
    c.stamp("lost", "broker_in", 11.33)
    # One batch, per-message sizes and partitions.
    batch = ["b0", "b1", "b2"]
    c.stamp_many(batch, "produce", 12.0, nbytes=[300, 310, 320], partition=[0, 1, 2])
    c.stamp_many(batch, "uplink_start", 12.004)
    c.stamp_many(batch, "broker_in", 12.03)
    c.stamp_many(batch, "dequeue", 12.07)
    c.stamp_many(batch, "consume", 12.11, nbytes=[330, 340, 350], partition=[0, 1, 2])
    c.stamp("b1", "consume", 12.15, nbytes=340, partition=1)  # redelivered: the last time stays
    c.stamp("b0", "process_start", 12.12)
    c.stamp("b0", "process_end", 12.2, nbytes=330)
    c.stamp("b1", "process_start", 12.2)
    c.stamp("b1", "process_end", 12.29, nbytes=340)
    c.stamp("b2", "process_start", 12.29)
    c.stamp("b2", "process_end", 12.43, nbytes=350)
    return c


def test_throughput_report_fields():
    report = ThroughputReport.from_collector(_stamped())
    assert report.run_id == "pinned"
    assert report.messages == 6
    assert report.total_bytes == 2678
    assert report.duration_s == pytest.approx(2.4299999999999997, rel=1e-12)
    assert report.throughput_msgs_s == pytest.approx(2.469135802469136, rel=1e-12)
    assert report.throughput_mb_s == pytest.approx(0.0011020576131687244, rel=1e-12)
    assert report.latency_mean_s == pytest.approx(0.3173333333333333, rel=1e-12)
    assert report.latency_p50_s == pytest.approx(0.3334999999999999, rel=1e-12)
    assert report.latency_p95_s == pytest.approx(0.4224999999999999, rel=1e-12)
    assert report.latency_p99_s == pytest.approx(0.42849999999999977, rel=1e-12)
    assert report.stage_means_s == pytest.approx(
        {
            "produce->broker_in": 0.06883333333333308,
            "broker_in->consume": 0.0816666666666667,
            "consume->process_start": -0.0015000000000003528,
            "process_start->process_end": 0.1683333333333339,
        },
        rel=1e-12,
    )
    assert (report.lag, report.spans) == ({}, {})


def test_analyze_bottleneck():
    result = analyze_bottleneck(_stamped())
    assert set(result) == {
        "bottleneck", "reason", "mean_transfer_s", "mean_processing_s", "mean_broker_queue_s",
    }
    assert result["bottleneck"] == "processing"
    assert result["reason"] == "mean processing 168.3 ms >= mean transfer 62.7 ms"
    assert result["mean_transfer_s"] == pytest.approx(0.06273333333333332, rel=1e-12)
    assert result["mean_processing_s"] == pytest.approx(0.1683333333333339, rel=1e-12)
    assert result["mean_broker_queue_s"] == pytest.approx(0.042333333333333556, rel=1e-12)


def test_report_with_an_explicit_duration():
    report = ThroughputReport.from_collector(_stamped(), duration_s=4.0)
    assert report.duration_s == 4.0
    assert report.throughput_msgs_s == 1.5
    assert report.throughput_mb_s == pytest.approx(0.0006695, rel=1e-12)
