#!/usr/bin/env python3
"""Telemetry & tracing: observe a pipeline across the continuum.

Demonstrates the observability stack end to end:

1. a shared ``Tracer`` follows every message from the edge producer
   through the broker to the cloud consumer, one span tree per message,
2. a ``MetricsRegistry`` collects typed instruments (counters, gauges,
   a live-percentile latency histogram) from the pipeline,
3. a background ``TelemetrySampler`` records consumer lag over time and
   exports the series as JSONL,
4. the run report gains lag and span-bottleneck sections.

Run:  python examples/telemetry_tracing.py
"""

import tempfile
from pathlib import Path

from repro import (
    EdgeToCloudPipeline,
    PilotComputeService,
    PilotDescription,
    PipelineConfig,
    ResourceSpec,
    make_block_producer,
    passthrough_processor,
)
from repro.monitoring import MetricsRegistry, TelemetrySampler, Tracer, stitch_spans


def main() -> None:
    # -- acquire resources -------------------------------------------------
    pcs = PilotComputeService(time_scale=0.0)
    pilot_edge = pcs.submit_pilot(
        PilotDescription(
            resource="ssh",
            site="edge-site",
            nodes=2,
            node_spec=ResourceSpec(cores=1, memory_gb=4),
        )
    )
    pilot_cloud = pcs.submit_pilot(
        PilotDescription(resource="cloud", site="lrz", instance_type="lrz.large")
    )
    if not pcs.wait_all(timeout=30):
        raise SystemExit("pilot acquisition failed")

    # -- wire up the observability stack ----------------------------------
    registry = MetricsRegistry()
    tracer = Tracer("example", sample_rate=1.0)
    sampler = TelemetrySampler(interval_s=0.05, registry=registry)

    pipeline = EdgeToCloudPipeline(
        pilot_edge=pilot_edge,
        pilot_cloud_processing=pilot_cloud,
        produce_function_handler=make_block_producer(points=200, features=8),
        process_cloud_function_handler=passthrough_processor,
        config=PipelineConfig(num_devices=2, messages_per_device=16),
        registry=registry,
        tracer=tracer,
        sampler=sampler,
    )
    result = pipeline.run()
    print(f"completed: {result.completed}, messages: {result.report.messages}")

    # -- one trace per message, spanning all three tiers -------------------
    message_trees = [
        t for t in stitch_spans(tracer.spans()).values()
        if t["span"].name == "producer.send"
    ]
    sites = set()
    for tree in message_trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            sites.add(node["span"].site)
            stack.extend(node["children"])
    print(f"message traces: {len(message_trees)}, sites touched: {sorted(sites)}")
    spans = result.report.spans
    print(f"slowest span: {spans['slowest']} across {spans['traces']} traces")

    # -- consumer lag over time, back to zero by the end -------------------
    lag = result.report.lag
    print(f"lag peak: {lag['peak']:.0f}, returned to zero: {lag['returned_to_zero']}")

    # -- typed instruments + exports ---------------------------------------
    hist = registry.histogram("pipeline_e2e_latency_s")
    print(
        f"e2e latency: count={hist.count} "
        f"p50={hist.percentile(50) * 1e3:.1f}ms p99={hist.percentile(99) * 1e3:.1f}ms"
    )
    with tempfile.TemporaryDirectory(prefix="telemetry-") as tmp:
        out = Path(tmp)
        sampler.write_jsonl(out / "telemetry.jsonl")
        (out / "metrics.prom").write_text(registry.to_prometheus())
        lines = (out / "telemetry.jsonl").read_text().strip().splitlines()
        print(f"exported {len(lines)} telemetry samples to {out}")
    print("telemetry accounting verified" if result.completed else "run failed")
    pcs.close()


if __name__ == "__main__":
    main()
