#!/usr/bin/env python3
"""Runtime dynamism: load peaks, autoscaling and model hot-swap.

Demonstrates the paper's section II-D capabilities on a live pipeline:

1. a seasonal load peak (the producers speed up mid-run),
2. the autoscaler reacting to broker lag by adding consumer tasks,
3. hot-swapping the processing function from a high-fidelity model
   (auto-encoder) to a low-fidelity one (k-means) without a new pilot.

Run:  python examples/dynamic_scaling.py
"""

import time

from repro import (
    AutoScaler,
    EdgeToCloudPipeline,
    PilotComputeService,
    PilotDescription,
    PipelineConfig,
    ResourceSpec,
    ScalingPolicy,
    make_block_producer,
    make_model_processor,
)
from repro.ml import AutoEncoder, StreamingKMeans
from repro.monitoring import merge_timeline


def main() -> None:
    pcs = PilotComputeService(time_scale=0.0)
    edge = pcs.submit_pilot(
        PilotDescription(resource="ssh", site="edge", nodes=2,
                         node_spec=ResourceSpec(cores=1, memory_gb=4))
    )
    cloud = pcs.submit_pilot(
        PilotDescription(resource="cloud", site="lrz", instance_type="lrz.large")
    )
    assert pcs.wait_all(timeout=30)

    pipeline = EdgeToCloudPipeline(
        pilot_edge=edge,
        pilot_cloud_processing=cloud,
        produce_function_handler=make_block_producer(points=500, features=32),
        # Start with the expensive, high-fidelity model.
        process_cloud_function_handler=make_model_processor(
            lambda: AutoEncoder(epochs=2)
        ),
        config=PipelineConfig(
            num_devices=2,
            messages_per_device=120,
            num_consumers=1,              # deliberately under-provisioned
            produce_interval=0.01,
            max_duration=300.0,
        ),
    )

    # Autoscaler: watch total broker lag, add consumers under pressure.
    def total_lag() -> int:
        topic = pipeline.broker.topic(pipeline.config.topic)
        appended = topic.total_appended
        return max(0, appended - pipeline.processed_count)

    scaler = AutoScaler(
        lag_fn=total_lag,
        scale_fn=pipeline.scale_consumers,
        policy=ScalingPolicy(min_consumers=1, max_consumers=6,
                             scale_up_lag=12, scale_down_lag=2, cooldown=0.5),
        interval=0.1,
    )

    print("starting under-provisioned run with the auto-encoder ...")
    handle = pipeline.run(wait=False)
    scaler.start()

    # Let lag build, then hot-swap to the cheap model mid-stream.
    handle.wait_for_processed(20, timeout=120)
    print("hot-swapping auto-encoder -> k-means (no new pilot needed)")
    pipeline.replace_cloud_function(
        make_model_processor(lambda: StreamingKMeans(n_clusters=25))
    )

    result = handle.join()
    scaler.stop()
    pcs.close()

    print(f"\ncompleted: {result.completed}   messages: {result.report.messages}")
    print("report:", result.report.row())
    # The run's and the autoscaler's events, as one timeline.
    timeline = merge_timeline(pipeline.events, scaler.events)
    peaks = [e for e in timeline if e.type == "load_peak"]
    scalings = [e for e in timeline if e.type == "consumers_scaled"]
    swaps = [e for e in timeline if e.type == "function_replaced"]
    print(f"load-peak events: {len(peaks)}, scale-ups: {len(scalings)}, "
          f"function swaps: {len(swaps)}")
    for e in scalings:
        print(f"  scaled: +{e.fields['added']} consumers")
    by_model: dict = {}
    for r in result.results:
        by_model[r["model"]] = by_model.get(r["model"], 0) + 1
    print("messages per model:", by_model)


if __name__ == "__main__":
    main()
