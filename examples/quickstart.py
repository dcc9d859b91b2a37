#!/usr/bin/env python3
"""Quickstart: a minimal Pilot-Edge application.

Mirrors the paper's three-step flow (Fig. 1):

1. acquire edge and cloud resources through the pilot framework,
2. deploy an edge-to-cloud pipeline built from three FaaS functions,
3. read the linked monitoring report.

Run:  python examples/quickstart.py
"""

from repro import (
    EdgeToCloudPipeline,
    PilotComputeService,
    PilotDescription,
    PipelineConfig,
    ResourceSpec,
    make_block_producer,
    passthrough_processor,
)


def main() -> None:
    # -- step 1: acquire resources via the pilot abstraction --------------
    pcs = PilotComputeService(time_scale=0.0)  # instant emulated acquisition
    pilot_edge = pcs.submit_pilot(
        PilotDescription(
            resource="ssh",              # Raspberry-Pi-class devices over SSH
            site="edge-site",
            nodes=2,                     # two simulated edge devices
            node_spec=ResourceSpec(cores=1, memory_gb=4),
        )
    )
    pilot_cloud = pcs.submit_pilot(
        PilotDescription(
            resource="cloud",
            site="lrz",
            instance_type="lrz.large",   # 10 cores / 44 GB, as in the paper
        )
    )
    if not pcs.wait_all(timeout=30):
        raise SystemExit("pilot acquisition failed")
    print(f"edge pilot:  {pilot_edge}")
    print(f"cloud pilot: {pilot_cloud}")

    # -- step 2: define + run the application -----------------------------
    pipeline = EdgeToCloudPipeline(
        pilot_edge=pilot_edge,
        pilot_cloud_processing=pilot_cloud,
        # produce_edge: synthetic sensor blocks (1,000 points x 32 features)
        produce_function_handler=make_block_producer(points=1000, features=32),
        # process_cloud: the baseline pass-through processor
        process_cloud_function_handler=passthrough_processor,
        config=PipelineConfig(num_devices=2, messages_per_device=32),
    )
    result = pipeline.run()

    # -- step 3: monitoring ------------------------------------------------
    print(f"\ncompleted: {result.completed}")
    print("report:   ", result.report.row())
    print("bottleneck:", result.bottleneck["bottleneck"], "-", result.bottleneck["reason"])
    print("broker:    ", result.broker_stats["topics"])
    print("\nwhere a message's time goes (mean per stage):")
    for stage, seconds in result.report.stage_means_s.items():
        print(f"  {stage:<28} {seconds * 1e3:8.2f} ms")
    pcs.close()


if __name__ == "__main__":
    main()
