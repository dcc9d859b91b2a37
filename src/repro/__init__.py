"""Pilot-Edge reproduction: distributed resource management along the
edge-to-cloud continuum.

A from-scratch, laptop-scale reproduction of Luckow, Rattan & Jha,
"Pilot-Edge" (IPDPS workshops, 2021): the pilot abstraction, a FaaS
pipeline API, and every substrate the paper's evaluation relies on
(broker, task engine, parameter server, network emulation, ML workloads,
monitoring, and a discrete-event simulator for geographic experiments).

Quickstart::

    from repro import (
        PilotComputeService, PilotDescription, EdgeToCloudPipeline,
        PipelineConfig, make_block_producer, passthrough_processor,
    )

    pcs = PilotComputeService()
    edge = pcs.submit_pilot(PilotDescription(resource="ssh", site="edge", nodes=2))
    cloud = pcs.submit_pilot(PilotDescription(resource="cloud", site="lrz",
                                              instance_type="lrz.large"))
    pcs.wait_all()
    result = EdgeToCloudPipeline(
        pilot_edge=edge,
        pilot_cloud_processing=cloud,
        produce_function_handler=make_block_producer(points=100),
        process_cloud_function_handler=passthrough_processor,
        config=PipelineConfig(num_devices=2, messages_per_device=16),
    ).run()
    print(result.report.row())
"""

from repro.core import (
    EdgeToCloudPipeline,
    FunctionContext,
    PipelineConfig,
    PipelineResult,
    CloudCentricPlacement,
    EdgeCentricPlacement,
    HybridPlacement,
    CostBasedPlacement,
    AutoScaler,
    ScalingPolicy,
    make_block_producer,
    make_model_processor,
    passthrough_processor,
    make_compression_edge_processor,
)
from repro.pilot import PilotComputeService, PilotDescription, PilotCompute, PilotState
from repro.compute import ResourceSpec, Client, ComputeCluster
from repro.params import ParameterServer, ParameterClient
from repro.netem import CELLULAR_EDGE, ContinuumTopology, LinkProfile, TRANSATLANTIC, LAN
from repro.monitoring import ThroughputReport, MetricsCollector
from repro.faults import FaultInjector, FaultyBroker

__version__ = "1.0.0"

__all__ = [
    "EdgeToCloudPipeline",
    "FunctionContext",
    "PipelineConfig",
    "PipelineResult",
    "CloudCentricPlacement",
    "EdgeCentricPlacement",
    "HybridPlacement",
    "CostBasedPlacement",
    "AutoScaler",
    "ScalingPolicy",
    "make_block_producer",
    "make_model_processor",
    "passthrough_processor",
    "make_compression_edge_processor",
    "PilotComputeService",
    "PilotDescription",
    "PilotCompute",
    "PilotState",
    "ResourceSpec",
    "Client",
    "ComputeCluster",
    "ParameterServer",
    "ParameterClient",
    "ContinuumTopology",
    "LinkProfile",
    "TRANSATLANTIC",
    "LAN",
    "CELLULAR_EDGE",
    "ThroughputReport",
    "MetricsCollector",
    "FaultInjector",
    "FaultyBroker",
    "__version__",
]
