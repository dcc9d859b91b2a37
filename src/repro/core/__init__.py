"""Pilot-Edge core: the FaaS abstraction and edge-to-cloud pipeline.

This is the paper's primary contribution. Applications implement up to
three plain Python functions (Listing 1 of the paper)::

    def produce_edge(context)                 # sensing / data generation
    def process_edge(context, data)           # edge-side processing
    def process_cloud(context, data)          # cloud-side processing

and hand them — together with the pilots acquired through
:mod:`repro.pilot` — to :class:`EdgeToCloudPipeline` (Listing 2). The
framework packages the functions into tasks, places them on the pilots'
compute clusters, wires the dataflow through the pilot-managed broker,
shares model state via the parameter service, and links metrics across
every component.

Supporting pieces:

- :class:`FunctionContext` — the context object passed to every function
  (resource topology, parameter client, per-device identity),
- placement policies (:mod:`repro.core.placement`) — cloud-centric,
  edge-centric, hybrid, and a cost-model-driven policy,
- :class:`AutoScaler` — runtime dynamism: load peaks, function
  replacement, resource scaling; the run, the autoscaler and the pilots
  record each as an event in their own
  :class:`~repro.monitoring.events.EventJournal` (``.events``).
"""

from repro.core.context import FunctionContext
from repro.core.config import PipelineConfig
from repro.core.pipeline import EdgeToCloudPipeline, PipelineResult
from repro.core.placement import (
    PlacementPolicy,
    CloudCentricPlacement,
    EdgeCentricPlacement,
    HybridPlacement,
    CostBasedPlacement,
    PlacementDecision,
)
from repro.core.scaling import AutoScaler, ScalingPolicy
from repro.core.workloads import (
    make_block_producer,
    make_model_processor,
    passthrough_processor,
    make_compression_edge_processor,
)

__all__ = [
    "FunctionContext",
    "PipelineConfig",
    "EdgeToCloudPipeline",
    "PipelineResult",
    "PlacementPolicy",
    "CloudCentricPlacement",
    "EdgeCentricPlacement",
    "HybridPlacement",
    "CostBasedPlacement",
    "PlacementDecision",
    "AutoScaler",
    "ScalingPolicy",
    "make_block_producer",
    "make_model_processor",
    "passthrough_processor",
    "make_compression_edge_processor",
]
