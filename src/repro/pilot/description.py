"""Pilot descriptions: what resource to acquire, where, for how long."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compute.task import ResourceSpec
from repro.util.validation import ValidationError, check_positive


@dataclass(frozen=True)
class PilotDescription:
    """Declarative request for a resource container.

    Mirrors the fields a SAGA/RADICAL pilot description carries, reduced
    to what the emulated backends act on.

    Parameters
    ----------
    resource:
        Backend plugin name (``localhost``, ``ssh``, ``cloud``, ``hpc``,
        ``serverless``).
    site:
        Topology site this pilot lives at (drives network emulation).
    nodes:
        Number of identical nodes (each becomes one worker).
    node_spec:
        Cores/memory of each node — e.g. the paper's LRZ "large" VM is
        ``ResourceSpec(cores=10, memory_gb=44)``.
    walltime_minutes:
        Requested lifetime; the HPC plugin enforces queue policies on it.
    instance_type:
        Cloud instance-type label (cloud only; informational + quota key).
    """

    resource: str = "localhost"
    site: str = "local"
    nodes: int = 1
    node_spec: ResourceSpec = field(default_factory=ResourceSpec)
    walltime_minutes: float = 60.0
    instance_type: str = ""

    def __post_init__(self) -> None:
        if not self.resource:
            raise ValidationError("resource plugin name must be non-empty")
        if not self.site:
            raise ValidationError("site must be non-empty")
        check_positive("nodes", self.nodes)
        check_positive("walltime_minutes", self.walltime_minutes)

    @property
    def total_cores(self) -> float:
        return self.nodes * self.node_spec.cores

    @property
    def total_memory_gb(self) -> float:
        return self.nodes * self.node_spec.memory_gb
