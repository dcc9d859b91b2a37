"""Task and resource-requirement definitions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.util.ids import new_id
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ResourceSpec:
    """Resources a task needs or a worker offers.

    The units follow the paper's VM descriptions: cores and gigabytes.
    Worker capacities use the same type, so admission is a simple
    component-wise comparison.
    """

    cores: float = 1.0
    memory_gb: float = 1.0

    def __post_init__(self) -> None:
        check_positive("cores", self.cores)
        check_positive("memory_gb", self.memory_gb)

    def fits_within(self, capacity: "ResourceSpec") -> bool:
        return self.cores <= capacity.cores and self.memory_gb <= capacity.memory_gb

    def __add__(self, other: "ResourceSpec") -> "ResourceSpec":
        return ResourceSpec(self.cores + other.cores, self.memory_gb + other.memory_gb)

    def __sub__(self, other: "ResourceSpec") -> "ResourceSpec":
        # Intermediate accounting values may touch zero; bypass the
        # positive-only constructor check via object.__new__.
        spec = object.__new__(ResourceSpec)
        object.__setattr__(spec, "cores", self.cores - other.cores)
        object.__setattr__(spec, "memory_gb", self.memory_gb - other.memory_gb)
        return spec


#: Resource classes used across the experiments, mirroring the paper's
#: infrastructure table (section III).
EDGE_DEVICE = ResourceSpec(cores=1, memory_gb=4)       # simulated Raspberry Pi
LRZ_MEDIUM = ResourceSpec(cores=4, memory_gb=18)
LRZ_LARGE = ResourceSpec(cores=10, memory_gb=44)
JETSTREAM_MEDIUM = ResourceSpec(cores=6, memory_gb=16)


@dataclass
class Task:
    """One unit of work: a callable plus arguments and requirements."""

    fn: Callable
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    task_id: str = field(default_factory=lambda: new_id("task"))
    resources: ResourceSpec = field(default_factory=ResourceSpec)

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise TypeError(f"fn must be callable, got {type(self.fn).__name__}")

    def execute(self) -> Any:
        return self.fn(*self.args, **self.kwargs)

    def __repr__(self) -> str:
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"Task({self.task_id}, fn={name})"
