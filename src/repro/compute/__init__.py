"""Task-parallel compute substrate (Dask-equivalent).

The paper executes each pilot's tasks on "a managed Dask cluster on the
specified location". This package provides the equivalent from scratch:

- :class:`Future` — thread-safe deferred results,
- :class:`Worker` — resource-accounted executors (cores / memory), so a
  1-core / 4 GB worker faithfully models the paper's simulated Raspberry
  Pi edge device and a 10-core / 44 GB worker its LRZ "large" VM,
- :class:`Scheduler` — resource-aware FIFO dispatch; a killed worker's
  queued tasks are requeued on the others,
- :class:`ComputeCluster` / :class:`Client` — the user-facing submit /
  map / gather API, plus runtime scale-up/down used by the dynamism
  experiments.
"""

from repro.compute.future import Future, TaskState, TaskError, CancelledError
from repro.compute.task import Task, ResourceSpec
from repro.compute.worker import Worker
from repro.compute.scheduler import Scheduler, NoCapacityError
from repro.compute.cluster import ComputeCluster
from repro.compute.client import Client

__all__ = [
    "Future",
    "TaskState",
    "TaskError",
    "CancelledError",
    "Task",
    "ResourceSpec",
    "Worker",
    "Scheduler",
    "NoCapacityError",
    "ComputeCluster",
    "Client",
]
