"""User-facing compute client (Dask-``Client``-like API).

Thin convenience layer over a cluster: ``submit`` / ``map`` / ``gather``.
The Pilot-Edge pipeline uses it to run the packaged FaaS tasks on
whichever pilot the placement policy selected.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.compute.cluster import ComputeCluster
from repro.compute.future import Future
from repro.compute.task import ResourceSpec, Task


class Client:
    """Submit work to a :class:`ComputeCluster`."""

    def __init__(self, cluster: ComputeCluster) -> None:
        self._cluster = cluster

    @property
    def cluster(self) -> ComputeCluster:
        return self._cluster

    def submit(
        self,
        fn: Callable,
        *args,
        resources: ResourceSpec | None = None,
        **kwargs,
    ) -> Future:
        """Run ``fn(*args, **kwargs)`` on the cluster; returns a future."""
        task = Task(
            fn=fn,
            args=args,
            kwargs=kwargs,
            resources=resources or ResourceSpec(),
        )
        return self._cluster.submit_task(task)

    def map(
        self,
        fn: Callable,
        items: Iterable,
        resources: ResourceSpec | None = None,
    ) -> list[Future]:
        """Submit ``fn(item)`` for every item; returns futures in order."""
        return [self.submit(fn, item, resources=resources) for item in items]

    @staticmethod
    def gather(futures: Sequence[Future], timeout: float | None = None) -> list[Any]:
        """Block until all futures resolve; returns results in order.

        Raises the first task error encountered (matching Dask's default
        ``gather`` semantics).
        """
        return [f.result(timeout=timeout) for f in futures]

    def __repr__(self) -> str:
        return f"Client({self._cluster.name!r})"
