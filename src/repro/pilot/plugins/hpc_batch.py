"""HPC batch-queue backend (emulated SLURM-style scheduler).

Models the placeholder-job pattern the pilot abstraction comes from: a
pilot is a job in a queuing system, and it waits in line while the
partition is busy. The emulation keeps one FIFO backlog over a fixed
node pool; the acquisition delay is the computed head-of-line wait
(based on the walltimes of the jobs ahead) plus the launcher overhead.
"""

from __future__ import annotations

import threading

from repro.compute.cluster import ComputeCluster
from repro.pilot.description import PilotDescription
from repro.pilot.plugins.base import ProvisionError, ResourcePlugin
from repro.pilot.registry import resource_plugin
from repro.util.validation import check_non_negative, check_positive


@resource_plugin("hpc")
class HpcBatchPlugin(ResourcePlugin):
    """FIFO batch queue over a fixed node pool.

    The wait model is deliberately simple (and deterministic for tests):
    when a request needs more free nodes than the pool has, it waits for
    the earliest-finishing running jobs — whose remaining time we bound by
    their requested walltime scaled by ``occupancy_factor``.
    """

    def __init__(
        self,
        total_nodes: int = 32,
        launch_delay: float = 5.0,
        occupancy_factor: float = 0.1,
        max_walltime_minutes: float = 2880.0,
    ) -> None:
        check_positive("total_nodes", total_nodes)
        check_non_negative("launch_delay", launch_delay)
        check_non_negative("occupancy_factor", occupancy_factor)
        check_positive("max_walltime_minutes", max_walltime_minutes)
        self.total_nodes = int(total_nodes)
        self.launch_delay = float(launch_delay)
        self.occupancy_factor = float(occupancy_factor)
        self.max_walltime_minutes = float(max_walltime_minutes)
        self._running: dict[str, tuple] = {}  # pilot_id -> (nodes, walltime_min)
        self._lock = threading.Lock()

    def _free_nodes(self) -> int:
        return self.total_nodes - sum(n for n, _ in self._running.values())

    def acquisition_delay(self, description: PilotDescription) -> float:
        if description.nodes > self.total_nodes:
            raise ProvisionError(
                f"request for {description.nodes} nodes exceeds partition "
                f"size {self.total_nodes}"
            )
        if description.walltime_minutes > self.max_walltime_minutes:
            raise ProvisionError(
                f"walltime {description.walltime_minutes} min exceeds queue "
                f"limit {self.max_walltime_minutes} min"
            )
        with self._lock:
            deficit = description.nodes - self._free_nodes()
            wait = 0.0
            if deficit > 0:
                # Wait for the earliest-finishing jobs to release nodes.
                remaining = sorted(
                    (walltime * 60.0 * self.occupancy_factor, nodes)
                    for nodes, walltime in self._running.values()
                )
                freed = 0
                for seconds, nodes in remaining:
                    wait = seconds
                    freed += nodes
                    if freed >= deficit:
                        break
                else:
                    raise ProvisionError("queue cannot satisfy the request")
        return wait + self.launch_delay

    def build_cluster(self, description: PilotDescription, pilot_id: str) -> ComputeCluster:
        with self._lock:
            # By the time the (emulated) wait has elapsed, earlier jobs
            # are assumed to have drained; admit if physically possible.
            if description.nodes > self.total_nodes:
                raise ProvisionError("request exceeds partition size")
            self._running[pilot_id] = (description.nodes, description.walltime_minutes)
        return ComputeCluster(
            n_workers=description.nodes,
            worker_resources=description.node_spec,
            name=f"{pilot_id}-hpc",
        )

    def release(self, description: PilotDescription, pilot_id: str) -> None:
        with self._lock:
            self._running.pop(pilot_id, None)

    def stats(self) -> dict:
        with self._lock:
            return {
                "plugin": self.plugin_name,
                "total_nodes": self.total_nodes,
                "nodes_in_use": self.total_nodes - self._free_nodes(),
                "jobs_running": len(self._running),
            }
