"""Resource-accounted worker.

A worker models one execution slot set on a pilot's resource: it offers a
:class:`ResourceSpec` capacity (e.g. 1 core / 4 GB for the simulated
Raspberry Pi) and runs admitted tasks on its own thread pool, one thread
per core. Memory is accounted, not enforced — sufficient for placement
decisions, which is all the paper's evaluation needs.

Failure injection: :meth:`kill` stops the worker abruptly. Tasks still
waiting on its queue are handed back to the scheduler, which runs them on
another worker. A task already running is not stopped: Python threads
cannot be interrupted, so its thread runs the task to the end and its
outcome is reported as usual.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable

from repro.compute.future import Future, TaskError, TaskState
from repro.compute.task import ResourceSpec, Task
from repro.util.ids import new_id


class Worker:
    """Executes tasks up to its resource capacity.

    Parameters
    ----------
    capacity:
        Cores/memory this worker offers. One executor thread is started
        per whole core.
    on_task_done:
        Callback ``(worker, task, future, outcome)`` invoked after each
        task finishes, where *outcome* is ``("ok", result)``,
        ``("error", exception)`` or ``("bounced", None)`` for tasks a dead
        worker returned unexecuted. When set (the scheduler), the callback
        owns resolving the future — this is what lets a bounced task run
        on another worker; a standalone worker resolves the future itself.
    name:
        Stable name for logs/monitoring; auto-generated by default.
    """

    def __init__(
        self,
        capacity: ResourceSpec | None = None,
        on_task_done: Callable | None = None,
        name: str | None = None,
    ) -> None:
        self.capacity = capacity or ResourceSpec()
        self.worker_id = name or new_id("worker")
        self._on_task_done = on_task_done
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._in_use = ResourceSpec(1e-12, 1e-12)  # effectively zero
        self._alive = True
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.busy_seconds = 0.0
        n_threads = max(1, int(self.capacity.cores))
        self._threads = [
            threading.Thread(target=self._run_loop, name=f"{self.worker_id}-{i}", daemon=True)
            for i in range(n_threads)
        ]
        for t in self._threads:
            t.start()

    # -- admission ---------------------------------------------------------

    def free_resources(self) -> ResourceSpec:
        with self._lock:
            return self.capacity - self._in_use

    def can_accept(self, task: Task) -> bool:
        if not self._alive:
            return False
        free = self.free_resources()
        return (
            task.resources.cores <= free.cores + 1e-9
            and task.resources.memory_gb <= free.memory_gb + 1e-9
        )

    def submit(self, task: Task, future: Future) -> bool:
        """Admit a task; returns False if capacity or liveness disallow it."""
        with self._lock:
            if not self._alive:
                return False
            free = self.capacity - self._in_use
            if (
                task.resources.cores > free.cores + 1e-9
                or task.resources.memory_gb > free.memory_gb + 1e-9
            ):
                return False
            self._in_use = self._in_use + task.resources
        self._queue.put((task, future))
        return True

    # -- execution ---------------------------------------------------------

    def _run_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:  # shutdown sentinel
                return
            task, future = item
            if not self._alive:
                # Killed between admission and execution: bounce the task
                # back so the scheduler can run it elsewhere.
                self._release(task)
                self._report(task, future, ("bounced", None))
                continue
            if not future._mark_running(self.worker_id):
                self._release(task)
                continue  # cancelled while queued
            t0 = time.monotonic()
            try:
                result = task.execute()
            except BaseException as exc:  # noqa: BLE001 — workers must survive any task error
                self.tasks_failed += 1
                outcome = ("error", exc)
            else:
                self.tasks_completed += 1
                outcome = ("ok", result)
            self.busy_seconds += time.monotonic() - t0
            self._release(task)
            self._report(task, future, outcome)

    def _report(self, task: Task, future: Future, outcome: tuple) -> None:
        if self._on_task_done is not None:
            self._on_task_done(self, task, future, outcome)
            return
        # Standalone worker (no scheduler): resolve directly.
        kind, payload = outcome
        if kind == "ok":
            future._resolve(payload)
        elif kind == "error":
            future._reject(TaskError(task.task_id, payload))
        else:
            future._mark_pending()

    def _release(self, task: Task) -> None:
        with self._lock:
            self._in_use = self._in_use - task.resources

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    def shutdown(self, wait: bool = True) -> None:
        """Graceful stop: finish queued tasks, then exit threads."""
        self._alive = False
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for t in self._threads:
                t.join(timeout=5.0)

    def kill(self) -> list:
        """Abrupt failure: drop queued tasks, return them for rescheduling.

        A task already running is not stopped; its thread finishes it
        and reports the outcome, then exits.
        """
        self._alive = False
        orphans = []
        try:
            while True:
                item = self._queue.get_nowait()
                if item is not None:
                    orphans.append(item)
        except queue.Empty:
            pass
        for _ in self._threads:
            self._queue.put(None)
        return orphans

    def stats(self) -> dict:
        free = self.free_resources()
        return {
            "worker_id": self.worker_id,
            "alive": self._alive,
            "capacity": {"cores": self.capacity.cores, "memory_gb": self.capacity.memory_gb},
            "free": {"cores": round(free.cores, 3), "memory_gb": round(free.memory_gb, 3)},
            "tasks_completed": self.tasks_completed,
            "tasks_failed": self.tasks_failed,
            "busy_seconds": self.busy_seconds,
        }

    def __repr__(self) -> str:
        return f"Worker({self.worker_id}, cores={self.capacity.cores})"
