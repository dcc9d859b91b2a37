"""Resource-aware task scheduler.

Dispatches ready tasks to workers with free capacity. Placement prefers
the least-loaded worker that fits the task's :class:`ResourceSpec`
(best-fit by free cores); ready tasks wait in one FIFO queue. A task
that a killed worker hands back unrun is requeued for another worker; a
task that raises rejects its future.

The scheduler is event-driven rather than polling: dispatch is attempted
whenever (a) a task is submitted, (b) a task completes (freeing
capacity), or (c) a worker joins.
"""

from __future__ import annotations

import threading
from collections import Counter, deque

from repro.compute.future import Future, TaskError, TaskState
from repro.compute.task import Task
from repro.compute.worker import Worker
from repro.util.validation import ValidationError


class NoCapacityError(RuntimeError):
    """No worker can ever fit the task's resource requirements."""


class Scheduler:
    """Assigns tasks to workers; requeues tasks a killed worker returns."""

    def __init__(self) -> None:
        self._workers: dict[str, Worker] = {}
        self._lock = threading.RLock()
        self._ready: deque[Task] = deque()
        self._futures: dict[str, Future] = {}
        self.tasks_submitted = 0
        self.tasks_retried = 0

    # -- worker membership ---------------------------------------------------

    def add_worker(self, worker: Worker) -> None:
        with self._lock:
            self._workers[worker.worker_id] = worker
            worker._on_task_done = self._on_task_done
        self._dispatch()

    def remove_worker(self, worker_id: str, graceful: bool = True) -> None:
        with self._lock:
            worker = self._workers.pop(worker_id, None)
        if worker is None:
            return
        if graceful:
            worker.shutdown()
        else:
            orphans = worker.kill()
            for task, future in orphans:
                self._requeue(task, future)
        self._dispatch()

    @property
    def workers(self) -> list[Worker]:
        with self._lock:
            return list(self._workers.values())

    def total_capacity(self) -> dict:
        with self._lock:
            cores = sum(w.capacity.cores for w in self._workers.values() if w.alive)
            mem = sum(w.capacity.memory_gb for w in self._workers.values() if w.alive)
        return {"cores": cores, "memory_gb": mem}

    # -- submission ------------------------------------------------------------

    def submit(self, task: Task) -> Future:
        """Submit one task; it runs once a worker has room for it."""
        future = Future(task.task_id)
        with self._lock:
            if task.task_id in self._futures:
                raise ValidationError(f"task {task.task_id} already submitted")
            self._futures[task.task_id] = future
            self.tasks_submitted += 1
            self._ready.append(task)
        self._dispatch()
        return future

    # -- dispatch ---------------------------------------------------------------

    def _pick_worker(self, task: Task) -> Worker | None:
        """Least-loaded live worker whose free capacity fits the task."""
        best: Worker | None = None
        best_free = -1.0
        for worker in self._workers.values():
            if not worker.alive or not worker.can_accept(task):
                continue
            free = worker.free_resources().cores
            if free > best_free:
                best, best_free = worker, free
        return best

    def _capacity_exists(self, task: Task) -> bool:
        """Could any live worker *ever* fit this task (when idle)?"""
        return any(
            task.resources.fits_within(w.capacity)
            for w in self._workers.values()
            if w.alive
        )

    def _dispatch(self) -> None:
        with self._lock:
            if not self._workers:
                return
            deferred: list[Task] = []
            while self._ready:
                task = self._ready.popleft()
                future = self._futures[task.task_id]
                if future.state is TaskState.CANCELLED:
                    continue
                worker = self._pick_worker(task)
                if worker is None:
                    if not self._capacity_exists(task):
                        future._reject(
                            TaskError(
                                task.task_id,
                                NoCapacityError(
                                    f"no worker can fit {task.resources}"
                                ),
                            )
                        )
                        continue
                    deferred.append(task)
                    continue
                if not worker.submit(task, future):
                    deferred.append(task)
            self._ready.extend(deferred)

    def _on_task_done(self, worker: Worker, task: Task, future: Future, outcome: tuple) -> None:
        kind, payload = outcome
        if kind == "bounced":
            # The worker was killed before running it; run it elsewhere.
            self._requeue(task, future)
        elif kind == "error":
            future._reject(TaskError(task.task_id, payload))
        else:
            future._resolve(payload)
        self._dispatch()

    def _requeue(self, task: Task, future: Future) -> None:
        with self._lock:
            future._mark_pending()
            self._ready.append(task)
            self.tasks_retried += 1

    # -- introspection --------------------------------------------------------------

    def future(self, task_id: str) -> Future:
        with self._lock:
            try:
                return self._futures[task_id]
            except KeyError:
                raise ValidationError(f"unknown task {task_id!r}") from None

    def pending_count(self) -> int:
        with self._lock:
            return len(self._ready)

    def stats(self) -> dict:
        with self._lock:
            callback_errors: Counter[str] = Counter()
            for future in self._futures.values():
                callback_errors.update(future.callback_errors)
            return {
                "workers": len(self._workers),
                "tasks_submitted": self.tasks_submitted,
                "tasks_retried": self.tasks_retried,
                "ready_queue": len(self._ready),
                "callback_errors": dict(callback_errors),
            }
