"""Resource-aware task scheduler.

Dispatches ready tasks to workers with free capacity. Placement prefers
the least-loaded worker that fits the task's :class:`ResourceSpec`
(best-fit by free cores). Tasks whose worker dies are retried up to
``task.max_retries`` times on other workers.

The scheduler is event-driven rather than polling: dispatch is attempted
whenever (a) a task is submitted, (b) a task completes (freeing capacity
and possibly unblocking dependents), or (c) a worker joins.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import Counter

from repro.compute.future import Future, TaskError, TaskState
from repro.compute.graph import TaskGraph
from repro.compute.task import Task
from repro.compute.worker import Worker
from repro.util.validation import ValidationError


class NoCapacityError(RuntimeError):
    """No worker can ever fit the task's resource requirements."""


class Scheduler:
    """Assigns tasks to workers; tracks dependencies and retries."""

    def __init__(self) -> None:
        self._workers: dict[str, Worker] = {}
        self._lock = threading.RLock()
        # Priority queue of (negative priority, seq, task) — higher
        # task.priority runs first, FIFO within a priority level.
        self._ready: list = []
        self._seq = itertools.count()
        self._futures: dict[str, Future] = {}
        self._tasks: dict[str, Task] = {}
        self._retries_left: dict[str, int] = {}
        # Dependency bookkeeping for graph submissions.
        self._waiting_deps: dict[str, set] = {}
        self._dependents: dict[str, set] = {}
        self.tasks_submitted = 0
        self.tasks_retried = 0
        self.tasks_timed_out = 0
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()
        # Task ids with a soft timeout that have not completed yet; the
        # watchdog retires itself when this drains so an idle scheduler
        # stops paying the 20 ms wakeup forever.
        self._timed_pending: set[str] = set()

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
                self._requeue(task, future, reason="worker killed")
        self._dispatch()

    @property
    def workers(self) -> list[Worker]:
        with self._lock:
            return list(self._workers.values())

    def healthy_workers(self, max_heartbeat_age: float = 30.0) -> list[Worker]:
        """Live workers whose executor threads showed recent activity.

        An idle worker is healthy by definition (its threads are parked
        on the queue, not wedged); staleness only matters when tasks are
        running — a running task past the heartbeat age with no progress
        marks the worker suspect.
        """
        import time

        now = time.monotonic()
        healthy = []
        for worker in self.workers:
            if not worker.alive:
                continue
            running = worker.running_tasks()
            if not running:
                healthy.append(worker)
            elif now - worker.last_heartbeat <= max_heartbeat_age or any(
                now - started <= max_heartbeat_age for _, _, started in running
            ):
                healthy.append(worker)
        return healthy

    def total_capacity(self) -> dict:
        with self._lock:
            cores = sum(w.capacity.cores for w in self._workers.values() if w.alive)
            mem = sum(w.capacity.memory_gb for w in self._workers.values() if w.alive)
        return {"cores": cores, "memory_gb": mem}

    # -- submission ------------------------------------------------------------

    def submit(self, task: Task) -> Future:
        """Submit one independent task."""
        future = Future(task.task_id)
        with self._lock:
            self._register(task, future)
            self._push_ready(task)
        self._dispatch()
        return future

    def submit_graph(self, graph: TaskGraph) -> dict[str, Future]:
        """Submit a task DAG; dependents run only after prerequisites."""
        graph.validate()
        futures: dict[str, Future] = {}
        with self._lock:
            for task_id in graph.topological_order():
                task = graph.task(task_id)
                future = Future(task.task_id)
                futures[task_id] = future
                self._register(task, future)
                deps = graph.dependencies(task_id)
                if deps:
                    self._waiting_deps[task_id] = set(deps)
                    for dep in deps:
                        self._dependents.setdefault(dep, set()).add(task_id)
                else:
                    self._push_ready(task)
        self._dispatch()
        return futures

    def _register(self, task: Task, future: Future) -> None:
        if task.task_id in self._futures:
            raise ValidationError(f"task {task.task_id} already submitted")
        self._futures[task.task_id] = future
        self._tasks[task.task_id] = task
        self._retries_left[task.task_id] = task.max_retries
        self.tasks_submitted += 1
        if task.timeout > 0:
            self._timed_pending.add(task.task_id)
            self._ensure_watchdog()

    # -- soft timeouts ------------------------------------------------------

    def _ensure_watchdog(self) -> None:
        if self._watchdog is None or not self._watchdog.is_alive():
            self._watchdog_stop.clear()
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="scheduler-watchdog", daemon=True
            )
            self._watchdog.start()

    def _watchdog_loop(self) -> None:
        import time

        while not self._watchdog_stop.wait(0.02):
            with self._lock:
                if not self._timed_pending:
                    # No timed task outstanding: retire instead of waking
                    # every 20 ms forever. Clearing the handle under the
                    # lock lets _ensure_watchdog (also under the lock)
                    # restart cleanly when the next timed task arrives.
                    self._watchdog = None
                    return
            now = time.monotonic()
            for worker in self.workers:
                for task, future, started in worker.running_tasks():
                    if task.timeout > 0 and now - started > task.timeout:
                        # Soft timeout: the future is rejected; the task
                        # body keeps running (Python threads cannot be
                        # interrupted) and its eventual result is
                        # discarded by the future's once-only semantics.
                        if future.state is TaskState.RUNNING:
                            future._reject(
                                TaskError(
                                    task.task_id,
                                    TimeoutError(
                                        f"exceeded soft timeout of {task.timeout}s"
                                    ),
                                )
                            )
                            self.tasks_timed_out += 1
                            self._complete(task, future)

    def stop_watchdog(self) -> None:
        self._watchdog_stop.set()

    def _push_ready(self, task: Task) -> None:
        heapq.heappush(self._ready, (-task.priority, next(self._seq), task))

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
            deferred: list = []
            while self._ready:
                neg_prio, seq, task = heapq.heappop(self._ready)
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
                    deferred.append((neg_prio, seq, task))
                    continue
                if not worker.submit(task, future):
                    deferred.append((neg_prio, seq, task))
            for item in deferred:
                heapq.heappush(self._ready, item)

    def _on_task_done(self, worker: Worker, task: Task, future: Future, outcome: tuple) -> None:
        kind, payload = outcome
        if kind == "bounced":
            # The worker was killed before running it; retry elsewhere for free.
            self._requeue(task, future)
        elif kind == "error":
            if self._retries_left.get(task.task_id, 0) > 0:
                with self._lock:
                    self._retries_left[task.task_id] -= 1
                self._requeue(task, future)
            else:
                future._reject(TaskError(task.task_id, payload))
                self._complete(task, future)
        else:
            future._resolve(payload)
            self._complete(task, future)
        self._dispatch()

    def _requeue(self, task: Task, future: Future) -> None:
        with self._lock:
            future._mark_pending()
            self._push_ready(task)
            self.tasks_retried += 1

    def _complete(self, task: Task, future: Future) -> None:
        with self._lock:
            # discard, not remove: a soft-timed-out task completes again
            # when its (uninterruptible) body eventually returns.
            self._timed_pending.discard(task.task_id)
            dependents = self._dependents.pop(task.task_id, set())
            for dep_id in sorted(dependents):
                waiting = self._waiting_deps.get(dep_id)
                if waiting is None:
                    continue
                if future.state is TaskState.DONE:
                    waiting.discard(task.task_id)
                    if not waiting:
                        del self._waiting_deps[dep_id]
                        self._push_ready(self._tasks[dep_id])
                else:
                    # Propagate failure/cancellation to dependents.
                    del self._waiting_deps[dep_id]
                    dep_future = self._futures[dep_id]
                    if future.state is TaskState.ERROR:
                        dep_future._reject(
                            TaskError(dep_id, future._error or RuntimeError("dependency failed"))
                        )
                    else:
                        dep_future.cancel()
                    # Cascade further.
                    self._complete(self._tasks[dep_id], dep_future)

    # -- introspection --------------------------------------------------------------

    def future(self, task_id: str) -> Future:
        with self._lock:
            try:
                return self._futures[task_id]
            except KeyError:
                raise ValidationError(f"unknown task {task_id!r}") from None

    def pending_count(self) -> int:
        with self._lock:
            return len(self._ready) + len(self._waiting_deps)

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
                "waiting_on_deps": len(self._waiting_deps),
                "callback_errors": dict(callback_errors),
            }
