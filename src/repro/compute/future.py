"""Deferred results with state tracking.

The future is the hand-off between the scheduler's worker threads and
application code: the worker resolves it, the application blocks on
:meth:`result` or registers callbacks.
"""

from __future__ import annotations

import enum
import threading
from collections import Counter
from typing import Any, Callable


class TaskState(enum.Enum):
    """Lifecycle of a task's future."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    ERROR = "error"
    CANCELLED = "cancelled"


class TaskError(RuntimeError):
    """Wraps an exception raised inside a task."""

    def __init__(self, task_id: str, cause: BaseException) -> None:
        super().__init__(f"task {task_id} failed: {cause!r}")
        self.task_id = task_id
        self.cause = cause


class CancelledError(RuntimeError):
    """The task was cancelled before completion."""


class Future:
    """Thread-safe container for a task's eventual result."""

    def __init__(self, task_id: str) -> None:
        self.task_id = task_id
        self._state = TaskState.PENDING
        self._result: Any = None
        self._error: TaskError | None = None
        self._lock = threading.Lock()
        self._done_event = threading.Event()
        self._callbacks: list[Callable] = []
        self._callback_errors: Counter[str] = Counter()
        #: Worker that executed (or is executing) the task, for locality
        #: decisions and failure attribution.
        self.worker_id: str | None = None

    # -- state transitions (called by the scheduler/worker) ---------------

    def _mark_running(self, worker_id: str) -> bool:
        with self._lock:
            if self._state is not TaskState.PENDING:
                return False
            self._state = TaskState.RUNNING
            self.worker_id = worker_id
            return True

    def _mark_pending(self) -> None:
        """Return to pending (retry after a worker failure)."""
        with self._lock:
            if self._state is TaskState.RUNNING:
                self._state = TaskState.PENDING
                self.worker_id = None

    def _resolve(self, value: Any) -> None:
        with self._lock:
            if self._state in (TaskState.DONE, TaskState.ERROR, TaskState.CANCELLED):
                return
            self._state = TaskState.DONE
            self._result = value
        self._fire()

    def _reject(self, error: TaskError) -> None:
        with self._lock:
            if self._state in (TaskState.DONE, TaskState.ERROR, TaskState.CANCELLED):
                return
            self._state = TaskState.ERROR
            self._error = error
        self._fire()

    def cancel(self) -> bool:
        """Cancel if still pending; running tasks cannot be interrupted."""
        with self._lock:
            if self._state is not TaskState.PENDING:
                return False
            self._state = TaskState.CANCELLED
        self._fire()
        return True

    def _fire(self) -> None:
        self._done_event.set()
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            try:
                cb(self)
            except Exception as exc:  # counted; the worker and later callbacks go on
                with self._lock:
                    self._callback_errors[type(exc).__name__] += 1

    # -- inspection / retrieval -----------------------------------------------

    @property
    def state(self) -> TaskState:
        return self._state

    def done(self) -> bool:
        return self._state in (TaskState.DONE, TaskState.ERROR, TaskState.CANCELLED)

    def result(self, timeout: float | None = None) -> Any:
        """Block for the result; re-raises task errors."""
        if not self._done_event.wait(timeout):
            raise TimeoutError(f"task {self.task_id} not done after {timeout}s")
        if self._state is TaskState.DONE:
            return self._result
        if self._state is TaskState.ERROR:
            raise self._error
        raise CancelledError(f"task {self.task_id} was cancelled")

    def exception(self, timeout: float | None = None) -> TaskError | None:
        if not self._done_event.wait(timeout):
            raise TimeoutError(f"task {self.task_id} not done after {timeout}s")
        return self._error

    @property
    def callback_errors(self) -> dict[str, int]:
        """Done-callbacks that raised, by exception type."""
        with self._lock:
            return dict(self._callback_errors)

    def add_done_callback(self, callback: Callable) -> None:
        """Run *callback(future)* once done (immediately if already done)."""
        run_now = False
        with self._lock:
            if self.done():
                run_now = True
            else:
                self._callbacks.append(callback)
        if run_now:
            callback(self)

    def __repr__(self) -> str:
        return f"Future({self.task_id}, {self._state.value})"
