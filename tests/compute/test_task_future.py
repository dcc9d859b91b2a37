"""Tests for Task, ResourceSpec and Future."""

import threading

import pytest

from repro.compute import (
    CancelledError,
    Future,
    ResourceSpec,
    Scheduler,
    Task,
    TaskError,
    TaskState,
    Worker,
)
from repro.util.validation import ValidationError


class TestResourceSpec:
    def test_defaults(self):
        spec = ResourceSpec()
        assert spec.cores == 1.0
        assert spec.memory_gb == 1.0

    def test_fits_within(self):
        small = ResourceSpec(cores=1, memory_gb=2)
        big = ResourceSpec(cores=4, memory_gb=8)
        assert small.fits_within(big)
        assert not big.fits_within(small)

    def test_addition(self):
        total = ResourceSpec(1, 2) + ResourceSpec(3, 4)
        assert (total.cores, total.memory_gb) == (4, 6)

    def test_subtraction_allows_zero(self):
        spec = ResourceSpec(2, 4) - ResourceSpec(2, 4)
        assert spec.cores == 0 and spec.memory_gb == 0

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            ResourceSpec(cores=0)

    def test_paper_resource_classes(self):
        from repro.compute.task import EDGE_DEVICE, JETSTREAM_MEDIUM, LRZ_LARGE, LRZ_MEDIUM

        assert (EDGE_DEVICE.cores, EDGE_DEVICE.memory_gb) == (1, 4)
        assert (LRZ_MEDIUM.cores, LRZ_MEDIUM.memory_gb) == (4, 18)
        assert (LRZ_LARGE.cores, LRZ_LARGE.memory_gb) == (10, 44)
        assert (JETSTREAM_MEDIUM.cores, JETSTREAM_MEDIUM.memory_gb) == (6, 16)


class TestTask:
    def test_execute(self):
        task = Task(fn=lambda a, b: a + b, args=(1, 2))
        assert task.execute() == 3

    def test_kwargs(self):
        task = Task(fn=lambda a, b=0: a - b, args=(5,), kwargs={"b": 2})
        assert task.execute() == 3

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            Task(fn=42)

    def test_unique_ids(self):
        ids = {Task(fn=lambda: None).task_id for _ in range(100)}
        assert len(ids) == 100


class TestFuture:
    def test_resolve_and_result(self):
        f = Future("t1")
        f._resolve(42)
        assert f.result() == 42
        assert f.state is TaskState.DONE

    def test_reject_raises(self):
        f = Future("t1")
        f._reject(TaskError("t1", ValueError("boom")))
        with pytest.raises(TaskError):
            f.result()

    def test_result_timeout(self):
        f = Future("t1")
        with pytest.raises(TimeoutError):
            f.result(timeout=0.01)

    def test_cancel_pending(self):
        f = Future("t1")
        assert f.cancel()
        with pytest.raises(CancelledError):
            f.result()

    def test_cancel_after_done_fails(self):
        f = Future("t1")
        f._resolve(1)
        assert not f.cancel()
        assert f.result() == 1

    def test_running_cannot_be_cancelled(self):
        f = Future("t1")
        assert f._mark_running("w1")
        assert not f.cancel()

    def test_mark_running_once(self):
        f = Future("t1")
        assert f._mark_running("w1")
        assert not f._mark_running("w2")
        assert f.worker_id == "w1"

    def test_resolve_is_idempotent(self):
        f = Future("t1")
        f._resolve(1)
        f._resolve(2)
        assert f.result() == 1

    def test_callback_on_done(self):
        f = Future("t1")
        seen = []
        f.add_done_callback(lambda fut: seen.append(fut.state))
        f._resolve(1)
        assert seen == [TaskState.DONE]

    def test_callback_fires_immediately_if_done(self):
        f = Future("t1")
        f._resolve(1)
        seen = []
        f.add_done_callback(lambda fut: seen.append(1))
        assert seen == [1]

    def test_callback_errors_isolated(self):
        f = Future("t1")
        seen = []
        f.add_done_callback(lambda fut: 1 / 0)
        f.add_done_callback(lambda fut: seen.append(fut.result()))
        assert f.callback_errors == {}
        f._resolve(1)  # must not raise
        assert seen == [1]  # the callback after the raising one still ran
        assert f.callback_errors == {"ZeroDivisionError": 1}

    def test_scheduler_totals_callback_errors(self):
        sched = Scheduler()
        sched.add_worker(Worker(capacity=ResourceSpec(cores=1, memory_gb=1)))
        try:
            assert sched.stats()["callback_errors"] == {}
            for _ in range(2):
                go, done = threading.Event(), threading.Event()
                f = sched.submit(Task(fn=lambda: go.wait(timeout=5)))
                f.add_done_callback(lambda fut: {}["missing"])
                f.add_done_callback(lambda fut: done.set())
                go.set()  # the callbacks are in place before the task ends
                assert done.wait(timeout=5)
            assert sched.stats()["callback_errors"] == {"KeyError": 2}
        finally:
            for w in sched.workers:
                sched.remove_worker(w.worker_id)

    def test_exception_accessor(self):
        f = Future("t1")
        err = TaskError("t1", RuntimeError("x"))
        f._reject(err)
        assert f.exception() is err

    def test_blocking_result_from_other_thread(self):
        f = Future("t1")
        threading.Timer(0.02, lambda: f._resolve("late")).start()
        assert f.result(timeout=5.0) == "late"
