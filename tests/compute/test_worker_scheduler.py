"""Tests for workers and the scheduler."""

import threading

import pytest

from repro.compute import (
    Future,
    NoCapacityError,
    ResourceSpec,
    Scheduler,
    Task,
    TaskError,
    TaskState,
    Worker,
)


class TestWorkerStandalone:
    def test_executes_submitted_task(self):
        worker = Worker(capacity=ResourceSpec(cores=1, memory_gb=1))
        try:
            task = Task(fn=lambda: 7)
            future = Future(task.task_id)
            assert worker.submit(task, future)
            assert future.result(timeout=5) == 7
        finally:
            worker.shutdown()

    def test_task_error_captured(self):
        worker = Worker()
        try:
            task = Task(fn=lambda: 1 / 0)
            future = Future(task.task_id)
            worker.submit(task, future)
            with pytest.raises(TaskError) as exc_info:
                future.result(timeout=5)
            assert isinstance(exc_info.value.cause, ZeroDivisionError)
        finally:
            worker.shutdown()

    def test_worker_survives_task_error(self):
        worker = Worker()
        try:
            bad = Task(fn=lambda: 1 / 0)
            f_bad = Future(bad.task_id)
            worker.submit(bad, f_bad)
            with pytest.raises(TaskError):
                f_bad.result(timeout=5)
            good = Task(fn=lambda: "ok")
            f_good = Future(good.task_id)
            worker.submit(good, f_good)
            assert f_good.result(timeout=5) == "ok"
            assert worker.tasks_failed == 1
            assert worker.tasks_completed == 1
        finally:
            worker.shutdown()

    def test_admission_respects_capacity(self):
        worker = Worker(capacity=ResourceSpec(cores=1, memory_gb=1))
        try:
            big = Task(fn=lambda: None, resources=ResourceSpec(cores=2, memory_gb=1))
            assert not worker.can_accept(big)
            assert not worker.submit(big, Future(big.task_id))
        finally:
            worker.shutdown()

    def test_resources_released_after_completion(self):
        worker = Worker(capacity=ResourceSpec(cores=1, memory_gb=2))
        try:
            task = Task(fn=lambda: None, resources=ResourceSpec(cores=1, memory_gb=2))
            future = Future(task.task_id)
            worker.submit(task, future)
            future.result(timeout=5)
            free = worker.free_resources()
            assert free.cores == pytest.approx(1, abs=1e-6)
        finally:
            worker.shutdown()

    def test_parallelism_up_to_cores(self):
        worker = Worker(capacity=ResourceSpec(cores=2, memory_gb=4))
        try:
            barrier = threading.Barrier(2, timeout=5)
            task_fn = barrier.wait  # both tasks must run simultaneously
            futures = []
            for _ in range(2):
                t = Task(fn=task_fn, resources=ResourceSpec(cores=1, memory_gb=1))
                f = Future(t.task_id)
                worker.submit(t, f)
                futures.append(f)
            for f in futures:
                f.result(timeout=5)  # would deadlock if serialised
        finally:
            worker.shutdown()

    def test_kill_returns_queued_tasks(self):
        worker = Worker(capacity=ResourceSpec(cores=1, memory_gb=1))
        block = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            block.wait(timeout=5)

        t1 = Task(fn=blocker, resources=ResourceSpec(cores=1, memory_gb=1))
        worker.submit(t1, Future(t1.task_id))
        assert started.wait(timeout=5)  # blocker is off the queue
        queued = [Task(fn=lambda: None, resources=ResourceSpec(cores=1, memory_gb=1)) for _ in range(3)]
        # Capacity is taken; these would queue at the scheduler in real
        # use — force-queue them directly to exercise kill().
        for t in queued:
            worker._queue.put((t, Future(t.task_id)))
        orphans = worker.kill()
        block.set()
        assert len(orphans) == 3

    def test_stats(self):
        worker = Worker()
        try:
            t = Task(fn=lambda: None)
            f = Future(t.task_id)
            worker.submit(t, f)
            f.result(timeout=5)
            stats = worker.stats()
            assert stats["tasks_completed"] == 1
            assert stats["alive"]
        finally:
            worker.shutdown()


class TestScheduler:
    @pytest.fixture
    def sched(self):
        s = Scheduler()
        for _ in range(2):
            s.add_worker(Worker(capacity=ResourceSpec(cores=1, memory_gb=2)))
        yield s
        for w in s.workers:
            s.remove_worker(w.worker_id)

    def test_submit_and_result(self, sched):
        f = sched.submit(Task(fn=lambda: 5))
        assert f.result(timeout=5) == 5

    def test_many_tasks_all_complete(self, sched):
        futures = [sched.submit(Task(fn=lambda i=i: i * i)) for i in range(50)]
        assert [f.result(timeout=10) for f in futures] == [i * i for i in range(50)]

    def test_impossible_task_fails_fast(self, sched):
        task = Task(fn=lambda: None, resources=ResourceSpec(cores=64, memory_gb=1))
        f = sched.submit(task)
        with pytest.raises(TaskError) as exc_info:
            f.result(timeout=5)
        assert isinstance(exc_info.value.cause, NoCapacityError)

    def test_worker_killed_task_retried_elsewhere(self):
        s = Scheduler()
        w1 = Worker(capacity=ResourceSpec(cores=1, memory_gb=1))
        s.add_worker(w1)
        started = threading.Event()
        release = threading.Event()

        def blocker():
            started.set()
            release.wait(timeout=5)
            return "done"

        f1 = s.submit(Task(fn=blocker, resources=ResourceSpec(cores=1, memory_gb=1)))
        started.wait(timeout=5)
        # Queue a second task behind the blocker, then kill the worker.
        f2 = s.submit(Task(fn=lambda: "second", resources=ResourceSpec(cores=1, memory_gb=1)))
        w2 = Worker(capacity=ResourceSpec(cores=1, memory_gb=1))
        s.add_worker(w2)
        s.remove_worker(w1.worker_id, graceful=False)
        release.set()
        assert f2.result(timeout=5) == "second"
        s.remove_worker(w2.worker_id)

    def test_killed_worker_queued_task_runs_elsewhere(self):
        # Two half-core tasks both fit the 1-core worker, but its single
        # thread runs one at a time: the second waits on the worker's own
        # queue, which is what kill() hands back to the scheduler.
        s = Scheduler()
        w1 = Worker(capacity=ResourceSpec(cores=1, memory_gb=1))
        s.add_worker(w1)
        started = threading.Event()
        release = threading.Event()

        def blocker():
            started.set()
            release.wait(timeout=5)

        half = ResourceSpec(cores=0.5, memory_gb=0.5)
        s.submit(Task(fn=blocker, resources=half))
        assert started.wait(timeout=5)
        f2 = s.submit(Task(fn=lambda: "second", resources=half))
        assert s.pending_count() == 0  # admitted by w1, not held by the scheduler
        w2 = Worker(capacity=ResourceSpec(cores=1, memory_gb=1))
        s.add_worker(w2)
        try:
            s.remove_worker(w1.worker_id, graceful=False)
            assert f2.result(timeout=5) == "second"
            assert f2.worker_id == w2.worker_id
        finally:
            release.set()
            s.remove_worker(w2.worker_id)

    def test_duplicate_submission_rejected(self, sched):
        from repro.util.validation import ValidationError

        task = Task(fn=lambda: None)
        sched.submit(task)
        with pytest.raises(ValidationError):
            sched.submit(task)

    def test_total_capacity(self, sched):
        cap = sched.total_capacity()
        assert cap["cores"] == 2
        assert cap["memory_gb"] == 4

    def test_stats(self, sched):
        sched.submit(Task(fn=lambda: None)).result(timeout=5)
        stats = sched.stats()
        assert stats["tasks_submitted"] == 1
        assert stats["workers"] == 2
