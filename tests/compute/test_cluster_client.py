"""Tests for the cluster facade and client API."""

import threading

import pytest

from repro.compute import Client, ComputeCluster, ResourceSpec, Task
from repro.util.validation import ValidationError


class TestComputeCluster:
    def test_starts_requested_workers(self, small_cluster):
        assert small_cluster.n_workers == 2

    def test_scale_up(self, small_cluster):
        small_cluster.scale(4)
        assert small_cluster.n_workers == 4

    def test_scale_down(self, small_cluster):
        small_cluster.scale(1)
        assert small_cluster.n_workers == 1

    def test_scale_to_zero(self, small_cluster):
        small_cluster.scale(0)
        assert small_cluster.n_workers == 0

    def test_kill_worker_named(self, small_cluster):
        victim = small_cluster.scheduler.workers[0].worker_id
        assert small_cluster.kill_worker(victim) == victim
        assert small_cluster.n_workers == 1

    def test_kill_unknown_worker(self, small_cluster):
        with pytest.raises(ValueError):
            small_cluster.kill_worker("ghost")

    def test_closed_cluster_rejects_submission(self):
        cluster = ComputeCluster(n_workers=1)
        cluster.close()
        with pytest.raises(RuntimeError):
            cluster.submit_task(Task(fn=lambda: None))

    def test_close_is_idempotent(self):
        cluster = ComputeCluster(n_workers=1)
        cluster.close()
        cluster.close()

    def test_context_manager(self):
        with ComputeCluster(n_workers=1) as cluster:
            assert cluster.n_workers == 1
        assert cluster._closed

    def test_stats_shape(self, small_cluster):
        stats = small_cluster.stats()
        assert len(stats["workers"]) == 2
        assert "scheduler" in stats


class TestClient:
    @pytest.fixture
    def client(self, small_cluster):
        return Client(small_cluster)

    def test_submit(self, client):
        assert client.submit(lambda x: x + 1, 41).result(timeout=5) == 42

    def test_submit_with_kwargs(self, client):
        assert client.submit(lambda a, b=1: a * b, 6, b=7).result(timeout=5) == 42

    def test_map_preserves_order(self, client):
        futures = client.map(lambda x: x * 2, range(20))
        assert Client.gather(futures, timeout=10) == [x * 2 for x in range(20)]

    def test_gather_raises_first_error(self, client):
        futures = [client.submit(lambda: 1), client.submit(lambda: 1 / 0)]
        from repro.compute import TaskError

        with pytest.raises(TaskError):
            Client.gather(futures, timeout=5)

    def test_resources_respected(self, client, small_cluster):
        # A task requiring both cores of one worker still runs.
        f = client.submit(lambda: "big", resources=ResourceSpec(cores=2, memory_gb=2))
        assert f.result(timeout=5) == "big"

    def test_work_distributes_across_workers(self, small_cluster):
        client = Client(small_cluster)
        barrier = threading.Barrier(2, timeout=5)
        futures = [
            client.submit(barrier.wait, resources=ResourceSpec(cores=2, memory_gb=1))
            for _ in range(2)
        ]
        # Each task needs 2 cores = one whole worker; both workers must
        # run simultaneously for the barrier to release.
        Client.gather(futures, timeout=5)


class TestAutoRestart:
    def test_killed_worker_replaced(self):
        with ComputeCluster(n_workers=2, auto_restart=True) as cluster:
            before = {w.worker_id for w in cluster.scheduler.workers}
            cluster.kill_worker()
            after = {w.worker_id for w in cluster.scheduler.workers}
            assert cluster.n_workers == 2
            assert cluster.workers_restarted == 1
            assert after != before  # a fresh worker joined

    def test_replacement_serves_tasks(self):
        with ComputeCluster(n_workers=1, auto_restart=True) as cluster:
            client = Client(cluster)
            cluster.kill_worker()
            assert client.submit(lambda: "revived").result(timeout=5) == "revived"

    def test_graceful_scale_down_not_restarted(self):
        with ComputeCluster(n_workers=3, auto_restart=True) as cluster:
            cluster.scale(1)
            assert cluster.n_workers == 1
            assert cluster.workers_restarted == 0

    def test_disabled_by_default(self):
        with ComputeCluster(n_workers=2) as cluster:
            cluster.kill_worker()
            assert cluster.n_workers == 1
            assert cluster.workers_restarted == 0

    def test_survives_repeated_failures(self):
        with ComputeCluster(n_workers=2, auto_restart=True) as cluster:
            client = Client(cluster)
            for _ in range(5):
                cluster.kill_worker()
            assert cluster.n_workers == 2
            assert cluster.workers_restarted == 5
            futures = client.map(lambda x: x + 1, range(10))
            assert Client.gather(futures, timeout=10) == list(range(1, 11))
