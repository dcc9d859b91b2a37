"""Tests for the background telemetry sampler and its JSONL export."""

import json
import time

import pytest

from repro.broker import Broker, Consumer, Producer
from repro.monitoring import MetricsRegistry, TelemetrySampler, sampler as sampler_module
from repro.monitoring.sampler import series_from_jsonl


class TestSources:
    def test_sample_now_collects_all_sources(self):
        sampler = TelemetrySampler()
        sampler.add_source(lambda: {"x": 1})
        sampler.add_source(lambda: {"y": 2.5})
        values = sampler.sample_now()
        assert values == {"x": 1, "y": 2.5}
        assert sampler.names() == ["x", "y"]
        assert sampler.series("y")[-1][1] == 2.5

    def test_failing_source_does_not_kill_round(self):
        sampler = TelemetrySampler()

        def bad():
            raise RuntimeError("component died")

        sampler.add_source(bad)
        sampler.add_source(lambda: {"x": 1})
        values = sampler.sample_now()
        assert values == {"x": 1}
        assert sampler.source_errors == 1

    def test_series_accumulates_in_time_order(self):
        sampler = TelemetrySampler()
        level = {"v": 0}
        sampler.add_source(lambda: {"x": level["v"]})
        for v in (1, 5, 2):
            level["v"] = v
            sampler.sample_now()
        points = sampler.series("x")
        assert [p[1] for p in points] == [1.0, 5.0, 2.0]
        assert points == sorted(points)

    def test_retention_bound(self, monkeypatch):
        monkeypatch.setattr(sampler_module, "MAX_SAMPLES", 3)
        sampler = TelemetrySampler()
        sampler.add_source(lambda: {"x": 1})
        for _ in range(10):
            sampler.sample_now()
        assert len(sampler.series("x")) == 3

    def test_registry_mirrors_latest_value(self):
        # Nothing is mirrored: a source is a reader of the registry, so
        # the exposition shows the live level with or without a tick, and
        # the series records what the registry's instruments hold too.
        reg = MetricsRegistry()
        sampler = TelemetrySampler(registry=reg)
        level = {"v": 7}
        sampler.add_source(lambda: {"depth": level["v"]})
        assert reg.snapshot()["gauges"] == {"depth": 7}
        level["v"] = 9
        assert "repro_depth 9" in reg.to_prometheus()
        reg.counter("records_in").inc(3)
        assert sampler.sample_now() == {"depth": 9, "records_in": 3}
        assert sampler.series("records_in")[-1][1] == 3.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TelemetrySampler(interval_s=0)


class TestWatchBroker:
    def test_broker_gauges_and_lag(self):
        broker = Broker(name="b")
        broker.create_topic("t", num_partitions=2)
        Producer(broker).send_many("t", [b"xx"] * 6, partition=0)
        consumer = Consumer(broker, group_id="g")
        consumer.subscribe("t")
        sampler = TelemetrySampler()
        sampler.watch_broker(broker)
        values = sampler.sample_now()
        assert values["broker.log_depth.t.0"] == 6
        assert values["broker.end_offset.t.0"] == 6
        assert values["broker.log_bytes.t.0"] == 12
        assert values["group.members.g"] == 1
        # nothing committed yet: the whole log is lag
        assert values["consumer_lag.g.t.0"] == 6
        got = []
        while len(got) < 6:
            got.extend(consumer.poll(max_records=10, timeout=1.0))
        consumer.commit()
        assert sampler.sample_now()["consumer_lag.g.t.0"] == 0
        consumer.close()

    def test_lag_series_survives_group_shutdown(self):
        """A closed group keeps its lag series: the curve ends at 0."""
        broker = Broker(name="b")
        broker.create_topic("t", num_partitions=1)
        Producer(broker).send_many("t", [b"x"] * 4, partition=0)
        consumer = Consumer(broker, group_id="g")
        consumer.subscribe("t")
        sampler = TelemetrySampler()
        sampler.watch_broker(broker)
        sampler.sample_now()  # group alive, lag = 4
        while len(consumer.poll(max_records=10, timeout=1.0)) == 0:
            pass
        consumer.commit()
        consumer.close()  # group now empty/deleted
        values = sampler.sample_now()
        assert values["consumer_lag.g.t.0"] == 0
        points = sampler.series("consumer_lag.g.t.0")
        assert points[0][1] == 4.0
        assert points[-1][1] == 0.0

    def test_first_sample_after_shutdown_still_sees_group(self):
        """Committed offsets reveal groups the sampler never saw alive."""
        broker = Broker(name="b")
        broker.create_topic("t", num_partitions=1)
        Producer(broker).send_many("t", [b"x"] * 3, partition=0)
        consumer = Consumer(broker, group_id="g")
        consumer.subscribe("t")
        while len(consumer.poll(max_records=10, timeout=1.0)) == 0:
            pass
        consumer.commit()
        consumer.close()
        sampler = TelemetrySampler()
        sampler.watch_broker(broker)  # first sample happens after close
        assert sampler.sample_now()["consumer_lag.g.t.0"] == 0


class TestWatchServer:
    def test_server_gauges_reach_metrics_endpoint(self):
        from repro.broker.remote import BrokerServer, RemoteBroker

        # The server's gauges are read by its broker's registry, which
        # is always there: sample it, or render it, directly.
        broker = Broker(name="edge")
        with BrokerServer(broker) as srv:
            with RemoteBroker(srv.host, srv.port) as remote:
                remote.create_topic("t", 1)
                sampler = TelemetrySampler(registry=broker.registry)
                values = sampler.sample_now()
                assert values["server.connections_active"] == 1
                assert values["server.parked_fetches"] == 0
                assert values["server.reactor_loop_lag_s"] >= 0.0
                assert values["server.requests_served"] >= 1
                assert srv.metrics()["connections_active"] == 1
                body = broker.registry.to_prometheus()
                assert "repro_server_connections_active 1" in body
                assert "repro_server_parked_fetches 0" in body


def _snapshot(**server_gauges):
    """One shard's ``metrics_snapshot`` answer with these server gauges."""
    gauges = {f"server.{key}": value for key, value in server_gauges.items()}
    return {"counters": {}, "gauges": gauges, "histograms": {}}


class TestWatchCluster:
    def test_shard_labeled_series_and_fleet_gauges(self):
        class FakeCluster:
            """Shape of ClusterBroker.metrics_snapshots(): one shard
            (index 1) is unreachable this round, so it answers None."""

            num_shards = 3

            def metrics_snapshots(self):
                return {
                    0: _snapshot(
                        connections_active=2,
                        parked_fetches=1,
                        reactor_loop_lag_s=0.001,
                        requests_served=7,
                    ),
                    1: None,
                    2: _snapshot(connections_active=1, requests_served=3),
                }

        reg = MetricsRegistry()
        sampler = TelemetrySampler(registry=reg)
        sampler.watch_cluster(FakeCluster())
        values = sampler.sample_now()
        assert values["cluster.shard0.connections_active"] == 2.0
        assert values["cluster.shard0.parked_fetches"] == 1.0
        assert values["cluster.shard0.reactor_loop_lag_s"] == 0.001
        assert values["cluster.shard2.requests_served"] == 3.0
        # The dead shard leaves a gap, not zeros, and the fleet gauges
        # record the level drop alongside it.
        assert not any(k.startswith("cluster.shard1.") for k in values)
        assert values["cluster.shards_up"] == 2.0
        assert values["cluster.shards_total"] == 3.0
        # Mirrored into the registry so /metrics covers every shard.
        text = reg.to_prometheus()
        assert "repro_cluster_shard0_connections_active 2" in text
        assert "repro_cluster_shard2_requests_served 3" in text
        assert "repro_cluster_shards_up 2" in text
        assert "repro_cluster_shards_total 3" in text

    def test_replicated_cluster_reports_isr_and_lag_gauges(self):
        class FakeReplicatedCluster:
            num_shards = 2

            def metrics_snapshots(self):
                return {
                    0: _snapshot(connections_active=1),
                    1: _snapshot(connections_active=1),
                }

            def replication_status(self):
                return {
                    "replication_factor": 2,
                    "partitions": [
                        {
                            "topic": "t", "partition": 0, "leader": 0,
                            "isr": [0, 1], "under_replicated": False,
                            "followers": [
                                {"shard": 1, "acked": 7, "lag": 0,
                                 "in_isr": True},
                            ],
                        },
                        {
                            "topic": "t", "partition": 1, "leader": 1,
                            "isr": [1], "under_replicated": True,
                            "followers": [
                                {"shard": 0, "acked": 2, "lag": 5,
                                 "in_isr": False},
                            ],
                        },
                    ],
                }

        reg = MetricsRegistry()
        sampler = TelemetrySampler(registry=reg)
        sampler.watch_cluster(FakeReplicatedCluster())
        values = sampler.sample_now()
        assert values["cluster.isr_size.t.0"] == 2.0
        assert values["cluster.isr_size.t.1"] == 1.0
        assert values["cluster.replica_lag.t.0"] == 0.0
        assert values["cluster.replica_lag.t.1"] == 5.0
        assert values["cluster.under_replicated_partitions"] == 1.0
        # Exposed on /metrics alongside the shard gauges.
        text = reg.to_prometheus()
        assert "repro_cluster_isr_size_t_0 2" in text
        assert "repro_cluster_replica_lag_t_1 5" in text
        assert "repro_cluster_under_replicated_partitions 1" in text

    def test_unreplicated_cluster_skips_replication_gauges(self):
        class FakeCluster:
            num_shards = 1

            def metrics_snapshots(self):
                return {0: _snapshot(connections_active=0)}

            def replication_status(self):
                return {"replication_factor": 1, "partitions": []}

        sampler = TelemetrySampler()
        sampler.watch_cluster(FakeCluster())
        values = sampler.sample_now()
        assert not any("isr_size" in k for k in values)
        assert "cluster.under_replicated_partitions" not in values

    def test_custom_name_prefixes_series(self):
        class FakeCluster:
            num_shards = 1

            def metrics_snapshots(self):
                return {0: _snapshot(connections_active=0)}

        sampler = TelemetrySampler()
        sampler.watch_cluster(FakeCluster(), name="edge-cluster")
        values = sampler.sample_now()
        assert values["edge-cluster.shard0.connections_active"] == 0.0
        assert values["edge-cluster.shards_up"] == 1.0

    def test_live_cluster_sampled_end_to_end(self):
        from repro.broker import ClusterBroker, ClusterBrokerSupervisor

        with ClusterBrokerSupervisor(
            num_shards=2, topics=[("t", 2)]
        ) as supervisor:
            with ClusterBroker(supervisor.bootstrap) as cluster:
                sampler = TelemetrySampler()
                sampler.watch_cluster(cluster)
                values = sampler.sample_now()
                assert values["cluster.shards_up"] == 2.0
                assert values["cluster.shards_total"] == 2.0
                # The sampling call itself holds a connection to each
                # shard while its metrics are read.
                for index in (0, 1):
                    assert (
                        values[f"cluster.shard{index}.connections_active"]
                        >= 1
                    )


def _wait_for(condition, timeout=10.0):
    """Poll *condition* until it holds or *timeout* seconds pass."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


class TestBackgroundThread:
    def test_start_stop_takes_final_sample(self):
        sampler = TelemetrySampler(interval_s=0.02)
        calls = []
        sampler.add_source(lambda: calls.append(1) or {"x": len(calls)})
        sampler.start()
        assert sampler.running
        assert _wait_for(lambda: sampler.sample_rounds >= 2)  # periodic
        thread = sampler._thread
        sampler.stop()
        assert not sampler.running
        assert not thread.is_alive()  # thread really stopped
        rounds = sampler.sample_rounds
        assert rounds >= 3  # periodic + one final
        assert len(calls) == rounds

    def test_double_start_rejected(self):
        sampler = TelemetrySampler(interval_s=0.05)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()
        sampler.stop()

    def test_context_manager(self):
        with TelemetrySampler(interval_s=0.05) as sampler:
            assert sampler.running
        assert not sampler.running

    def test_absolute_schedule_skips_missed_ticks(self):
        # A source slower than the interval must not queue up make-up
        # rounds: the absolute schedule skips the ticks it can no longer
        # make and counts them.
        sampler = TelemetrySampler(interval_s=0.02)
        sampler.add_source(lambda: time.sleep(0.07) or {"x": 1})
        started = time.monotonic()
        sampler.start()
        assert _wait_for(lambda: sampler.sample_rounds >= 3)
        sampler.stop(final_sample=False)
        elapsed = time.monotonic() - started
        assert sampler.ticks_skipped >= 1
        # Rounds ~ elapsed / source_duration, nowhere near elapsed / interval.
        assert sampler.sample_rounds <= elapsed / 0.07 + 1

    def test_fast_sources_skip_nothing(self):
        sampler = TelemetrySampler(interval_s=0.02)
        sampler.add_source(lambda: {"x": 1})
        sampler.start()
        assert _wait_for(lambda: sampler.sample_rounds >= 3)
        sampler.stop(final_sample=False)
        assert sampler.ticks_skipped == 0


class TestJsonlExport:
    def test_jsonl_roundtrip_reconstructs_series(self):
        sampler = TelemetrySampler()
        level = {"v": 0}
        sampler.add_source(lambda: {"a": level["v"], "b": level["v"] * 2})
        for v in (1, 2, 3):
            level["v"] = v
            sampler.sample_now()
        text = sampler.to_jsonl()
        lines = [json.loads(l) for l in text.strip().splitlines()]
        assert len(lines) == 3
        assert all(set(l) == {"t", "values"} for l in lines)
        parsed = series_from_jsonl(text)
        assert parsed == sampler.snapshot()

    def test_write_jsonl(self, tmp_path):
        sampler = TelemetrySampler()
        sampler.add_source(lambda: {"x": 1})
        sampler.sample_now()
        path = tmp_path / "telemetry.jsonl"
        sampler.write_jsonl(path)
        assert series_from_jsonl(path.read_text()) == sampler.snapshot()

    def test_empty_sampler_exports_empty(self):
        assert TelemetrySampler().to_jsonl() == ""
