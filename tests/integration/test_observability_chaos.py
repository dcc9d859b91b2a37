"""Observability chaos: SIGKILL a leader shard mid-stream and
reconstruct the incident purely from exported artifacts.

The cluster runs with full telemetry (per-shard registries + tracers on,
journals always on). A fault-injector rule kills the leader of an
actively-produced partition; the supervisor elects a survivor and
respawns the dead process. Afterwards the test drains everything through
the observability plane, writes the artifacts an operator would export
(``events.jsonl``, ``spans.json``, merged Prometheus exposition), throws
the live objects away, and asserts the incident reads back from the
*files* alone:

* the journal contains ``leader_elected`` then ``shard_respawned``,
  epoch-stamped in that order,
* a sampled produce trace stitches leader append → follower replication
  hops across processes,
* the merged exposition still carries every shard's series.

A second test covers :meth:`TelemetrySampler.watch_cluster` across the
same kill/respawn: ``shards_up`` dips and recovers, the dead shard's
series has a gap, and connection refusals never crash the sampler loop.
"""

import threading
import time

import pytest

from repro.broker import (
    ClusterBroker,
    ClusterBrokerSupervisor,
    Producer,
    shard_for_partition,
)
from repro.broker.errors import BrokerError, RetriableError
from repro.faults import FaultInjector
from repro.monitoring import TelemetrySampler, Tracer
from repro.monitoring.cluster import (
    ClusterEventCollector,
    ClusterMetricsAggregator,
    ClusterTraceCollector,
    stitch_spans,
)
from repro.monitoring.events import merge_timeline, read_jsonl

pytestmark = pytest.mark.chaos

PARTITIONS = 4
ROUNDS = 6
BATCH = 8


def _wait_until(predicate, timeout: float = 30.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestIncidentReconstruction:
    def test_leader_kill_reads_back_from_artifacts(self, tmp_path):
        log_root = tmp_path / "logs"
        with ClusterBrokerSupervisor(
            num_shards=2,
            topics=[("t", PARTITIONS)],
            restart=True,
            replication_factor=2,
            log_dir=str(log_root),
            telemetry=True,
        ) as supervisor:
            doomed = shard_for_partition("t", 0, 2)

            injector = FaultInjector(seed=7)
            broker = ClusterBroker(supervisor.bootstrap)
            broker.fault_injector = injector
            client_tracer = Tracer(service="producer-client")
            producer = Producer(
                broker,
                client_id="obs-producer",
                acks="all",
                retries=30,
                retry_backoff_ms=25.0,
                tracer=client_tracer,
                trace_site="client",
            )
            # Two fully-replicated rounds land first; the kill fires on
            # the first append of round three, aimed at partition 0 and
            # therefore at the doomed leader.
            injector.call_after(
                lambda: supervisor.kill_shard(doomed),
                n=2 * PARTITIONS + 1,
                op="append_batch",
            )

            collector = ClusterEventCollector(
                cluster=broker, journals=[supervisor.events]
            )
            traces = ClusterTraceCollector(
                cluster=broker, tracers=[client_tracer]
            )
            aggregator = ClusterMetricsAggregator(broker)
            try:
                for round_no in range(ROUNDS):
                    for partition in range(PARTITIONS):
                        values = [
                            f"{partition}:{round_no}:{i}".encode()
                            for i in range(BATCH)
                        ]
                        producer.send_many("t", values, partition=partition)
                assert injector.fired.get("call") == 1
                assert _wait_until(lambda: supervisor.restarts == 1)
                # Let the respawned shard finish boot recovery and the
                # collectors drain it (new boot token → full re-drain).
                assert _wait_until(
                    lambda: any(
                        e.type == "recovery_completed" for e in collector.poll()
                    ) or any(
                        e.type == "recovery_completed" for e in collector.events()
                    )
                )
                collector.poll()
                traces.poll()
                aggregator.scrape()
            finally:
                producer.close()

            # -- export the artifacts, then reason ONLY from the files.
            events_path = tmp_path / "events.jsonl"
            spans_path = tmp_path / "spans.json"
            prom_path = tmp_path / "cluster_metrics.prom"
            assert collector.write_jsonl(events_path) > 0
            assert traces.write_json(spans_path) > 0
            prom_path.write_text(aggregator.to_prometheus())
            broker.close()

        timeline = merge_timeline(read_jsonl(events_path))
        by_type = {}
        for event in timeline:
            by_type.setdefault(event.type, []).append(event)

        # The incident story, epoch-stamped and correctly ordered.
        assert "shard_died" in by_type
        elected = by_type["leader_elected"]
        respawned = by_type["shard_respawned"]
        assert elected and respawned
        assert all(e.fields["epoch"] >= 1 for e in elected)
        assert respawned[0].fields["shard"] == doomed
        assert respawned[0].fields["epoch"] >= 2
        order = [e.type for e in timeline if e.origin == "supervisor"]
        assert order.index("shard_died") < order.index("leader_elected")
        assert order.index("leader_elected") < order.index("shard_respawned")
        # The fresh process journalled its boot recovery and ISR rejoin.
        assert any(
            e.type == "recovery_completed" and e.origin == f"shard-{doomed}"
            for e in timeline
        )

        # A sampled produce trace spans processes: the client's send, the
        # leader's append, and the replication hop share one trace id.
        import json

        trees = stitch_spans(json.loads(spans_path.read_text()))
        cross_process = [
            tree for tree in trees.values()
            if {"producer.send", "broker.append"} <= _names(tree)
            and ({"replica.append"} & _names(tree) or {"replication.ack"} & _names(tree))
        ]
        assert cross_process, (
            f"no stitched produce trace crossed the replication hop; "
            f"got trees with names {[sorted(_names(t)) for t in list(trees.values())[:5]]}"
        )

        # The merged exposition carried both shards' series.
        prom = prom_path.read_text()
        assert 'shard="0"' in prom and 'shard="1"' in prom
        assert "repro_broker_records_in" in prom


def _names(node) -> set:
    out = {node["span"].name}
    for child in node["children"]:
        out |= _names(child)
    return out


class TestSamplerAcrossRespawn:
    def test_watch_cluster_survives_shard_kill(self):
        with ClusterBrokerSupervisor(
            num_shards=2, topics=[("t", 2)], restart=True, telemetry=True
        ) as supervisor:
            broker = ClusterBroker(supervisor.bootstrap)
            sampler = TelemetrySampler(interval_s=0.05)
            sampler.watch_cluster(broker)
            try:
                assert sampler.sample_now()["cluster.shards_up"] == 2.0

                doomed = 1
                # The monitor holds the supervisor lock for the whole
                # respawn, so holding it here pins the cluster in its
                # half-dead state — the downtime window the sampler must
                # ride out is deterministic, not a race against a
                # sub-100ms respawn.
                with supervisor._lock:
                    supervisor.kill_shard(doomed)
                    for _ in range(3):
                        # Connection refusals are swallowed by the
                        # scrape: the dead shard's series just stops
                        # while every healthy series keeps flowing.
                        values = sampler.sample_now()
                        assert values["cluster.shards_up"] == 1.0
                        assert (
                            f"cluster.shard{doomed}.connections_active"
                            not in values
                        )
                        assert "cluster.shard0.connections_active" in values

                assert _wait_until(
                    lambda: sampler.sample_now().get("cluster.shards_up") == 2.0
                )
                # Dip-and-recover is visible in the retained series, and
                # the dead shard's own series has a matching gap.
                ups = [v for _, v in sampler.series("cluster.shards_up")]
                assert 1.0 in ups and ups[0] == 2.0 and ups[-1] == 2.0
                shard_series = sampler.series(
                    f"cluster.shard{doomed}.connections_active"
                )
                up_series = sampler.series("cluster.shards_up")
                down_ts = {t for t, v in up_series if v == 1.0}
                assert down_ts.isdisjoint(t for t, _ in shard_series)
                assert sampler.source_errors == 0
            finally:
                broker.close()


class TestExpositionEndpoint:
    def test_serves_cluster_aggregator_merged_view(self):
        with ClusterBrokerSupervisor(
            num_shards=2, topics=[("t", 2)], telemetry=True
        ) as supervisor:
            broker = ClusterBroker(supervisor.bootstrap)
            try:
                for i in range(20):
                    broker.append("t", i % 2, b"v%d" % i)
                aggregator = ClusterMetricsAggregator(broker)
                aggregator.scrape()
                body = aggregator.to_prometheus()
                assert "repro_cluster_shards_scraped 2" in body
                assert "repro_broker_records_in 20" in body
            finally:
                broker.close()
