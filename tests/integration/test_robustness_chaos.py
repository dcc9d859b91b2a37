"""Chaos tests for the delivery/failure-handling layer (PR 3).

Every scenario uses *scripted* fault plans (seeded injectors, one-shot
socket kills) rather than background randomness, so each run replays
identically: a retry storm that must not duplicate offsets, a consumer
crash that must hand partitions over within one session timeout, a
server connection killed mid-fetch that must reconnect-and-resume, and
a full pipeline over a lossy edge uplink that must deliver every
message.
"""

import threading
import time

import pytest

from repro import (
    CELLULAR_EDGE,
    ContinuumTopology,
    EdgeToCloudPipeline,
    PilotComputeService,
    PilotDescription,
    PipelineConfig,
    ResourceSpec,
    make_block_producer,
    passthrough_processor,
)
from repro.broker import Broker, Consumer, Producer
from repro.broker.errors import BrokerTimeoutError, RetriableError
from repro.broker.remote import BrokerServer, RemoteBroker
from repro.faults import FaultInjector, FaultyBroker

pytestmark = pytest.mark.chaos


@pytest.fixture
def service():
    s = PilotComputeService(time_scale=0.0)
    yield s
    s.close()


class TestRetryStorm:
    def test_retry_storm_no_duplicate_offsets(self):
        """Heavy injected loss + retries: the log stays duplicate-free."""
        broker = Broker()
        broker.create_topic("t", 1)
        injector = FaultInjector(seed=42)
        # Half of all appends fail, for the whole run.
        injector.drop_next(10_000, op="append_many", probability=0.5)
        producer = Producer(
            FaultyBroker(broker, injector),
            client_id="stormy",
            retries=50,
            retry_backoff_ms=0.0,
        )
        for batch in range(25):
            producer.send_many(
                "t", [f"{batch}:{i}".encode() for i in range(8)], partition=0
            )
        assert injector.fired.get("drop", 0) > 0, "plan never fired"
        consumer = Consumer(broker)
        consumer.assign([("t", 0)])
        values = [r.value for r in consumer.poll(max_records=10_000)]
        assert len(values) == 200
        assert len(set(values)) == 200, "retry storm duplicated records"
        assert broker.latest_offset("t", 0) == 200


class TestConsumerCrash:
    def test_crash_reassigns_within_one_session_timeout(self):
        """A consumer that stops polling loses its partitions to the
        survivor within ~one session timeout, and every record is still
        consumed exactly once across the group."""
        session_ms = 80.0
        broker = Broker()
        broker.create_topic("t", 4)
        producer = Producer(broker)
        for i in range(40):
            producer.send("t", f"pre-{i}".encode(), partition=i % 4)

        survivor = Consumer(broker, group_id="g", session_timeout_ms=session_ms)
        survivor.subscribe("t")
        victim = Consumer(broker, group_id="g", session_timeout_ms=session_ms)
        victim.subscribe("t")
        seen = {r.value for r in survivor.poll(max_records=1000, timeout=0.5)}
        seen.update(r.value for r in victim.poll(max_records=1000, timeout=0.5))
        # The victim crashes now: no leave(), no further heartbeats.
        crash = time.monotonic()
        deadline = crash + 5.0
        reassigned_at = None
        while time.monotonic() < deadline:
            seen.update(r.value for r in survivor.poll(max_records=1000, timeout=0.0))
            if reassigned_at is None and len(survivor.assignment) == 4:
                reassigned_at = time.monotonic()
            if len(seen) == 40 and reassigned_at is not None:
                break
            time.sleep(0.005)
        assert reassigned_at is not None, "survivor never inherited the partitions"
        # Detection needs one session timeout; give scheduling slack.
        assert reassigned_at - crash < (session_ms / 1000.0) * 5
        assert len(seen) == 40, f"lost records after crash: {40 - len(seen)} missing"
        assert broker.coordinator.members_evicted == 1


class TestServerKill:
    def test_mid_fetch_socket_kill_reconnects_and_resumes(self):
        """A connection killed under an in-flight op is re-dialed and the
        idempotent op replayed — the caller never sees the failure."""
        with BrokerServer() as server:
            remote = RemoteBroker(server.host, server.port)
            remote.create_topic("t", 1)
            remote.append("t", 0, b"before")
            injector = FaultInjector()
            injector.kill_socket_once(op="fetch_batch")
            remote.fault_injector = injector
            records = remote.fetch("t", 0, 0)  # socket dies under this op
            assert [r.value for r in records] == [b"before"]
            assert remote.reconnects == 1
            # The healed connection keeps working.
            remote.append("t", 0, b"after")
            assert [r.value for r in remote.fetch("t", 0, 1)] == [b"after"]
            remote.close()

    def test_nonidempotent_append_fails_fast_instead_of_replaying(self):
        """A plain (non-idempotent) append must NOT be blindly replayed:
        the first transport failure surfaces as a retriable error."""
        with BrokerServer() as server:
            remote = RemoteBroker(server.host, server.port)
            remote.create_topic("t", 1)
            injector = FaultInjector()
            injector.kill_socket_once(op="append_batch")
            remote.fault_injector = injector
            with pytest.raises(RetriableError):
                remote.append("t", 0, b"x")
            # Nothing landed twice and the connection healed.
            remote.append("t", 0, b"y")
            assert remote.latest_offset("t", 0) in (1, 2)
            remote.close()

    def test_dead_server_times_out_instead_of_hanging(self):
        """A server that accepts but never answers must yield a timeout
        error within the op deadline — not an eternal blocking recv."""
        silent = None
        listener = None
        try:
            import socket as socket_mod

            listener = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            host, port = listener.getsockname()
            accepted = []

            def accept_and_stall():
                conn, _ = listener.accept()
                accepted.append(conn)  # hold it open, never respond

            silent = threading.Thread(target=accept_and_stall, daemon=True)
            silent.start()
            remote = RemoteBroker(host, port, op_timeout=0.2, max_attempts=1)
            start = time.monotonic()
            with pytest.raises(BrokerTimeoutError):
                remote.latest_offset("t", 0)
            assert time.monotonic() - start < 5.0
            remote.close()
        finally:
            if listener is not None:
                listener.close()


class TestLossyPipeline:
    def test_cellular_edge_pipeline_zero_loss_with_retries(self, service):
        """End-to-end: a lossy CELLULAR_EDGE uplink plus delivery retries
        processes every produced message exactly once — no drops."""
        edge = service.submit_pilot(
            PilotDescription(
                resource="ssh",
                site="edge",
                nodes=2,
                node_spec=ResourceSpec(cores=1, memory_gb=4),
            )
        )
        cloud = service.submit_pilot(
            PilotDescription(resource="cloud", site="lrz", instance_type="lrz.large")
        )
        assert service.wait_all(timeout=15)

        topo = ContinuumTopology(time_scale=0.0, seed=3)
        topo.add_site("edge", tier="edge")
        topo.add_site("lrz", tier="cloud")
        topo.connect("edge", "lrz", CELLULAR_EDGE)  # 1% loss
        # Add scripted drops on top of the profile's random loss so the
        # retry path definitely fires even on a lucky seed.
        injector = FaultInjector(seed=11).drop_next(5, op="transfer")
        topo.direct_link("edge", "lrz").injector = injector

        total = 120
        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=make_block_producer(points=40, features=8, clusters=4),
            process_cloud_function_handler=passthrough_processor,
            config=PipelineConfig(
                num_devices=2,
                messages_per_device=total // 2,
                num_consumers=2,
                producer_retries=8,
                retry_backoff_ms=0.0,
                session_timeout_ms=5_000.0,
                max_duration=120.0,
            ),
            topology=topo,
        )
        result = pipeline.run()
        assert result.completed, result.errors
        collector = pipeline.collector
        assert collector.counter("messages_dropped") == 0, "retries must erase loss"
        # Every message has a complete end-to-end trace: actually
        # processed, not merely accounted for.
        assert result.report.messages == total
        assert collector.counter("produce_retries") > 0, "loss never exercised retries"
        link = topo.direct_link("edge", "lrz")
        assert link.losses > 0, "the lossy link never dropped anything"

    def test_lossy_pipeline_without_retries_still_accounts_drops(self, service):
        """Regression: retries off keeps the existing QoS-0 contract —
        drops are counted, the run completes."""
        edge = service.submit_pilot(
            PilotDescription(
                resource="ssh",
                site="edge",
                nodes=1,
                node_spec=ResourceSpec(cores=1, memory_gb=4),
            )
        )
        cloud = service.submit_pilot(
            PilotDescription(resource="cloud", site="lrz", instance_type="lrz.large")
        )
        assert service.wait_all(timeout=15)
        topo = ContinuumTopology(time_scale=0.0, seed=5)
        topo.add_site("edge", tier="edge")
        topo.add_site("lrz", tier="cloud")
        topo.connect("edge", "lrz", CELLULAR_EDGE)
        injector = FaultInjector(seed=2).drop_next(3, op="transfer")
        topo.direct_link("edge", "lrz").injector = injector

        total = 60
        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=make_block_producer(points=40, features=8, clusters=4),
            process_cloud_function_handler=passthrough_processor,
            config=PipelineConfig(
                num_devices=1, messages_per_device=total, max_duration=60.0
            ),
            topology=topo,
        )
        result = pipeline.run()
        assert result.completed, result.errors
        dropped = pipeline.collector.counter("messages_dropped")
        assert dropped >= 3  # at least the scripted drops
        assert result.report.messages + dropped == total
