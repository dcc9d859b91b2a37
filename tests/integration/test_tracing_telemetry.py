"""Integration: tracing + telemetry across a two-tier remote-broker pipeline.

The acceptance bar from the observability work: running the edge-to-cloud
pipeline over a RemoteBroker with tracing enabled must yield, for at
least 95% of delivered messages, a single trace whose spans cover the
producer site, the broker, and the consumer site — and the telemetry
sampler's consumer-lag series must return to zero by the end of the run.
"""

import json
import socket

import pytest

from repro import (
    EdgeToCloudPipeline,
    PilotComputeService,
    PilotDescription,
    PipelineConfig,
    ResourceSpec,
    make_block_producer,
    passthrough_processor,
)
from repro.broker import Broker
from repro.broker.remote import BrokerServer, RemoteBroker
from repro.broker.wire import encode_frame, recv_frame, sendall_vectored
from repro.monitoring import MetricsRegistry, TelemetrySampler, Tracer, stitch_spans


@pytest.fixture
def service():
    s = PilotComputeService(time_scale=0.0)
    yield s
    s.close()


def acquire(service, devices=2):
    edge = service.submit_pilot(
        PilotDescription(resource="ssh", site="edge", nodes=devices,
                         node_spec=ResourceSpec(cores=1, memory_gb=4))
    )
    cloud = service.submit_pilot(
        PilotDescription(resource="cloud", site="lrz", instance_type="lrz.large")
    )
    assert service.wait_all(timeout=15)
    return edge, cloud


class TestTracedRemotePipeline:
    def test_single_trace_spans_edge_broker_cloud(self, service):
        edge, cloud = acquire(service)
        tracer = Tracer("pipeline", sample_rate=1.0)
        registry = MetricsRegistry()
        sampler = TelemetrySampler(interval_s=0.05, registry=registry)
        core = Broker(name="core", tracer=tracer)
        with BrokerServer(broker=core, tracer=tracer) as server:
            with RemoteBroker(server.host, server.port, tracer=tracer) as remote:
                result = EdgeToCloudPipeline(
                    pilot_edge=edge,
                    pilot_cloud_processing=cloud,
                    produce_function_handler=make_block_producer(
                        points=30, features=4, clusters=2
                    ),
                    process_cloud_function_handler=passthrough_processor,
                    config=PipelineConfig(num_devices=2, messages_per_device=10),
                    broker=remote,
                    registry=registry,
                    tracer=tracer,
                    sampler=sampler,
                ).run()
        assert result.completed
        delivered = result.report.messages
        assert delivered == 20

        # Reconstruct every trace rooted at a producer send and check the
        # span tree touches all three tiers of the continuum.
        full = 0
        for tree in stitch_spans(tracer.spans()).values():
            if tree["span"].name != "producer.send":
                continue  # rpc.* wire traces are accounted separately
            sites = {tree["span"].site}
            stack = list(tree["children"])
            while stack:
                node = stack.pop()
                sites.add(node["span"].site)
                stack.extend(node["children"])
            if {"edge", "core", "lrz"} <= sites:
                full += 1
        assert full >= 0.95 * delivered, f"{full}/{delivered} full traces"

        # The sampler tracked consumer lag over the wire and the curve
        # ends at zero: everything produced was consumed and committed.
        lag_series = [
            name for name in sampler.names() if name.startswith("consumer_lag.")
        ]
        assert lag_series, sampler.names()
        for name in lag_series:
            assert sampler.series(name)[-1][1] == 0.0

        # End-to-end latency flowed into the shared registry.
        assert registry.histogram("pipeline_e2e_latency_s").count == delivered

    def test_lag_sampled_when_the_run_ends_before_the_first_tick(self, service):
        """Over the wire the sampler learns a group only while it has
        members; the pipeline samples once after its consumers join, so a
        sampler that never ticks still records the group's lag."""
        edge, cloud = acquire(service)
        sampler = TelemetrySampler(interval_s=60.0)
        with BrokerServer() as server:
            with RemoteBroker(server.host, server.port) as remote:
                result = EdgeToCloudPipeline(
                    pilot_edge=edge,
                    pilot_cloud_processing=cloud,
                    produce_function_handler=make_block_producer(
                        points=20, features=4, clusters=2
                    ),
                    process_cloud_function_handler=passthrough_processor,
                    config=PipelineConfig(num_devices=2, messages_per_device=5),
                    broker=remote,
                    sampler=sampler,
                ).run()
        assert result.completed
        names = sampler.names()
        lag_series = sorted(n for n in names if n.startswith("consumer_lag."))
        assert [n.rsplit(".", 1)[1] for n in lag_series] == ["0", "1"], names
        assert [n for n in names if n.startswith("group.members.")], names
        for name in lag_series:
            assert sampler.series(name)[-1][1] == 0.0

    def test_sampled_out_traces_skip_downstream_hops(self, service):
        """sample_rate=0 means no trace headers, no spans, same delivery."""
        edge, cloud = acquire(service, devices=1)
        tracer = Tracer("pipeline", sample_rate=0.0)
        core = Broker(name="core", tracer=tracer)
        with BrokerServer(broker=core, tracer=tracer) as server:
            with RemoteBroker(server.host, server.port) as remote:
                result = EdgeToCloudPipeline(
                    pilot_edge=edge,
                    pilot_cloud_processing=cloud,
                    produce_function_handler=make_block_producer(
                        points=20, features=4, clusters=2
                    ),
                    process_cloud_function_handler=passthrough_processor,
                    config=PipelineConfig(num_devices=1, messages_per_device=5),
                    broker=remote,
                    tracer=tracer,
                ).run()
        assert result.completed
        assert result.report.messages == 5
        assert tracer.spans() == []
        assert tracer.stats()["traces_sampled_out"] >= 5


class TestOldFrameCompatibility:
    def test_frame_without_trace_field_still_dispatches(self):
        """Pre-tracing clients send frames with no "trace" key; a traced
        server must serve them unchanged (and record no server span)."""
        tracer = Tracer("server")
        core = Broker(name="core", tracer=tracer)
        with BrokerServer(broker=core, tracer=tracer) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                sendall_vectored(sock, encode_frame(
                    {"op": "create_topic", "topic": "t", "num_partitions": 1,
                     "cid": 1},
                ))
                response, blobs = recv_frame(sock)
        assert response["ok"], response
        assert response["cid"] == 1
        assert core.topic("t").num_partitions == 1
        # No frame-level context: the server must not invent a span.
        assert all(not s.name.startswith("server.") for s in tracer.spans())

    def test_traced_client_fields_ignored_by_payload_shape(self):
        """A "trace" frame field is popped before dispatch: op handlers
        never see it, so old and new clients share one wire schema."""
        tracer = Tracer("server")
        core = Broker(name="core", tracer=tracer)
        with BrokerServer(broker=core, tracer=tracer) as server:
            root = tracer.start_trace("client.op", site="edge")
            with socket.create_connection((server.host, server.port)) as sock:
                sendall_vectored(sock, encode_frame(
                    {"op": "create_topic", "topic": "t", "num_partitions": 2,
                     "cid": 7, "trace": root.context},
                ))
                response, _ = recv_frame(sock)
            root.finish()
        assert response["ok"], response
        assert core.topic("t").num_partitions == 2
        server_spans = [s for s in tracer.spans() if s.name == "server.create_topic"]
        assert len(server_spans) == 1
        assert server_spans[0].trace_id == root.trace_id
        assert server_spans[0].parent_id == root.span_id
