"""Integration: geographic distribution and failure injection."""

import time

import pytest

from repro import (
    ContinuumTopology,
    EdgeToCloudPipeline,
    PilotComputeService,
    PilotDescription,
    PipelineConfig,
    ResourceSpec,
    TRANSATLANTIC,
    LAN,
    make_block_producer,
    passthrough_processor,
)
from repro.netem import LinkProfile


@pytest.fixture
def service():
    s = PilotComputeService(time_scale=0.0)
    yield s
    s.close()


def build_geo_topology(time_scale=0.001):
    """Paper's geo experiment: source at Jetstream (US), processing at LRZ."""
    topo = ContinuumTopology(time_scale=time_scale, seed=0)
    topo.add_site("jetstream", tier="cloud", region="us")
    topo.add_site("lrz", tier="cloud", region="eu")
    topo.connect("jetstream", "lrz", TRANSATLANTIC)
    return topo


def acquire_geo(service):
    source = service.submit_pilot(
        PilotDescription(resource="cloud", site="jetstream", instance_type="jetstream.medium")
    )
    processing = service.submit_pilot(
        PilotDescription(resource="cloud", site="lrz", instance_type="lrz.large")
    )
    assert service.wait_all(timeout=15)
    return source, processing


class TestGeographicDistribution:
    def test_transatlantic_latency_visible_in_traces(self, service):
        source, processing = acquire_geo(service)
        topo = build_geo_topology(time_scale=0.001)
        pipeline = EdgeToCloudPipeline(
            pilot_edge=source,
            pilot_cloud_processing=processing,
            produce_function_handler=make_block_producer(points=100, features=16, clusters=4),
            process_cloud_function_handler=passthrough_processor,
            config=PipelineConfig(num_devices=1, messages_per_device=6),
            topology=topo,
        )
        result = pipeline.run()
        assert result.completed
        # The transatlantic link carried every message (uplink) once.
        link = topo.direct_link("jetstream", "lrz")
        assert link.transfers >= 6
        assert link.bytes_moved >= 6 * 100 * 16 * 8

    def test_colocated_faster_than_transatlantic(self, service):
        """The paper's headline geo effect, in real (scaled) time.

        At a quarter of real time the transatlantic hop adds ~20 ms to each
        message, well above the few milliseconds a consumer's wake-up can
        add to the local run on a loaded machine (at 0.01 the hop added
        ~1 ms and such jitter could reverse the order).
        """
        results = {}
        for name, profile in (("local", LAN), ("geo", TRANSATLANTIC)):
            topo = ContinuumTopology(time_scale=0.25, seed=0)
            topo.add_site("jetstream", tier="cloud")
            topo.add_site("lrz", tier="cloud")
            topo.connect("jetstream", "lrz", profile)
            source, processing = acquire_geo(PilotComputeService(time_scale=0.0))
            pipeline = EdgeToCloudPipeline(
                pilot_edge=source,
                pilot_cloud_processing=processing,
                produce_function_handler=make_block_producer(points=500, features=32, clusters=4),
                process_cloud_function_handler=passthrough_processor,
                config=PipelineConfig(num_devices=1, messages_per_device=8),
                topology=topo,
            )
            results[name] = pipeline.run()
        assert results["local"].completed and results["geo"].completed
        assert (
            results["geo"].report.latency_mean_s
            > results["local"].report.latency_mean_s
        )


class TestFailureInjection:
    def test_worker_failure_mid_run_recovers(self, service):
        """Kill a processing worker mid-run; retries keep the run alive."""
        edge = service.submit_pilot(
            PilotDescription(resource="ssh", site="edge", nodes=1,
                             node_spec=ResourceSpec(cores=1, memory_gb=4))
        )
        cloud = service.submit_pilot(
            PilotDescription(resource="cloud", site="lrz", instance_type="lrz.large")
        )
        assert service.wait_all(timeout=15)
        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=make_block_producer(points=30, features=4, clusters=2),
            process_cloud_function_handler=passthrough_processor,
            config=PipelineConfig(
                num_devices=1, messages_per_device=60, num_consumers=2,
                produce_interval=0.002, max_duration=60.0,
            ),
        )
        handle = pipeline.run(wait=False)
        assert handle.wait_for_processed(5, timeout=30)
        # Add a replacement worker, then kill one original worker: the
        # consumer task on it is lost, but the other consumer's group
        # rebalance (on its next poll) takes over the partition.
        cloud.cluster.scale(2)
        victims = [w.worker_id for w in cloud.cluster.scheduler.workers[:1]]
        cloud.cluster.kill_worker(victims[0])
        result = handle.join()
        # All distinct messages still processed exactly once.
        assert pipeline.processed_count == 60

    def test_flaky_processing_function_retries(self, service):
        edge = service.submit_pilot(
            PilotDescription(resource="ssh", site="edge", nodes=1,
                             node_spec=ResourceSpec(cores=1, memory_gb=4))
        )
        cloud = service.submit_pilot(
            PilotDescription(resource="cloud", site="lrz", instance_type="lrz.medium")
        )
        assert service.wait_all(timeout=15)

        failures = {"remaining": 2}

        def flaky_processor(context=None, data=None):
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise RuntimeError("transient model failure")
            return passthrough_processor(context, data)

        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=make_block_producer(points=20, features=4, clusters=2),
            process_cloud_function_handler=flaky_processor,
            config=PipelineConfig(num_devices=1, messages_per_device=8, max_duration=30.0),
        )
        result = pipeline.run()
        # The two failing messages abort their consumer-loop iteration;
        # errors are surfaced, not swallowed.
        assert len(result.errors) <= 2
        assert failures["remaining"] == 0


class TestLossyEnvironment:
    def test_cellular_edge_loses_some_messages_but_completes(self, service):
        edge = service.submit_pilot(
            PilotDescription(resource="ssh", site="edge", nodes=2,
                             node_spec=ResourceSpec(cores=1, memory_gb=4))
        )
        cloud = service.submit_pilot(
            PilotDescription(resource="cloud", site="lrz", instance_type="lrz.medium")
        )
        assert service.wait_all(timeout=15)
        lossy = LinkProfile("flaky-uplink", 1.0, 2.0, 1000.0, 2000.0, loss_probability=0.3)
        topo = ContinuumTopology(time_scale=0.0, seed=42)
        topo.add_site("edge", tier="edge")
        topo.add_site("lrz", tier="cloud")
        topo.connect("edge", "lrz", lossy)
        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=make_block_producer(points=20, features=4, clusters=2),
            process_cloud_function_handler=passthrough_processor,
            config=PipelineConfig(num_devices=2, messages_per_device=20, max_duration=30.0),
            topology=topo,
        )
        result = pipeline.run()
        dropped = pipeline.collector.counter("messages_dropped")
        assert dropped > 0
        assert result.report.messages + dropped == 40
