"""Tests for the EdgeToCloudPipeline (live execution)."""

import time

import numpy as np
import pytest

from repro.core import (
    EdgeCentricPlacement,
    EdgeToCloudPipeline,
    HybridPlacement,
    PipelineConfig,
    make_block_producer,
    make_compression_edge_processor,
    make_model_processor,
    passthrough_processor,
)
from repro.ml import StreamingKMeans
from repro.util.validation import ValidationError


def small_config(**kw):
    defaults = dict(num_devices=2, messages_per_device=8, max_duration=60.0)
    defaults.update(kw)
    return PipelineConfig(**defaults)


def make_pipeline(running_pilots, **kw):
    edge, cloud = running_pilots
    defaults = dict(
        pilot_edge=edge,
        pilot_cloud_processing=cloud,
        produce_function_handler=make_block_producer(points=50, features=8, clusters=5),
        process_cloud_function_handler=passthrough_processor,
        config=small_config(),
    )
    defaults.update(kw)
    return EdgeToCloudPipeline(**defaults)


class TestValidation:
    def test_requires_pilot_types(self, running_pilots):
        edge, cloud = running_pilots
        with pytest.raises(ValidationError):
            EdgeToCloudPipeline(
                pilot_edge="not-a-pilot",
                pilot_cloud_processing=cloud,
                produce_function_handler=lambda c: None,
                process_cloud_function_handler=lambda c, d: None,
            )

    def test_requires_callables(self, running_pilots):
        edge, cloud = running_pilots
        with pytest.raises(ValidationError):
            EdgeToCloudPipeline(
                pilot_edge=edge,
                pilot_cloud_processing=cloud,
                produce_function_handler=None,
                process_cloud_function_handler=lambda c, d: None,
            )

    def test_requires_running_pilots(self, pilot_service, running_pilots):
        from repro.pilot import PilotDescription

        edge, cloud = running_pilots
        stale = pilot_service.submit_pilot(PilotDescription())
        stale.wait(timeout=5)
        stale.cancel()
        pipeline = make_pipeline((stale, cloud))
        with pytest.raises(ValidationError, match="RUNNING"):
            pipeline.run()

    def test_double_run_rejected(self, running_pilots):
        pipeline = make_pipeline(running_pilots)
        pipeline.run()
        with pytest.raises(ValidationError):
            pipeline.run()


class TestBaselineRun:
    def test_processes_all_messages(self, running_pilots):
        pipeline = make_pipeline(running_pilots)
        result = pipeline.run()
        assert result.completed
        assert result.report.messages == 16
        assert result.errors == []

    def test_results_collected(self, running_pilots):
        pipeline = make_pipeline(running_pilots)
        result = pipeline.run()
        assert len(result.results) == 16
        assert all(r["points"] == 50 for r in result.results)

    def test_traces_have_all_stages(self, running_pilots):
        pipeline = make_pipeline(running_pilots)
        pipeline.run()
        rows = pipeline.collector.columns()
        assert len(rows["message_id"]) == 16
        for stage in ("produce", "broker_in", "consume", "process_start", "process_end"):
            assert not np.isnan(rows[stage]).any(), stage

    def test_one_partition_per_device(self, running_pilots):
        pipeline = make_pipeline(running_pilots)
        pipeline.run()
        topic = pipeline.broker.topic(pipeline.config.topic)
        assert topic.num_partitions == 2
        for p in range(2):
            assert topic.partition(p).total_appended == 8

    def test_broker_stats_in_result(self, running_pilots):
        result = make_pipeline(running_pilots).run()
        stats = result.broker_stats["topics"]["pilot-edge-data"]
        assert stats["records_in"] == 16

    def test_a_failing_final_commit_is_counted(self, running_pilots, monkeypatch):
        from repro.broker import Consumer

        def refuse(self):
            raise RuntimeError("coordinator gone")

        # 8 messages per partition stay under the periodic-commit
        # interval, so the only commit is the one in the teardown.
        monkeypatch.setattr(Consumer, "commit", refuse)
        pipeline = make_pipeline(running_pilots)
        result = pipeline.run()
        assert result.completed  # teardown went on; redelivery covers the tail
        counters = pipeline.collector.counters()
        assert counters["final_commit_errors.RuntimeError"] >= 1

    def test_model_processing(self, running_pilots):
        pipeline = make_pipeline(
            running_pilots,
            process_cloud_function_handler=make_model_processor(StreamingKMeans),
        )
        result = pipeline.run()
        assert result.completed
        assert any(r["max_score"] > 0 for r in result.results)


class TestNetworkEmulation:
    def test_links_charged(self, running_pilots):
        from repro.netem import LAN, ContinuumTopology

        topo = ContinuumTopology(time_scale=0.0)
        topo.add_site("edge-site", tier="edge")
        topo.add_site("cloud-site", tier="cloud")
        topo.connect("edge-site", "cloud-site", LAN)
        pipeline = make_pipeline(running_pilots, topology=topo)
        result = pipeline.run()
        assert result.completed
        link = topo.direct_link("edge-site", "cloud-site")
        assert link.transfers >= 16

    def test_lossy_link_drops_counted(self, running_pilots):
        from repro.netem import ContinuumTopology, LinkProfile

        lossy = LinkProfile("lossy", 0.0, 0.0, 10_000.0, 10_000.0, loss_probability=1.0)
        topo = ContinuumTopology(time_scale=0.0)
        topo.add_site("edge-site", tier="edge")
        topo.add_site("cloud-site", tier="cloud")
        topo.connect("edge-site", "cloud-site", lossy)
        pipeline = make_pipeline(
            running_pilots,
            topology=topo,
            config=small_config(messages_per_device=4, max_duration=5.0),
        )
        result = pipeline.run()
        # Every uplink transfer drops: nothing reaches the broker.
        assert pipeline.collector.counter("messages_dropped") == 8
        assert result.report.messages == 0


class TestPlacements:
    def test_hybrid_compresses_before_transfer(self, running_pilots):
        pipeline = make_pipeline(
            running_pilots,
            process_edge_function_handler=make_compression_edge_processor(factor=5),
            placement=HybridPlacement(),
        )
        result = pipeline.run()
        assert result.completed
        # Compressed blocks: 10 rows instead of 50.
        assert all(r["points"] == 10 for r in result.results)

    def test_edge_centric_processes_on_device(self, running_pilots):
        pipeline = make_pipeline(running_pilots, placement=EdgeCentricPlacement())
        result = pipeline.run()
        assert result.completed
        assert result.placement.processing_tier == "edge"
        # Processing happened on the device: before the append, each
        # message then reaching a consumer as a sink.
        rows = pipeline.collector.columns()
        assert len(rows["message_id"]) == 16
        assert (rows["process_end"] <= rows["broker_in"]).all()
        assert not np.isnan(rows["consume_sink"]).any()


class TestRuntimeDynamism:
    def test_replace_cloud_function_mid_run(self, running_pilots):
        pipeline = make_pipeline(
            running_pilots,
            config=small_config(messages_per_device=40, produce_interval=0.005),
        )
        handle = pipeline.run(wait=False)
        assert handle.wait_for_processed(5, timeout=30)

        def tagged(context=None, data=None):
            out = passthrough_processor(context, data)
            out["tagged"] = True
            return out

        pipeline.replace_cloud_function(tagged)
        result = handle.join()
        assert result.completed
        tagged_count = sum(1 for r in result.results if r.get("tagged"))
        assert 0 < tagged_count < 80

    def test_replace_publishes_event(self, running_pilots):
        pipeline = make_pipeline(running_pilots)
        pipeline.run()
        pipeline.replace_cloud_function(passthrough_processor)
        replaced = [e for e in pipeline.events.events() if e.type == "function_replaced"]
        assert len(replaced) == 1
        assert replaced[0].origin == pipeline.run_id
        assert replaced[0].fields["new"] == "passthrough_processor"

    def test_scale_consumers_mid_run(self, running_pilots):
        pipeline = make_pipeline(
            running_pilots,
            config=small_config(messages_per_device=40, num_consumers=1,
                                produce_interval=0.002),
        )
        handle = pipeline.run(wait=False)
        assert handle.wait_for_processed(3, timeout=30)
        pipeline.scale_consumers(2)
        result = handle.join()
        assert result.completed
        assert result.report.messages == 80

    def test_scale_before_run_rejected(self, running_pilots):
        pipeline = make_pipeline(running_pilots)
        with pytest.raises(ValidationError):
            pipeline.scale_consumers(1)

    def test_abort_stops_early(self, running_pilots):
        pipeline = make_pipeline(
            running_pilots,
            config=small_config(messages_per_device=500, produce_interval=0.01),
        )
        handle = pipeline.run(wait=False)
        handle.wait_for_processed(2, timeout=30)
        handle.abort()
        result = handle.join()
        assert result.report.messages < 1000

    def test_abort_wakes_a_paced_device(self, running_pilots):
        pipeline = make_pipeline(
            running_pilots,
            config=small_config(num_devices=1, messages_per_device=5, produce_interval=5.0),
        )
        handle = pipeline.run(wait=False)
        assert handle.wait_for_processed(1, timeout=30)
        handle.abort()
        started = time.monotonic()
        handle.join()
        # The device waits out its pacing on the abort, not in a sleep:
        # well under the 5 s a sleeping device would take.
        assert time.monotonic() - started < 2.5


class TestParameterSharing:
    def test_weights_published_during_run(self, running_pilots):
        pipeline = make_pipeline(
            running_pilots,
            process_cloud_function_handler=make_model_processor(
                StreamingKMeans, share_key="model"
            ),
        )
        result = pipeline.run()
        assert result.completed
        keys = pipeline.parameter_server.keys()
        assert any(k.endswith("/model") for k in keys)


class TestInjectedBroker:
    def test_pilot_managed_broker_used(self, running_pilots, pilot_service):
        from repro.pilot import PilotDescription
        from repro.pilot.frameworks import ManagedBroker

        edge, cloud = running_pilots
        broker_pilot = pilot_service.submit_pilot(
            PilotDescription(resource="cloud", site="cloud-site",
                             instance_type="lrz.medium")
        )
        assert broker_pilot.wait(timeout=10)
        managed = ManagedBroker(broker_pilot)
        pipeline = make_pipeline(
            running_pilots,
            pilot_cloud_broker=broker_pilot,
            broker=managed.service,
        )
        result = pipeline.run()
        assert result.completed
        assert pipeline.broker is managed._broker
        # The managed broker carries the run's topic and data.
        assert managed.service.topic("pilot-edge-data").total_appended == 16
