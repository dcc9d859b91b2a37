"""Edge-case behaviour of the pipeline."""

import time

import numpy as np

from repro.broker import Broker, Producer
from repro.core import (
    EdgeToCloudPipeline,
    FunctionContext,
    PipelineConfig,
    make_block_producer,
    passthrough_processor,
)
from repro.core import pipeline as pipeline_module
from repro.data import encode_block
from repro.data.serde import SerdeError
from repro.monitoring import events


def build(running_pilots, produce=None, process=None, **cfg):
    edge, cloud = running_pilots
    defaults = dict(num_devices=1, messages_per_device=6, max_duration=30.0)
    defaults.update(cfg)
    return EdgeToCloudPipeline(
        pilot_edge=edge,
        pilot_cloud_processing=cloud,
        produce_function_handler=produce
        or make_block_producer(points=20, features=4, clusters=2),
        process_cloud_function_handler=process or passthrough_processor,
        config=PipelineConfig(**defaults),
    )


class TestProducerBehaviour:
    def test_producer_returning_none_stops_device_early(self, running_pilots):
        state = {"count": 0}

        def finite_producer(context):
            state["count"] += 1
            if state["count"] > 3:
                return None  # sensor went quiet
            return np.ones((5, 2))

        pipeline = build(
            running_pilots, produce=finite_producer, messages_per_device=100,
            max_duration=5.0,
        )
        started = time.monotonic()
        result = pipeline.run()
        elapsed = time.monotonic() - started
        # The run cannot complete (fewer messages than expected) but must
        # terminate with the 3 real messages processed — as soon as the
        # producer has returned, not at the deadline.
        assert result.report.messages == 3
        assert not result.completed
        assert elapsed < 1.0

    def test_producer_exception_recorded(self, running_pilots):
        def exploding_producer(context):
            raise RuntimeError("sensor failure")

        pipeline = build(
            running_pilots, produce=exploding_producer, max_duration=3.0
        )
        started = time.monotonic()
        result = pipeline.run()
        elapsed = time.monotonic() - started
        assert not result.completed
        assert any("producer" in e for e in result.errors)
        assert elapsed < 1.0

    def test_static_policies_never_probe(self, running_pilots):
        # With the default (static) placement, the producer is called
        # exactly once per message — no hidden probe call.
        state = {"calls": 0}

        def counting_producer(context):
            state["calls"] += 1
            return np.ones((5, 2))

        pipeline = build(running_pilots, produce=counting_producer, messages_per_device=4)
        result = pipeline.run()
        assert result.completed
        assert state["calls"] == 4

    def test_cost_policy_probe_failure_tolerated(self, running_pilots):
        # Cost-based placement probes the producer once; a cold-start
        # failure in the probe must not break pipeline startup.
        from repro.core import CostBasedPlacement
        from repro.netem import LAN, ContinuumTopology

        topo = ContinuumTopology(time_scale=0.0)
        topo.add_site("edge-site", tier="edge")
        topo.add_site("cloud-site", tier="cloud")
        topo.connect("edge-site", "cloud-site", LAN)
        state = {"calls": 0}

        def moody_producer(context):
            state["calls"] += 1
            if state["calls"] == 1:
                raise RuntimeError("cold start")
            return np.ones((5, 2))

        edge, cloud = running_pilots
        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=moody_producer,
            process_cloud_function_handler=passthrough_processor,
            config=PipelineConfig(num_devices=1, messages_per_device=4, max_duration=30.0),
            placement=CostBasedPlacement(),
            topology=topo,
        )
        result = pipeline.run()
        assert result.completed


class TestConsumerRatios:
    def test_more_consumers_than_partitions(self, running_pilots):
        # Extra consumers idle (no partition assigned) but must not hang
        # the run or steal messages.
        pipeline = build(
            running_pilots, num_devices=1, num_consumers=3, messages_per_device=6
        )
        result = pipeline.run()
        assert result.completed
        assert result.report.messages == 6

    def test_single_consumer_many_partitions(self, running_pilots):
        pipeline = build(
            running_pilots, num_devices=2, num_consumers=1, messages_per_device=5
        )
        result = pipeline.run()
        assert result.completed
        assert result.report.messages == 10
        assert set(pipeline.collector.columns()["partition"].tolist()) == {0, 1}


class TestDuplicateDelivery:
    def test_duplicate_is_counted_once(self, running_pilots):
        pipeline = build(running_pilots, num_devices=2, messages_per_device=8)
        config = pipeline.config
        # Pre-inject a record that collides with the first real message of
        # device 0: at-least-once delivery hands the consumer the same
        # message id twice.
        pipeline.broker.create_topic(
            config.topic, num_partitions=config.num_devices, exist_ok=True
        )
        Producer(pipeline.broker).send(
            config.topic,
            encode_block(np.zeros((5, 8))),
            partition=0,
            headers={"message_id": f"{pipeline.run_id}/d0/m0", "device": "device-0"},
        )
        result = pipeline.run()
        assert result.completed
        # 16 distinct ids -> 16 results; the 17th record is the duplicate.
        assert len(result.results) == 16
        assert pipeline.collector.counters()["duplicate_deliveries"] == 1


class TestPoisonedMessages:
    def test_a_poisoned_message_costs_one_message(self, running_pilots):
        counts: dict = {}

        def produce_seq(context):
            # Block values carry the per-device sequence number.
            device = context.get(FunctionContext.DEVICE_ID)
            counts[device] = counts.get(device, -1) + 1
            return np.full((6, 4), float(counts[device]))

        def poison(context=None, data=None):
            if data[0, 0] == 2.0:
                raise RuntimeError("poisoned block")
            return {"first": float(data[0, 0])}

        pipeline = build(
            running_pilots,
            produce=produce_seq,
            process=poison,
            num_devices=2,
            messages_per_device=8,
        )
        result = pipeline.run()
        # One poisoned message per device; the consumer keeps consuming.
        assert not result.completed  # errors were recorded
        assert pipeline.collector.counters()["processing_errors"] == 2
        assert len(result.errors) == 2
        assert all("poisoned block" in err for err in result.errors)
        assert len(result.results) == 14
        assert 2.0 not in {r["first"] for r in result.results}


    def test_an_undecodable_record_costs_one_message(self, running_pilots):
        class CorruptingBroker(Broker):
            """Flips the last payload byte of message m3 on its way in."""

            def append_many(self, topic, partition, values, *args, headers=None, **kwargs):
                values = [
                    value[:-1] + bytes([value[-1] ^ 0xFF])
                    if meta["message_id"].endswith("/m3")
                    else value
                    for value, meta in zip(values, headers)
                ]
                return super().append_many(
                    topic, partition, values, *args, headers=headers, **kwargs
                )

        edge, cloud = running_pilots
        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=make_block_producer(points=20, features=4, clusters=2),
            process_cloud_function_handler=passthrough_processor,
            config=PipelineConfig(num_devices=1, messages_per_device=10, max_duration=5.0),
            broker=CorruptingBroker(),
        )
        result = pipeline.run()
        # The CRC check fails for m3 alone; the consumer goes on.
        assert pipeline.processed_count == 10
        assert pipeline.collector.counters()["processing_errors"] == 1
        assert len(result.errors) == 1
        assert SerdeError.__name__ in result.errors[0]
        assert len(result.results) == 9


class TestResultBuffer:
    def test_keep_results_bounds_memory(self, running_pilots, monkeypatch):
        monkeypatch.setattr(pipeline_module, "_KEEP_RESULTS", 4)
        pipeline = build(running_pilots, messages_per_device=12)
        result = pipeline.run()
        assert result.completed
        assert len(result.results) == 4  # only the last 4 retained

    def test_custom_topic_name(self, running_pilots):
        pipeline = build(running_pilots, topic="my-sensors")
        result = pipeline.run()
        assert result.completed
        assert "my-sensors" in result.broker_stats["topics"]


class TestBoundedUnderFailure:
    def test_a_function_that_always_raises_keeps_the_run_bounded(
        self, running_pilots, monkeypatch
    ):
        # The ring is set small, but above the kept errors, so the one
        # rare event of the run must outlive the error flood.
        monkeypatch.setattr(events, "MAX_EVENTS", pipeline_module._KEEP_ERRORS + 28)
        messages = 2 * events.MAX_EVENTS

        def always_raises(context=None, data=None):
            raise RuntimeError("model crashed")

        pipeline = build(running_pilots, num_devices=2, messages_per_device=messages // 2)
        pipeline.replace_cloud_function(always_raises)
        result = pipeline.run()

        assert pipeline.processed_count == messages
        assert len(result.errors) <= pipeline_module._KEEP_ERRORS
        assert result.errors_left_out == messages - len(result.errors)
        assert not result.completed
        journal = pipeline.events.events()
        assert [e.type for e in journal[:1]] == ["function_replaced"]
        assert sum(e.type == "processing_error" for e in journal) == len(result.errors)


class TestRunIdPropagation:
    def test_message_ids_carry_run_id(self, running_pilots):
        pipeline = build(running_pilots)
        pipeline.run()
        for message_id in pipeline.collector.columns()["message_id"]:
            assert message_id.startswith(pipeline.run_id)

    def test_explicit_run_id(self, running_pilots):
        edge, cloud = running_pilots
        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=make_block_producer(points=10, features=2, clusters=2),
            process_cloud_function_handler=passthrough_processor,
            config=PipelineConfig(num_devices=1, messages_per_device=2),
            run_id="run-custom-001",
        )
        result = pipeline.run()
        assert result.run_id == "run-custom-001"
