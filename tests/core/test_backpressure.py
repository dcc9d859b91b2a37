"""Tests for producer backpressure."""

import time

import pytest

from repro.core import (
    EdgeToCloudPipeline,
    PipelineConfig,
    make_block_producer,
    passthrough_processor,
)


def slow_processor(context=None, data=None):
    time.sleep(0.02)
    return passthrough_processor(context, data)


class TestBackpressure:
    def test_bounded_inflight(self, running_pilots):
        edge, cloud = running_pilots
        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=make_block_producer(points=20, features=4, clusters=2),
            process_cloud_function_handler=slow_processor,
            config=PipelineConfig(
                num_devices=1,
                messages_per_device=20,
                max_inflight=3,
                max_duration=60.0,
            ),
        )
        handle = pipeline.run(wait=False)
        # Sample the in-flight level while the run progresses.
        max_seen = 0
        while not handle.done:
            inflight = pipeline.produced_count - pipeline.processed_count
            max_seen = max(max_seen, inflight)
            time.sleep(0.002)
        result = handle.join()
        assert result.completed
        # Bounded by max_inflight exactly: a batch is sized from the
        # window's free room, and counted produced only once it is sent.
        assert max_seen <= 3
        assert pipeline.collector.counter("backpressure_waits") > 0

    def test_unbounded_by_default(self, running_pilots):
        edge, cloud = running_pilots
        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=make_block_producer(points=20, features=4, clusters=2),
            process_cloud_function_handler=slow_processor,
            config=PipelineConfig(num_devices=1, messages_per_device=10, max_duration=60.0),
        )
        result = pipeline.run()
        assert result.completed
        assert pipeline.collector.counter("backpressure_waits") == 0

    def test_invalid_config(self):
        from repro.util.validation import ValidationError

        with pytest.raises(ValidationError):
            PipelineConfig(max_inflight=-1)
