"""Pipeline-level wiring of the prefetch/long-poll knobs."""

import pytest

from repro.core import (
    EdgeToCloudPipeline,
    PipelineConfig,
    make_block_producer,
    passthrough_processor,
)
from repro.util.validation import ValidationError


def _run(running_pilots, **cfg_kw):
    edge, cloud = running_pilots
    pipeline = EdgeToCloudPipeline(
        pilot_edge=edge,
        pilot_cloud_processing=cloud,
        produce_function_handler=make_block_producer(points=20, features=4, clusters=3),
        process_cloud_function_handler=passthrough_processor,
        config=PipelineConfig(
            num_devices=2, messages_per_device=12, max_duration=60.0, **cfg_kw
        ),
    )
    return pipeline, pipeline.run()


class TestPrefetchPipeline:
    def test_run_with_prefetch_enabled_completes(self, running_pilots):
        pipeline, result = _run(
            running_pilots, fetch_prefetch_batches=2, fetch_max_wait_ms=50.0
        )
        assert result.completed
        assert result.report.messages == 24
        counters = pipeline.collector.counters()
        assert counters.get("prefetch_hits", 0) == 24
        assert "fetches_in_flight" in counters

    def test_prefetch_off_has_no_prefetch_counters(self, running_pilots):
        pipeline, result = _run(running_pilots)
        assert result.completed
        assert "prefetch_hits" not in pipeline.collector.counters()

    def test_config_validates_knobs(self):
        with pytest.raises(ValidationError):
            PipelineConfig(fetch_min_bytes=0)
        with pytest.raises(ValidationError):
            PipelineConfig(fetch_prefetch_batches=-1)
        with pytest.raises(ValidationError):
            PipelineConfig(fetch_max_buffer_bytes=0)
