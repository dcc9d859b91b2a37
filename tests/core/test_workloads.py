"""Tests for the prebuilt FaaS workload functions."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    FunctionContext,
    make_block_producer,
    make_compression_edge_processor,
    make_model_processor,
    passthrough_processor,
)
from repro.ml import StreamingKMeans


class TestBlockProducer:
    def test_produces_blocks(self):
        produce = make_block_producer(points=50, features=8, clusters=5)
        block = produce({})
        assert block.shape == (50, 8)

    def test_devices_get_independent_streams(self):
        produce = make_block_producer(points=30, features=4, clusters=3)
        ctx_a = FunctionContext.build("r", device_id="device-a")
        ctx_b = FunctionContext.build("r", device_id="device-b")
        assert not np.array_equal(produce(ctx_a), produce(ctx_b))

    def test_device_stream_is_stateful(self):
        produce = make_block_producer(points=30, features=4, clusters=3)
        ctx = FunctionContext.build("r", device_id="d0")
        assert not np.array_equal(produce(ctx), produce(ctx))

    def test_none_context_defaults(self):
        produce = make_block_producer(points=10, features=2, clusters=2)
        assert produce(None).shape == (10, 2)

    def test_first_block_same_in_every_interpreter(self):
        # The device seed must not depend on str hashing, which differs
        # per interpreter unless PYTHONHASHSEED is pinned.
        script = (
            "from repro.core import FunctionContext, make_block_producer;"
            "import sys;"
            "ctx = FunctionContext.build('r', device_id='device-7');"
            "sys.stdout.buffer.write("
            "make_block_producer(points=20, features=4, clusters=3)(ctx).tobytes())"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        blocks = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": src},
                capture_output=True,
                check=True,
                timeout=60,
            ).stdout
            for hashseed in ("1", "2")
        ]
        assert len(blocks[0]) == 20 * 4 * 8
        assert blocks[0] == blocks[1]


class TestPassthroughProcessor:
    def test_returns_summary(self, small_block):
        out = passthrough_processor({}, small_block)
        assert out["points"] == 100
        assert out["features"] == 8
        assert "mean_norm" in out


class TestModelProcessor:
    def test_scores_after_first_block(self, small_block):
        process = make_model_processor(StreamingKMeans)
        first = process({}, small_block)
        assert first["outliers"] == 0  # unfitted on first block: no scores
        second = process({}, small_block)
        assert second["model"] == "StreamingKMeans"
        assert second["max_score"] > 0

    def test_model_state_persists_in_closure(self, small_block):
        process = make_model_processor(StreamingKMeans)
        process({}, small_block)
        process({}, small_block)
        # Two processors are independent.
        other = make_model_processor(StreamingKMeans)
        out = other({}, small_block)
        assert out["outliers"] == 0  # fresh model, first block again

    def test_a_threshold_of_zero_is_a_threshold(self):
        # Identical points sit on their centre: every score, and so the
        # fitted threshold, is exactly 0.0 — which is not "no threshold".
        same = np.ones((100, 4))
        moved = same.copy()
        moved[:7] += 5.0
        process = make_model_processor(lambda: StreamingKMeans(n_clusters=3))
        process({}, same)
        out = process({}, moved)
        assert out["outliers"] == 7

    def test_weights_shared_via_parameter_service(self, small_block, param_server):
        from repro.params import ParameterClient

        client = ParameterClient(param_server)
        process = make_model_processor(StreamingKMeans, share_key="model/kmeans")
        ctx = FunctionContext.build("r", params=client)
        process(ctx, small_block)
        entry = param_server.get("model/kmeans")
        assert "cluster_centers" in entry.value

    def test_no_sharing_without_key(self, small_block, param_server):
        from repro.params import ParameterClient

        client = ParameterClient(param_server)
        process = make_model_processor(StreamingKMeans)
        process(FunctionContext.build("r", params=client), small_block)
        assert param_server.keys() == []


class TestCompressionProcessor:
    def test_reduces_rows_by_factor(self, small_block):
        compress = make_compression_edge_processor(factor=4)
        out = compress({}, small_block)
        assert out.shape == (25, 8)

    def test_mean_pooling_values(self):
        compress = make_compression_edge_processor(factor=2)
        block = np.array([[0.0], [2.0], [4.0], [6.0]])
        np.testing.assert_array_equal(compress({}, block), [[1.0], [5.0]])

    def test_compression_ratio_attribute(self):
        compress = make_compression_edge_processor(factor=5)
        assert compress.compression_ratio == pytest.approx(0.2)

    def test_small_blocks_pass_through(self):
        compress = make_compression_edge_processor(factor=10)
        block = np.ones((3, 2))
        out = compress({}, block)
        assert out.shape[0] >= 1

    def test_invalid_factor(self):
        from repro.util.validation import ValidationError

        with pytest.raises(ValidationError):
            make_compression_edge_processor(factor=0)
