"""Tests for the function context and pipeline config."""

import pytest

from repro.core import FunctionContext, PipelineConfig
from repro.params import ParameterClient, ParameterServer
from repro.util.validation import ValidationError


class TestFunctionContext:
    def test_behaves_like_dict(self):
        ctx = FunctionContext.build("run-1", user_context={"threshold": 0.5})
        assert ctx["threshold"] == 0.5
        assert isinstance(ctx, dict)

    def test_typed_accessors(self):
        ctx = FunctionContext.build("run-1", site="lrz", device_id="d0", partition=2)
        assert ctx.run_id == "run-1"
        assert ctx.site == "lrz"
        assert ctx.device_id == "d0"
        assert ctx.partition == 2

    def test_params_accessor(self):
        server = ParameterServer()
        client = ParameterClient(server)
        ctx = FunctionContext.build("run-1", params=client)
        assert ctx.params is client

    def test_params_absent(self):
        assert FunctionContext.build("run-1").params is None

    def test_for_device_copies(self):
        base = FunctionContext.build("run-1", user_context={"a": 1})
        dev = base.for_device("d3", 3, "edge")
        assert dev.device_id == "d3"
        assert dev.partition == 3
        assert dev["a"] == 1
        assert base.device_id == ""  # original untouched

    def test_user_items_excludes_framework_keys(self):
        ctx = FunctionContext.build("run-1", user_context={"a": 1, "b": 2})
        assert ctx.user_items() == {"a": 1, "b": 2}


class TestPipelineConfig:
    def test_defaults_match_paper(self):
        cfg = PipelineConfig()
        assert cfg.messages_per_device == 512  # "We send 512 messages per run"
        assert cfg.num_devices == 1             # one partition per edge device

    def test_total_messages(self):
        cfg = PipelineConfig(num_devices=4, messages_per_device=128)
        assert cfg.total_messages == 512

    def test_consumers_default_to_partitions(self):
        # "we keep the ratio of partitions constant between Kafka and Dask"
        cfg = PipelineConfig(num_devices=4)
        assert cfg.effective_consumers == 4

    def test_explicit_consumers(self):
        cfg = PipelineConfig(num_devices=4, num_consumers=2)
        assert cfg.effective_consumers == 2

    def test_invalid_values(self):
        with pytest.raises(ValidationError):
            PipelineConfig(num_devices=0)
        with pytest.raises(ValidationError):
            PipelineConfig(messages_per_device=0)
        with pytest.raises(ValidationError):
            PipelineConfig(topic="")
        with pytest.raises(ValidationError):
            PipelineConfig(max_duration=0)

    def test_frozen(self):
        cfg = PipelineConfig()
        with pytest.raises(AttributeError):
            cfg.num_devices = 5
