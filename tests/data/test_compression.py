"""Tests for lossless wire compression."""

import numpy as np
import pytest

from repro.data import decode_block, encode_block
from repro.data.serde import MAGIC, MAGIC_COMPRESSED, SerdeError


class TestCompressedFrames:
    def test_roundtrip_exact(self, small_block):
        frame = encode_block(small_block, compress=True)
        np.testing.assert_array_equal(decode_block(frame), small_block)

    def test_magic_differs(self, small_block):
        assert encode_block(small_block)[:4] == MAGIC
        assert encode_block(small_block, compress=True)[:4] == MAGIC_COMPRESSED

    def test_compressible_data_shrinks(self):
        block = np.zeros((1000, 32))
        raw = encode_block(block)
        compressed = encode_block(block, compress=True)
        assert len(compressed) < len(raw) / 10

    def test_incompressible_data_roundtrips(self, rng):
        block = rng.normal(size=(100, 16))  # random doubles barely compress
        frame = encode_block(block, compress=True)
        np.testing.assert_array_equal(decode_block(frame), block)

    def test_mixed_frames_decode_transparently(self, small_block):
        frames = [
            encode_block(small_block),
            encode_block(small_block, compress=True),
        ]
        for frame in frames:
            np.testing.assert_array_equal(decode_block(frame), small_block)

    def test_corrupt_compressed_payload(self, small_block):
        frame = bytearray(encode_block(small_block, compress=True))
        frame[-1] ^= 0xFF
        with pytest.raises(SerdeError):
            decode_block(bytes(frame))

    def test_crc_covers_uncompressed_content(self, small_block):
        # Flip a header CRC bit: decompression succeeds, CRC must fail.
        frame = bytearray(encode_block(small_block, compress=True))
        frame[12] ^= 0x01
        with pytest.raises(SerdeError, match="CRC"):
            decode_block(bytes(frame))

    def test_levels(self, small_block):
        for level in (1, 6, 9):
            frame = encode_block(small_block, compress=True, level=level)
            np.testing.assert_array_equal(decode_block(frame), small_block)


class TestBlockSerdeCompression:
    def test_serde_flag(self, small_block):
        from repro.broker import Broker, Consumer, Producer

        broker = Broker(name="compression")
        broker.create_topic("t")
        Producer(broker).send("t", encode_block(small_block, compress=True), partition=0)
        consumer = Consumer(broker)
        consumer.assign([("t", 0)])
        [record] = consumer.poll()
        assert record.value[:4] == MAGIC_COMPRESSED
        np.testing.assert_array_equal(decode_block(record.value), small_block)


class TestPipelineWireCompression:
    def test_compress_wire_reduces_link_bytes(self, running_pilots):
        from repro.core import (
            EdgeToCloudPipeline,
            PipelineConfig,
            passthrough_processor,
        )
        from repro.netem import LAN, ContinuumTopology

        def produce_compressible(context):
            # Low-entropy sensor data (quantised values) compresses well.
            rng = np.random.default_rng(0)
            return np.round(rng.normal(size=(200, 8)), 1)

        sizes = {}
        for compress in (False, True):
            topo = ContinuumTopology(time_scale=0.0)
            topo.add_site("edge-site", tier="edge")
            topo.add_site("cloud-site", tier="cloud")
            topo.connect("edge-site", "cloud-site", LAN)
            edge, cloud = running_pilots
            pipeline = EdgeToCloudPipeline(
                pilot_edge=edge,
                pilot_cloud_processing=cloud,
                produce_function_handler=produce_compressible,
                process_cloud_function_handler=passthrough_processor,
                config=PipelineConfig(
                    num_devices=1, messages_per_device=4, compress_wire=compress,
                    topic=f"wire-{compress}",
                ),
                topology=topo,
            )
            result = pipeline.run()
            assert result.completed
            sizes[compress] = topo.direct_link("edge-site", "cloud-site").bytes_moved
        assert sizes[True] < sizes[False] / 2
