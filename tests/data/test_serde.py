"""Tests for the block wire format."""

import numpy as np
import pytest

from repro.data import (
    BYTES_PER_VALUE,
    HEADER_SIZE,
    decode_block,
    encode_block,
    encoded_size,
)
from repro.data.serde import MAGIC, SerdeError


class TestEncode:
    def test_roundtrip(self, small_block):
        decoded = decode_block(encode_block(small_block))
        np.testing.assert_array_equal(decoded, small_block)

    def test_encoded_size_formula(self):
        frame = encode_block(np.zeros((25, 32)))
        assert len(frame) == encoded_size(25, 32)
        assert len(frame) == HEADER_SIZE + 25 * 32 * BYTES_PER_VALUE

    def test_paper_message_sizes(self):
        # Paper: 25 points -> ~7 KB, 10,000 points -> ~2.6 MB.
        assert encoded_size(25, 32) == pytest.approx(7e3, rel=0.3)
        assert encoded_size(10_000, 32) == pytest.approx(2.6e6, rel=0.05)

    def test_magic_prefix(self):
        assert encode_block(np.zeros((1, 1)))[:4] == MAGIC

    def test_non_2d_rejected(self):
        with pytest.raises(SerdeError):
            encode_block(np.zeros(5))

    def test_accepts_int_arrays(self):
        block = np.arange(6).reshape(2, 3)
        decoded = decode_block(encode_block(block))
        np.testing.assert_array_equal(decoded, block.astype(float))


class TestDecode:
    def test_truncated_frame(self):
        with pytest.raises(SerdeError, match="too short"):
            decode_block(b"PEB1")

    def test_bad_magic(self, small_block):
        frame = bytearray(encode_block(small_block))
        frame[:4] = b"XXXX"
        with pytest.raises(SerdeError, match="bad magic"):
            decode_block(bytes(frame))

    def test_corrupt_payload_detected_by_crc(self, small_block):
        frame = bytearray(encode_block(small_block))
        frame[-1] ^= 0xFF
        with pytest.raises(SerdeError, match="CRC"):
            decode_block(bytes(frame))

    def test_length_mismatch(self, small_block):
        frame = encode_block(small_block)
        with pytest.raises(SerdeError, match="length"):
            decode_block(frame + b"extra")

    def test_decoded_is_readonly_view_by_default(self, small_block):
        decoded = decode_block(encode_block(small_block))
        with pytest.raises(ValueError):
            decoded[0, 0] = 42.0  # zero-copy views must not be writable

    def test_decoded_view_shares_frame_memory(self, small_block):
        frame = encode_block(small_block)
        decoded = decode_block(frame)
        expected = np.frombuffer(frame[16:], dtype=np.float64).reshape(decoded.shape)
        np.testing.assert_array_equal(decoded, expected)
        assert not decoded.flags.owndata  # view over the frame, not a copy

    def test_decoded_copy_is_writable(self, small_block):
        decoded = decode_block(encode_block(small_block), copy=True)
        decoded[0, 0] = 42.0  # must not raise
        assert decoded[0, 0] == 42.0

    def test_compressed_decode_honours_copy_flag(self, small_block):
        frame = encode_block(small_block, compress=True)
        view = decode_block(frame)
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
        writable = decode_block(frame, copy=True)
        writable[0, 0] = 1.0

    def test_preserves_shape(self):
        block = np.random.default_rng(0).normal(size=(7, 13))
        assert decode_block(encode_block(block)).shape == (7, 13)

    def test_preserves_exact_float_values(self):
        block = np.array([[1e-300, 1e300, -0.0, np.pi]])
        decoded = decode_block(encode_block(block))
        np.testing.assert_array_equal(decoded, block)

    def test_verify_false_skips_crc(self, small_block):
        frame = bytearray(encode_block(small_block))
        frame[-1] ^= 0xFF  # flip a payload byte; header stays intact
        frame = bytes(frame)
        with pytest.raises(SerdeError, match="CRC"):
            decode_block(frame)
        decoded = decode_block(frame, verify=False)  # trusted transport
        assert decoded.shape == small_block.shape

    def test_verify_still_checks_structure(self):
        with pytest.raises(SerdeError):
            decode_block(b"PEB1....", verify=False)
