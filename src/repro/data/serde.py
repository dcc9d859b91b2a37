"""Binary wire format for data blocks.

The paper reports message sizes assuming 8 bytes per serialized value
(float64). We frame blocks with a small fixed header carrying a magic
number, the block shape and a CRC32 of the payload so corrupt frames are
detected at the consumer rather than corrupting model state.

Layout (little-endian)::

    offset  size  field
    0       4     magic  b"PEB1" (raw) or b"PEBZ" (zlib-compressed payload)
    4       4     points (uint32)
    8       4     features (uint32)
    12      4     crc32 of the *uncompressed* payload (uint32)
    16      ...   payload: points*features float64, C order
                  (zlib stream when magic is PEBZ)

Compressed frames implement the paper's "data compression step before
the data transfer" losslessly; :func:`decode_block` dispatches on the
magic, so producers can switch compression on without touching
consumers.

Copy discipline: :func:`encode_block` writes the array straight into one
preallocated frame buffer (no ``header + payload`` concatenation copy),
and :func:`decode_block` is zero-copy by default — it returns a
read-only :func:`np.frombuffer` view over the frame's payload bytes.
Pass ``copy=True`` when the caller needs to mutate the result.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

MAGIC = b"PEB1"
MAGIC_COMPRESSED = b"PEBZ"
HEADER_SIZE = 16
BYTES_PER_VALUE = 8

_HEADER = struct.Struct("<4sIII")


class SerdeError(ValueError):
    """Raised when a frame cannot be decoded."""


def encoded_size(points: int, features: int) -> int:
    """Wire size in bytes of a ``points x features`` block."""
    return HEADER_SIZE + points * features * BYTES_PER_VALUE


def encode_block(block: np.ndarray, compress: bool = False, level: int = 1) -> bytes:
    """Serialize a 2-D float array into a framed byte string.

    With ``compress=True`` the payload is zlib-deflated (``level`` 1-9;
    level 1 is the streaming-friendly default: most of the win at a
    fraction of the CPU).

    The frame is assembled in one preallocated buffer: the array is
    copied exactly once, directly into place after the header.
    """
    arr = np.ascontiguousarray(block, dtype=np.float64)
    if arr.ndim != 2:
        raise SerdeError(f"block must be 2-D, got shape {arr.shape}")
    if compress:
        raw = arr.tobytes(order="C")
        crc = zlib.crc32(raw)
        payload = zlib.compress(raw, level)
        frame = bytearray(HEADER_SIZE + len(payload))
        _HEADER.pack_into(frame, 0, MAGIC_COMPRESSED, arr.shape[0], arr.shape[1], crc)
        frame[HEADER_SIZE:] = payload
        return bytes(frame)
    frame = bytearray(HEADER_SIZE + arr.nbytes)
    # Fill the payload region in place: the sole copy of the block data.
    np.frombuffer(frame, dtype=np.float64, offset=HEADER_SIZE)[:] = arr.reshape(-1)
    crc = zlib.crc32(memoryview(frame)[HEADER_SIZE:])
    _HEADER.pack_into(frame, 0, MAGIC, arr.shape[0], arr.shape[1], crc)
    return bytes(frame)


def decode_block(frame: bytes, copy: bool = False, verify: bool = True) -> np.ndarray:
    """Decode a framed byte string back into a ``(points, features)`` array.

    Handles both raw and compressed frames (dispatch on the magic).
    Raises :class:`SerdeError` on truncated frames, bad magic or CRC
    mismatch.

    By default the returned array is a **read-only zero-copy view** over
    the frame's payload bytes (compressed frames decompress into a fresh
    buffer, but still skip the final defensive copy). Pass ``copy=True``
    for a writable, independent array.

    ``verify=False`` skips the payload CRC check (header and length
    validation still apply). The CRC scan is the dominant decode cost
    for large raw frames, and re-verifying is redundant when the frame
    never left process memory or was already verified upstream — the
    same trade Kafka exposes as the consumer's ``check.crcs`` knob.
    """
    if len(frame) < HEADER_SIZE:
        raise SerdeError(f"frame too short: {len(frame)} bytes")
    magic, points, features, crc = _HEADER.unpack_from(frame, 0)
    if magic == MAGIC:
        expected = HEADER_SIZE + points * features * BYTES_PER_VALUE
        if len(frame) != expected:
            raise SerdeError(
                f"frame length {len(frame)} does not match header ({expected} expected)"
            )
        payload = memoryview(frame)[HEADER_SIZE:]
    elif magic == MAGIC_COMPRESSED:
        try:
            payload = zlib.decompress(memoryview(frame)[HEADER_SIZE:])
        except zlib.error as exc:
            raise SerdeError(f"corrupt compressed payload: {exc}") from exc
        if len(payload) != points * features * BYTES_PER_VALUE:
            raise SerdeError("decompressed payload does not match header shape")
    else:
        raise SerdeError(f"bad magic {magic!r}")
    if verify and zlib.crc32(payload) != crc:
        raise SerdeError("payload CRC mismatch")
    arr = np.frombuffer(payload, dtype=np.float64)
    if copy:
        return arr.reshape(points, features).copy()
    # frombuffer over a writable source (e.g. bytearray) yields a
    # writable view; lock it so the shared frame cannot be corrupted.
    arr.flags.writeable = False
    return arr.reshape(points, features)
