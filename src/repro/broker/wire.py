"""Wire framing shared by the broker server and client.

Protocol: length-prefixed JSON frames (4-byte big-endian length, then a
UTF-8 JSON object). A frame may carry *binary blobs*: its JSON object
then has a ``"sizes": [n1, ...]`` field, and a body follows with the
blobs back to back, each zero-padded to a multiple of ``ALIGN``. The
batched data-path ops (``append_batch`` / ``fetch_batch``) move record
payloads as blobs: one round-trip per batch and no base64. Small fields
(keys, headers, offsets) stay base64-in-JSON for debuggability.

Both decoders — :func:`recv_frame`, blocking, for a client's calling
thread, :class:`FrameDecoder`, incremental, for the reactor — read the
body *in place*: consecutive blobs share one ``bytearray`` of at most
``CHUNK`` bytes (a larger blob is a chunk of its own; a buffer per value
was faulted in afresh on every poll), each blob a read-only
``memoryview`` of it on an ``ALIGN`` boundary, so float64 blocks decode
aligned. Sending is scatter-gather (:func:`send_some`).

What travels *inside* a frame — the ops, their fields and codecs — is
declared once in :mod:`repro.broker.ops`.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from collections import deque
from itertools import islice

from repro.util.validation import ValidationError

LEN = struct.Struct(">I")
MAX_FRAME = 64 * 1024 * 1024

#: The kernel caps sendmsg at IOV_MAX iovec entries (1024 on Linux);
#: exceeding it fails with EMSGSIZE, so large batches go out in slices.
IOV_MAX = min(getattr(socket, "IOV_MAX", 1024), 1024)

#: One read into the parse buffer: also the most of a chunk copied twice.
_RECV_CHUNK = 65536
#: A blob starts at a multiple of ALIGN bytes; blobs share buffers of ≤ CHUNK.
ALIGN, CHUNK = 16, 1 << 20


# -- encoding ----------------------------------------------------------------


def encode_frame(payload: dict, blobs=()) -> list:
    """Encode one frame as a list of buffers (no concatenation copy)."""
    if blobs:
        payload = {**payload, "sizes": [len(blob) for blob in blobs]}
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME:
        raise ValidationError(f"frame too large: {len(data)} bytes")
    buffers = [LEN.pack(len(data)), data]
    for blob in blobs:
        if len(blob) > MAX_FRAME:
            raise ValidationError(f"blob too large: {len(blob)} bytes")
        buffers.append(blob)
        if len(blob) % ALIGN:
            buffers.append(bytes(-len(blob) % ALIGN))
    return buffers


def send_some(sock: socket.socket, buffers: deque) -> int:
    """One scatter-gather send from the head of *buffers* (at most
    ``IOV_MAX`` of them); returns the byte count and consumes it:
    exhausted (and empty) heads are popped, a partly sent head becomes a
    view of its rest. The blocking client and the reactor both send with
    this; on a non-blocking socket ``BlockingIOError`` propagates.
    """
    if hasattr(sock, "sendmsg"):
        sent = n = sock.sendmsg(islice(buffers, IOV_MAX))
    else:  # no scatter-gather (Windows): one buffer per call
        sent = n = sock.send(buffers[0])
    while buffers and len(buffers[0]) <= n:
        n -= len(buffers.popleft())
    if n:
        buffers[0] = memoryview(buffers[0])[n:]
    return sent


def sendall_vectored(sock: socket.socket, buffers) -> None:
    """Send all buffers without concatenating them into one big copy."""
    buffers = deque(buffers)
    while buffers:
        send_some(sock, buffers)


# -- decoding ----------------------------------------------------------------


def _header(data) -> tuple[dict, list]:
    """JSON header → ``(payload, [[chunk bytes, its blobs' slices], ...])``;
    anything malformed raises ConnectionError before the body is allocated."""
    try:
        payload = json.loads(data)
        sizes = payload.pop("sizes", [])
        if type(sizes) is not list or not all(type(n) is int and 0 <= n <= MAX_FRAME for n in sizes):
            raise ValueError(f"bad blob sizes {sizes!r:.60}")
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConnectionError(f"undecodable frame: {exc}") from exc
    chunks: list = []
    for n in sizes:
        if not chunks or chunks[-1][0] and chunks[-1][0] + n > CHUNK:
            chunks.append([0, []])
        at = chunks[-1][0]
        chunks[-1][1].append(slice(at, at + n))
        chunks[-1][0] = at + n + -n % ALIGN
    return payload, chunks


def recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Receive exactly *n* bytes (blocking) into one buffer of that size."""
    out = bytearray(n)
    view, got = memoryview(out), 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise ConnectionError("peer closed the connection")
        got += k
    return out


def recv_frame(sock: socket.socket) -> tuple[dict, list]:
    """Receive one frame (blocking); returns (json payload, binary blobs)."""
    (length,) = LEN.unpack(recv_exact(sock, 4))
    if length > MAX_FRAME:
        raise ConnectionError(f"oversized frame: {length}")
    payload, chunks = _header(recv_exact(sock, length))
    blobs = []
    for nbytes, spans in chunks:
        view = memoryview(recv_exact(sock, nbytes)).toreadonly()
        blobs += [view[span] for span in spans]
    return payload, blobs


class FrameDecoder:
    """Incremental frame assembly for non-blocking sockets.

    Bytes come in through :meth:`recv_from` (one read from a socket) or
    :meth:`feed`; pull complete ``(payload, blobs)`` frames with
    :meth:`next_frame` until it returns ``None``. Lengths and JSON pass
    through a small parse buffer; a chunk's buffer is allocated when the
    stream reaches it, takes what of it sits in the parse buffer, and the
    socket is read straight into its tail. Protocol violations raise
    :class:`ConnectionError`: drop the connection.
    """

    __slots__ = ("_buf", "_payload", "_chunks", "_blobs", "_chunk", "_filled")

    def __init__(self) -> None:
        self._buf = bytearray()
        #: The header of the frame whose body is arriving, its chunks to come, blobs done.
        self._payload: dict | None = None
        self._chunks: list = []
        self._blobs: list = []
        #: The chunk being received and how much of it has arrived. While
        #: it is incomplete the parse buffer is empty.
        self._chunk: bytearray | None = None
        self._filled = 0

    @property
    def buffered_bytes(self) -> int:
        """Bytes received for a not-yet-complete frame (memory accounting)."""
        return len(self._buf) + self._filled + sum(map(len, self._blobs))

    @property
    def mid_blob(self) -> bool:
        """True while a chunk's tail is still on the wire."""
        return self._chunk is not None

    def recv_from(self, sock: socket.socket) -> int:
        """One read from *sock*: into the pending chunk's tail if there is
        one, else into the parse buffer. Returns the byte count (0 = the
        peer closed); socket errors propagate."""
        if self._chunk is None:
            data = sock.recv(_RECV_CHUNK)
            self._buf += data
            return len(data)
        n = sock.recv_into(memoryview(self._chunk)[self._filled :])
        self._filled += n
        return n

    def feed(self, data) -> None:
        if self._chunk is not None:
            data = memoryview(data)
            k = min(len(data), len(self._chunk) - self._filled)
            self._chunk[self._filled : self._filled + k] = data[:k]
            self._filled += k
            data = data[k:]
        self._buf += data

    def next_frame(self) -> tuple[dict, list] | None:
        buf = self._buf
        while True:
            if self._chunk is not None:
                if self._filled < len(self._chunk):
                    return None
                view = memoryview(self._chunk).toreadonly()
                self._blobs += [view[span] for span in self._chunks.pop(0)[1]]
                self._chunk, self._filled = None, 0
            if self._payload is None:
                if len(buf) < 4:
                    return None
                (length,) = LEN.unpack_from(buf)
                if length > MAX_FRAME:  # refused before anything is allocated
                    raise ConnectionError(f"oversized frame: {length}")
                if len(buf) < 4 + length:
                    return None
                self._payload, self._chunks = _header(buf[4 : 4 + length])
                del buf[: 4 + length]
            elif self._chunks:  # the stream has reached the next chunk
                self._chunk = bytearray(self._chunks[0][0])
                self._filled = k = min(len(buf), len(self._chunk))
                self._chunk[:k] = memoryview(buf)[:k]
                del buf[:k]
            else:
                frame = self._payload, self._blobs
                self._payload, self._blobs = None, []
                return frame


# -- value encoding ----------------------------------------------------------


def b64(data: bytes | None) -> str | None:
    return None if data is None else base64.b64encode(data).decode("ascii")


def unb64(data: str | None) -> bytes | None:
    return None if data is None else base64.b64decode(data)
