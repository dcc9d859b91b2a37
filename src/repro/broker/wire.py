"""Wire framing shared by the broker server and client.

Protocol: length-prefixed JSON frames (4-byte big-endian length, then a
UTF-8 JSON object). A frame may additionally carry *binary blobs*: when
the JSON object has an ``"nblobs": k`` field, the frame is followed by
``k`` length-prefixed raw byte strings. The batched data-path ops
(``append_batch`` / ``fetch_batch``) move record payloads as blobs —
one socket round-trip per batch and no base64 (which inflates payloads
by ~33% and burns CPU on both ends). Small fields (keys, headers,
offsets) stay base64-in-JSON for debuggability.

Two decode styles share the same format — :func:`recv_frame`, blocking,
for the calling thread of a client, and :class:`FrameDecoder`, incremental,
for the reactor — and in both a blob is received *in place*: straight
from the socket into one ``bytearray`` of its declared length, which is
the object the caller gets (nothing writes to it after its frame
completes). Sending is scatter-gather (:func:`send_some`): a frame's
buffers go to ``sendmsg`` as they are, never concatenated.

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

#: One read into the parse buffer: also the most of a blob copied twice.
_RECV_CHUNK = 65536


# -- encoding ----------------------------------------------------------------


def encode_frame(payload: dict, blobs=()) -> list:
    """Encode one frame as a list of buffers (no concatenation copy)."""
    if blobs:
        payload = dict(payload)
        payload["nblobs"] = len(blobs)
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME:
        raise ValidationError(f"frame too large: {len(data)} bytes")
    buffers = [LEN.pack(len(data)), data]
    for blob in blobs:
        if len(blob) > MAX_FRAME:
            raise ValidationError(f"blob too large: {len(blob)} bytes")
        buffers.append(LEN.pack(len(blob)))
        buffers.append(blob)
    return buffers


def send_frame(sock: socket.socket, payload: dict, blobs=()) -> None:
    sendall_vectored(sock, encode_frame(payload, blobs))


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


def recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Receive exactly *n* bytes (blocking) into one buffer of that size."""
    out = bytearray(n)
    view = memoryview(out)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise ConnectionError("peer closed the connection")
        got += k
    return out


def _recv_sized(sock: socket.socket) -> bytearray:
    (length,) = LEN.unpack(recv_exact(sock, 4))
    if length > MAX_FRAME:
        raise ConnectionError(f"oversized frame or blob: {length}")
    return recv_exact(sock, length)


def recv_frame(sock: socket.socket) -> tuple[dict, list]:
    """Receive one frame (blocking); returns (json payload, binary blobs)."""
    payload = json.loads(_recv_sized(sock))
    return payload, [_recv_sized(sock) for _ in range(int(payload.pop("nblobs", 0)))]


class FrameDecoder:
    """Incremental frame assembly for non-blocking sockets.

    Bytes come in through :meth:`recv_from` (one read from a socket) or
    :meth:`feed`; pull complete ``(payload, blobs)`` frames with
    :meth:`next_frame` until it returns ``None``. Lengths and JSON pass
    through a small parse buffer. A blob does not: once its length
    prefix is parsed (and checked against ``MAX_FRAME``) its buffer is
    allocated once at the declared length, takes whatever of it already
    sits in the parse buffer, and the socket is read straight into its
    tail. A frame arriving in many small reads is parsed exactly once.

    Raises :class:`ConnectionError` on protocol violations (oversized
    frame/blob, undecodable JSON); the caller should drop the connection,
    matching the blocking path's behavior.
    """

    __slots__ = ("_buf", "_state", "_need", "_payload", "_nblobs", "_blobs",
                 "_blob", "_filled")

    _WANT_LEN, _WANT_PAYLOAD, _WANT_BLOBS = range(3)

    def __init__(self) -> None:
        self._buf = bytearray()
        self._state = self._WANT_LEN
        self._need = 4
        self._payload: dict | None = None
        self._nblobs = 0
        self._blobs: list = []
        #: The blob being received and how much of it has arrived. While
        #: it is incomplete the parse buffer is empty.
        self._blob: bytearray | None = None
        self._filled = 0

    @property
    def buffered_bytes(self) -> int:
        """Bytes received for a not-yet-complete frame (memory accounting)."""
        return len(self._buf) + self._filled + sum(map(len, self._blobs))

    @property
    def mid_blob(self) -> bool:
        """True while a blob's tail is still on the wire."""
        return self._blob is not None

    def recv_from(self, sock: socket.socket) -> int:
        """One read from *sock*: into the pending blob's tail if there is
        one, else into the parse buffer. Returns the byte count (0 = the
        peer closed); socket errors propagate."""
        if self._blob is None:
            data = sock.recv(_RECV_CHUNK)
            self._buf += data
            return len(data)
        n = sock.recv_into(memoryview(self._blob)[self._filled :])
        self._filled += n
        return n

    def feed(self, data) -> None:
        if self._blob is not None:
            data = memoryview(data)
            k = min(len(data), len(self._blob) - self._filled)
            self._blob[self._filled : self._filled + k] = data[:k]
            self._filled += k
            data = data[k:]
        self._buf += data

    def next_frame(self) -> tuple[dict, list] | None:
        buf = self._buf
        while True:
            if self._blob is not None:
                if self._filled < len(self._blob):
                    return None
                self._blobs.append(self._blob)
                self._blob, self._filled = None, 0
            if self._state == self._WANT_BLOBS and len(self._blobs) >= self._nblobs:
                frame = self._payload, self._blobs
                self._payload, self._blobs = None, []
                self._state = self._WANT_LEN
                return frame
            if len(buf) < self._need:
                return None
            if self._state == self._WANT_PAYLOAD:
                try:  # bad JSON, bad UTF-8, or not an object at all
                    self._payload = json.loads(buf[: self._need])
                    self._nblobs = int(self._payload.pop("nblobs", 0))
                except (ValueError, TypeError, AttributeError) as exc:
                    raise ConnectionError(f"undecodable frame: {exc}") from exc
                del buf[: self._need]
                self._state, self._need = self._WANT_BLOBS, 4
                continue
            (length,) = LEN.unpack_from(buf)
            del buf[:4]
            if length > MAX_FRAME:  # refused before anything is allocated
                raise ConnectionError(f"oversized frame or blob: {length}")
            if self._state == self._WANT_LEN:
                self._state, self._need = self._WANT_PAYLOAD, length
            else:
                self._blob = bytearray(length)
                self._filled = k = min(len(buf), length)
                self._blob[:k] = memoryview(buf)[:k]
                del buf[:k]


# -- value encoding ----------------------------------------------------------


def b64(data: bytes | None) -> str | None:
    return None if data is None else base64.b64encode(data).decode("ascii")


def unb64(data: str | None) -> bytes | None:
    return None if data is None else base64.b64decode(data)
