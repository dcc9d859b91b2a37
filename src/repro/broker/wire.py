"""Wire framing shared by the broker server and client.

Protocol: length-prefixed JSON frames (4-byte big-endian length, then a
UTF-8 JSON object). A frame may additionally carry *binary blobs*: when
the JSON object has an ``"nblobs": k`` field, the frame is followed by
``k`` length-prefixed raw byte strings. The batched data-path ops
(``append_batch`` / ``fetch_batch``) move record payloads as blobs —
one socket round-trip per batch and no base64 (which inflates payloads
by ~33% and burns CPU on both ends). Small fields (keys, headers,
offsets) stay base64-in-JSON for debuggability.

Two decode styles share the same format:

* :func:`recv_frame` — blocking, for the client's reader thread (one
  ``recv`` loop per frame on a blocking socket).
* :class:`FrameDecoder` — incremental, for the reactor server: bytes are
  fed in whatever chunks the event loop reads and complete frames pop
  out; partial frames cost no re-parsing (the decoder remembers exactly
  how many bytes it still needs).

What travels *inside* a frame — the ops, their fields and codecs — is
declared once in :mod:`repro.broker.ops`.
"""

from __future__ import annotations

import base64
import json
import socket
import struct

from repro.util.validation import ValidationError

LEN = struct.Struct(">I")
MAX_FRAME = 64 * 1024 * 1024

#: The kernel caps sendmsg at IOV_MAX iovec entries (1024 on Linux);
#: exceeding it fails with EMSGSIZE, so large batches go out in slices.
IOV_MAX = min(getattr(socket, "IOV_MAX", 1024), 1024)


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


def sendall_vectored(sock: socket.socket, buffers: list) -> None:
    """Send all buffers without concatenating them into one big copy."""
    if not hasattr(sock, "sendmsg"):
        sock.sendall(b"".join(buffers))
        return
    views = [memoryview(b) for b in buffers if len(b)]
    while views:
        sent = sock.sendmsg(views[:IOV_MAX])
        while sent:
            if len(views[0]) <= sent:
                sent -= len(views[0])
                views.pop(0)
            else:
                views[0] = views[0][sent:]
                sent = 0


# -- blocking decode ---------------------------------------------------------


def recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = sock.recv(min(n, 65536))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[dict, list[bytes]]:
    """Receive one frame (blocking); returns (json payload, binary blobs)."""
    (length,) = LEN.unpack(recv_exact(sock, 4))
    if length > MAX_FRAME:
        raise ConnectionError(f"oversized frame: {length}")
    payload = json.loads(recv_exact(sock, length).decode("utf-8"))
    blobs: list[bytes] = []
    for _ in range(int(payload.pop("nblobs", 0))):
        (blob_len,) = LEN.unpack(recv_exact(sock, 4))
        if blob_len > MAX_FRAME:
            raise ConnectionError(f"oversized blob: {blob_len}")
        blobs.append(recv_exact(sock, blob_len))
    return payload, blobs


class FrameDecoder:
    """Incremental frame assembly for non-blocking sockets.

    Feed raw chunks with :meth:`feed`; pull complete ``(payload, blobs)``
    frames with :meth:`next_frame` until it returns ``None``. The decoder
    is a four-state machine (payload length → payload body → blob length
    → blob body), so a frame arriving in many small reads is parsed
    exactly once — no rescanning, no quadratic reassembly.

    Raises :class:`ConnectionError` on protocol violations (oversized
    frame/blob, undecodable JSON); the caller should drop the connection,
    matching the blocking path's behavior.
    """

    __slots__ = ("_buf", "_state", "_need", "_payload", "_blobs", "_nblobs")

    _WANT_LEN, _WANT_PAYLOAD, _WANT_BLOB_LEN, _WANT_BLOB = range(4)

    def __init__(self) -> None:
        self._buf = bytearray()
        self._state = self._WANT_LEN
        self._need = 4
        self._payload: dict | None = None
        self._blobs: list[bytes] = []
        self._nblobs = 0

    @property
    def buffered_bytes(self) -> int:
        """Bytes held for a not-yet-complete frame (memory accounting)."""
        return len(self._buf)

    def feed(self, data) -> None:
        self._buf += data

    def _take(self, n: int) -> bytes:
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def next_frame(self) -> tuple[dict, list[bytes]] | None:
        buf = self._buf
        while len(buf) >= self._need:
            state = self._state
            if state == self._WANT_LEN:
                (length,) = LEN.unpack_from(buf)
                del buf[:4]
                if length > MAX_FRAME:
                    raise ConnectionError(f"oversized frame: {length}")
                self._need = length
                self._state = self._WANT_PAYLOAD
            elif state == self._WANT_PAYLOAD:
                try:
                    payload = json.loads(self._take(self._need).decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as exc:
                    raise ConnectionError(f"undecodable frame: {exc}") from exc
                self._nblobs = int(payload.pop("nblobs", 0))
                self._payload = payload
                self._blobs = []
                if self._nblobs <= 0:
                    self._state = self._WANT_LEN
                    self._need = 4
                    self._payload = None
                    return payload, []
                self._state = self._WANT_BLOB_LEN
                self._need = 4
            elif state == self._WANT_BLOB_LEN:
                (blob_len,) = LEN.unpack_from(buf)
                del buf[:4]
                if blob_len > MAX_FRAME:
                    raise ConnectionError(f"oversized blob: {blob_len}")
                self._need = blob_len
                self._state = self._WANT_BLOB
            else:  # _WANT_BLOB
                self._blobs.append(self._take(self._need))
                if len(self._blobs) == self._nblobs:
                    payload, blobs = self._payload, self._blobs
                    self._payload, self._blobs = None, []
                    self._state = self._WANT_LEN
                    self._need = 4
                    return payload, blobs
                self._state = self._WANT_BLOB_LEN
                self._need = 4
        return None


# -- value encoding ----------------------------------------------------------


def b64(data: bytes | None) -> str | None:
    return None if data is None else base64.b64encode(data).decode("ascii")


def unb64(data: str | None) -> bytes | None:
    return None if data is None else base64.b64decode(data)
