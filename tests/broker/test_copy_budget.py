"""Copy budget of the wire path, counted rather than timed.

One large blob is appended and fetched through a loopback
``BrokerServer`` under ``tracemalloc``. Every extra userspace copy of a
payload shows up as a traced allocation of its size, so the peaks below
bound the copies per hop deterministically: a blob is received into one
buffer (its chunk; a blob over 1 MiB is a chunk of its own), the broker
stores a read-only view of it, and sends from the buffer it lives in.
"""

import socket
import tracemalloc

import pytest

from repro.broker.remote import BrokerServer
from repro.broker.wire import FrameDecoder, encode_frame, recv_frame, sendall_vectored

BLOB = 8 * 1024 * 1024


@pytest.fixture
def server():
    with BrokerServer() as srv:
        srv.broker.create_topic("t", 1)
        yield srv


@pytest.fixture
def sock(server):
    with socket.create_connection((server.host, server.port), timeout=30) as s:
        yield s


class _Traced:
    """Peak of traced allocations above the level at entry."""

    def __enter__(self):
        tracemalloc.start()
        tracemalloc.reset_peak()
        self._base = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1] - self._base
        tracemalloc.stop()


def _append(sock, blob):
    sendall_vectored(
        sock, encode_frame({"op": "append_batch", "topic": "t", "partition": 0, "cid": 1}, [blob])
    )
    response, _ = recv_frame(sock)
    assert response["ok"], response


_FETCH = {"op": "fetch_batch", "topic": "t", "partition": 0, "offset": 0, "cid": 2}


def test_append_allocates_the_blob_once_and_stores_that_buffer(server, sock, monkeypatch):
    decoded = []
    next_frame = FrameDecoder.next_frame

    def spy(self):
        frame = next_frame(self)
        if frame is not None:
            decoded.extend(frame[1])
        return frame

    monkeypatch.setattr(FrameDecoder, "next_frame", spy)
    blob = bytes(BLOB)
    with _Traced() as traced:
        _append(sock, blob)
    # The sender allocates nothing of the blob's size, so this is the
    # server's receive path: the blob's buffer plus a parse chunk.
    assert traced.peak <= 1.5 * BLOB, f"{traced.peak / BLOB:.2f}x the blob"
    (stored,) = server.broker.fetch("t", 0, 0)
    assert len(decoded) == 1 and stored.value is decoded[0]
    # A read-only view of the one buffer the blob was received into.
    assert type(stored.value) is memoryview and stored.value.readonly
    assert type(stored.value.obj) is bytearray and len(stored.value.obj) == BLOB
    assert stored.value == blob


def test_fetch_sends_the_stored_buffer_without_copying_it(server, sock):
    _append(sock, bytes(BLOB))
    # Read the response into memory that exists before tracing starts:
    # whatever is allocated from here on is the server's.
    sink = memoryview(bytearray(BLOB + 4096))
    with _Traced() as traced:
        sendall_vectored(sock, encode_frame(_FETCH))
        got = 0
        while got < BLOB:
            n = sock.recv_into(sink[got:])
            assert n, "server closed the connection"
            got += n
    assert traced.peak < 0.5 * BLOB, f"{traced.peak / BLOB:.2f}x the blob"


def test_client_receives_a_fetched_blob_into_one_buffer(server, sock):
    _append(sock, bytes(BLOB))
    with _Traced() as traced:
        sendall_vectored(sock, encode_frame(_FETCH))
        response, blobs = recv_frame(sock)
    assert response["ok"] and len(blobs) == 1 and len(blobs[0]) == BLOB
    # Server and client share this process: the sum is the client's one
    # buffer, since the server's side of a fetch allocates next to nothing.
    assert traced.peak <= 1.5 * BLOB, f"{traced.peak / BLOB:.2f}x the blob"
