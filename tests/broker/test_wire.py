"""The wire's receive and send paths: any chunking decodes to the same
frames, bad blob sizes are refused before anything is allocated, values
arrive as 16-byte-aligned views sharing one buffer per chunk, and the
reactor's scatter-gather queue delivers byte-identical frames however the
socket takes them."""

import gc
import socket
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import Broker
from repro.broker.remote import BrokerServer, RemoteBroker
from repro.broker.storage import StorageConfig
from repro.broker.wire import (
    CHUNK,
    IOV_MAX,
    LEN,
    MAX_FRAME,
    FrameDecoder,
    encode_frame,
    recv_frame,
    sendall_vectored,
)
from repro.data import decode_block, encode_block

frames_strategy = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from("abc"), st.integers(0, 9), max_size=2),
        st.lists(st.binary(max_size=300), max_size=4),
    ),
    min_size=1,
    max_size=5,
)


def _wire(frames) -> bytes:
    return b"".join(bytes(b) for payload, blobs in frames for b in encode_frame(payload, blobs))


def _chunks(wire: bytes, cuts) -> list:
    edges = [0, *sorted({c % (len(wire) + 1) for c in cuts}), len(wire)]
    return [wire[a:b] for a, b in zip(edges, edges[1:]) if a < b]


def _drain(decoder) -> list:
    out = []
    while (frame := decoder.next_frame()) is not None:
        out.append((frame[0], [bytes(b) for b in frame[1]]))
    return out


class _Traced:
    """Peak of traced allocations above the level at entry."""

    def __enter__(self):
        tracemalloc.start()
        self._base = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1] - self._base
        tracemalloc.stop()


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


class TestDecoderEquivalence:
    @settings(max_examples=60)
    @given(frames=frames_strategy, cuts=st.lists(st.integers(0, 10_000), max_size=12))
    def test_any_chunking_yields_the_same_frames(self, frames, cuts):
        # Covers, by construction: zero-length blobs, a blob whose head
        # is already in the parse buffer when its length is parsed, two
        # frames in one read, and a blob's tail read straight off the
        # socket.
        chunks = _chunks(_wire(frames), cuts)
        expected = [(dict(p), list(blobs)) for p, blobs in frames]

        fed, got_fed = FrameDecoder(), []
        for chunk in chunks:
            fed.feed(chunk)
            got_fed += _drain(fed)
        assert got_fed == expected
        assert fed.buffered_bytes == 0

        a, b = socket.socketpair()
        with a, b:
            b.setblocking(False)
            read, got_read = FrameDecoder(), []
            for chunk in chunks:
                a.sendall(chunk)
                while True:
                    try:
                        assert read.recv_from(b) > 0
                    except BlockingIOError:
                        break
                    got_read += _drain(read)
        assert got_read == expected
        assert read.buffered_bytes == 0 and not read.mid_blob

    def test_a_received_blob_is_the_buffer_it_was_read_into(self):
        blob = bytes(range(256)) * 1024
        a, b = socket.socketpair()
        with a, b:
            sender = threading.Thread(
                target=sendall_vectored, args=(a, encode_frame({"op": "x"}, [blob, b""]))
            )
            sender.start()
            b.settimeout(30)
            decoder, frame = FrameDecoder(), None
            while frame is None:
                assert decoder.recv_from(b) > 0
                frame = decoder.next_frame()
            sender.join(timeout=30)
        assert frame == ({"op": "x"}, [blob, b""])
        # Read-only views of the one buffer the chunk was read into.
        assert all(type(x) is memoryview and x.readonly for x in frame[1])
        assert frame[1][0].obj is frame[1][1].obj and type(frame[1][0].obj) is bytearray

    def test_oversized_blob_is_refused_before_it_is_allocated(self):
        decoder = FrameDecoder()
        decoder.feed(b"".join(encode_frame({"sizes": [MAX_FRAME + 1]})))
        with pytest.raises(ConnectionError):
            decoder.next_frame()
        assert not decoder.mid_blob

    @pytest.mark.parametrize(
        "sizes",
        [f"[{MAX_FRAME},-1]", f'[{MAX_FRAME},"x"]', f"[{MAX_FRAME},1.5]", f"[{MAX_FRAME},true]",
         f"[{MAX_FRAME},null]", f"[{MAX_FRAME},{MAX_FRAME + 1}]", "5", '"ab"', "{}", "null"],
    )
    def test_bad_blob_sizes_are_refused_before_anything_is_allocated(self, sizes):
        # A valid MAX_FRAME blob leads each bad list: had the header been
        # taken piecemeal, its 64 MiB buffer would show in the peak.
        header = b'{"op":"x","sizes":%s}' % sizes.encode()
        wire = LEN.pack(len(header)) + header + bytes(4096)
        decoder = FrameDecoder()
        with _Traced() as fed:
            decoder.feed(wire)
            with pytest.raises(ConnectionError):
                decoder.next_frame()
        assert not decoder.mid_blob
        a, b = socket.socketpair()
        with a, b, _Traced() as read:
            a.sendall(wire)
            b.settimeout(30)
            with pytest.raises(ConnectionError):
                recv_frame(b)
        assert max(fed.peak, read.peak) < 1 << 20

    def test_a_declared_blob_counts_only_what_arrived(self):
        decoder = FrameDecoder()
        decoder.feed(b"".join(encode_frame({"sizes": [MAX_FRAME]})) + b"abc")
        assert decoder.next_frame() is None
        assert decoder.mid_blob and decoder.buffered_bytes == 3

    def test_a_declared_chunk_is_allocated_only_when_the_stream_reaches_it(self):
        decoder = FrameDecoder()
        with _Traced() as traced:
            decoder.feed(
                b"".join(encode_frame({"sizes": [CHUNK, MAX_FRAME, MAX_FRAME]}))
                + bytes(CHUNK) + b"abc"
            )
            assert decoder.next_frame() is None
        assert decoder.mid_blob and decoder.buffered_bytes == CHUNK + 3
        # The first chunk, the second (still arriving), never the third.
        assert traced.peak < 2 * MAX_FRAME

    @pytest.mark.parametrize("payload", [b"[1]", b'"s"', b"null"])
    def test_a_frame_that_is_not_an_object_drops_the_connection(self, payload):
        decoder = FrameDecoder()
        decoder.feed(LEN.pack(len(payload)) + payload)
        with pytest.raises(ConnectionError):
            decoder.next_frame()


class TestChunkedBody:
    """The body arrives in one buffer per chunk of at most ``CHUNK``
    bytes, each value a read-only view on a 16-byte boundary of it."""

    def test_values_start_on_16_byte_boundaries_through_both_decoders(self):
        rng = np.random.default_rng(5)
        blocks = [encode_block(rng.random(shape)) for shape in ((8000, 4), (32000, 10))]
        values = [b"a", bytes(range(256)) * 25 + b"b" * 17, *blocks]
        assert [len(v) for v in values] == [1, 6_417, 256_016, 2_560_016]
        a, b = socket.socketpair()
        with a, b:
            sender = threading.Thread(
                target=sendall_vectored, args=(a, encode_frame({}, values) * 2)
            )
            sender.start()
            b.settimeout(30)
            _, read = recv_frame(b)
            decoder = FrameDecoder()
            while (frame := decoder.next_frame()) is None:
                assert decoder.recv_from(b) > 0
            sender.join(timeout=30)
        for got in (read, frame[1]):
            assert got == values
            assert all(np.frombuffer(v, np.uint8).ctypes.data % 16 == 0 for v in got)
            for value, block in zip(got[2:], blocks):
                decoded = decode_block(value)
                assert decoded.flags.aligned
                assert np.array_equal(decoded, decode_block(block))

    def test_values_of_one_fetch_share_one_buffer_per_chunk(self):
        values = [bytes([i]) * 256_016 for i in range(8)] + [b"L" * 2_560_016]
        with BrokerServer() as server:
            server.broker.create_topic("t", 1)
            with RemoteBroker(server.host, server.port) as remote:
                remote.append_many("t", 0, values)  # the server's FrameDecoder
                fetched = remote.fetch("t", 0, 0, max_records=9)  # recv_frame
            stored = server.broker.fetch("t", 0, 0, max_records=9)
        for got in ([r.value for r in fetched], [r.value for r in stored]):
            assert got == values
            small = {id(v.obj) for v in got[:8]}
            assert len(small) == 2 and id(got[8].obj) not in small
            assert all(len(v.obj) <= max(CHUNK, len(v)) for v in got)


class TestBlockingSender:
    def test_partial_sends_and_more_than_iov_max_buffers(self):
        # A small send buffer forces partial sends that end mid-buffer;
        # 3,000 buffers force more than one sendmsg window.
        blobs = [bytes([i % 251]) * (i % 7) for i in range(1500)] + [b"z" * 300_000]
        a, b = socket.socketpair()
        with a, b:
            a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            buffers = encode_frame({"op": "x"}, blobs)
            assert len(buffers) > 2 * IOV_MAX
            sender = threading.Thread(target=sendall_vectored, args=(a, buffers))
            sender.start()
            b.settimeout(30)
            payload, got = recv_frame(b)
            sender.join(timeout=30)
            assert not sender.is_alive()
        assert payload == {"op": "x"} and got == blobs


def _server_conn(server):
    assert _wait_until(lambda: server.connections_active == 1)
    (conn,) = server._conns.values()
    return conn


class TestReactorPumpOut:
    def test_tiny_send_buffer_and_more_than_iov_max_buffers(self):
        values = [bytes([i % 251]) * (1 + i % 9) for i in range(1500)] + [b"y" * 400_000]
        with BrokerServer() as server:
            server.broker.create_topic("t", 1)
            server.broker.append_many("t", 0, values)
            with socket.create_connection((server.host, server.port), timeout=30) as sock:
                sendall_vectored(sock, encode_frame({"op": "list_topics", "cid": 0}))
                recv_frame(sock)
                _server_conn(server).sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                for cid in (1, 2):  # two responses queued behind each other
                    sendall_vectored(sock, encode_frame(
                        {"op": "fetch_batch", "topic": "t", "partition": 0,
                         "offset": 0, "max_records": 5000, "cid": cid},
                    ))
                for cid in (1, 2):
                    response, blobs = recv_frame(sock)
                    assert response["ok"] and response["cid"] == cid
                    assert [m["offset"] for m in response["result"]] == list(range(len(values)))
                    assert blobs == values
                conn = _server_conn(server)
                assert _wait_until(lambda: conn.out_bytes == 0 and not conn.outbuf)

    def test_closing_with_mapped_views_queued_neither_leaks_nor_raises(self, tmp_path):
        config = StorageConfig(segment_bytes=256 * 1024, flush_ms=60_000.0)
        broker = Broker(log_dir=str(tmp_path), storage=config)
        with BrokerServer(broker) as server:
            broker.create_topic("t", 1)
            store = broker.partition_log("t", 0).storage
            for _ in range(12):
                broker.append_many("t", 0, [b"m" * 100_000])
                store.flush()
            assert store.counters["segments_sealed"] >= 3
            sealed = store._sealed[0]
            mapping = weakref.ref(sealed._mmap)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((server.host, server.port))
            with sock:
                sendall_vectored(sock, encode_frame({"op": "list_topics", "cid": 0}))
                recv_frame(sock)
                conn = _server_conn(server)
                conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                sendall_vectored(sock, encode_frame(
                    {"op": "fetch_batch", "topic": "t", "partition": 0,
                     "offset": 0, "max_records": 6, "cid": 1},
                ))
                # Never read: the response's views of the mapping stay queued.
                assert _wait_until(lambda: conn.out_bytes > 100_000)
                assert any(isinstance(b, memoryview) for b in conn.outbuf)
                store._decode_cache.clear()
                sealed.close()  # views in flight: must not raise
            assert _wait_until(lambda: server.connections_active == 0)
            assert not conn.outbuf
            del sealed
            gc.collect()
            assert mapping() is None, "the queued views kept the mapping alive"
        broker.close()
