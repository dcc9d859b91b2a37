"""Tests for the reactor broker server: frame decoding, non-blocking
fetch probes, threadless long-poll parking, and deterministic shutdown."""

import socket
import threading
import time

import pytest

from repro.broker import Broker
from repro.broker.errors import OffsetOutOfRangeError
from repro.broker.partition import PartitionLog
from repro.broker.reactor import ReactorBrokerServer
from repro.broker.remote import BrokerServer, RemoteBroker
from repro.broker.wire import (
    LEN,
    FrameDecoder,
    encode_frame,
    recv_frame,
    sendall_vectored,
)


def _wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def server():
    with ReactorBrokerServer() as srv:
        yield srv


def _connect(server) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class TestFrameDecoder:
    def test_byte_at_a_time_reassembly(self):
        wire = b"".join(encode_frame({"op": "stats", "cid": 7}))
        decoder = FrameDecoder()
        frames = []
        for i in range(len(wire)):
            decoder.feed(wire[i : i + 1])
            frame = decoder.next_frame()
            if frame is not None:
                frames.append(frame)
                assert i == len(wire) - 1  # only the last byte completes it
        assert frames == [({"op": "stats", "cid": 7}, [])]
        assert decoder.buffered_bytes == 0

    def test_multiple_frames_in_one_feed(self):
        wire = b"".join(encode_frame({"n": 1})) + b"".join(encode_frame({"n": 2}))
        decoder = FrameDecoder()
        decoder.feed(wire)
        assert decoder.next_frame() == ({"n": 1}, [])
        assert decoder.next_frame() == ({"n": 2}, [])
        assert decoder.next_frame() is None

    def test_blobs_roundtrip(self):
        blobs = [bytes(range(256)), b"", b"x" * 10_000]
        wire = b"".join(encode_frame({"op": "append_batch"}, blobs))
        decoder = FrameDecoder()
        # Split mid-blob to exercise the partial-blob state.
        decoder.feed(wire[:300])
        assert decoder.next_frame() is None
        decoder.feed(wire[300:])
        payload, got = decoder.next_frame()
        assert payload["op"] == "append_batch"
        assert got == blobs

    def test_oversized_frame_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(LEN.pack(2**31))
        with pytest.raises(ConnectionError):
            decoder.next_frame()

    def test_garbage_payload_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(LEN.pack(4) + b"\xff\xfe\xfd\xfc")
        with pytest.raises(ConnectionError):
            decoder.next_frame()


class TestPollFetch:
    def _log(self) -> PartitionLog:
        return PartitionLog("t", 0)

    def test_empty_log_unsatisfied(self):
        batch, satisfied = self._log().poll_fetch(0)
        assert batch == [] and not satisfied

    def test_single_record_satisfies_default(self):
        log = self._log()
        log.append(b"hello")
        batch, satisfied = log.poll_fetch(0)
        assert [r.value for r in batch] == [b"hello"] and satisfied

    def test_min_bytes_threshold(self):
        log = self._log()
        log.append(b"xx")
        batch, satisfied = log.poll_fetch(0, min_bytes=100)
        assert len(batch) == 1 and not satisfied
        log.append(b"y" * 200)
        _, satisfied = log.poll_fetch(0, min_bytes=100)
        assert satisfied

    def test_full_batch_satisfies_despite_min_bytes(self):
        log = self._log()
        for _ in range(3):
            log.append(b"z")
        _, satisfied = log.poll_fetch(0, max_records=3, min_bytes=10**9)
        assert satisfied

    def test_offset_out_of_range(self):
        with pytest.raises(OffsetOutOfRangeError):
            self._log().poll_fetch(5)


class TestReactorWirePath:
    def test_default_server_is_the_reactor(self):
        assert BrokerServer is ReactorBrokerServer

    def test_roundtrip_and_counters(self, server):
        with RemoteBroker(server.host, server.port) as remote:
            remote.create_topic("t", 1)
            md = remote.append("t", 0, b"payload", key=b"k")
            assert md.offset == 0
            [record] = remote.fetch("t", 0, 0)
            assert record.value == b"payload"
        assert server.connections_served >= 1
        assert server.requests_served >= 3
        assert server.op_counts.get("append_batch") == 1

    def test_long_poll_parks_without_a_thread(self, server):
        server.broker.create_topic("t", 1)
        threads_before = threading.active_count()
        sock = _connect(server)
        try:
            sendall_vectored(sock, encode_frame(
                {"op": "fetch_batch", "topic": "t", "partition": 0, "offset": 0,
                 "timeout": 30.0, "cid": 1},
            ))
            assert _wait_until(lambda: server.parked_fetches == 1)
            # Parked as reactor state: no thread was spawned for it, and
            # the broker-level counter sees it while it is parked.
            assert threading.active_count() == threads_before
            assert server.broker.stats()["long_polls_parked"] >= 1
            assert server.metrics()["parked_fetches"] == 1
            # Answered by the loop iteration the wake arrives in (output
            # is flushed after the wakes are processed): no second
            # request, no 0.5 s select timeout.
            sock.settimeout(5)
            woken = time.monotonic()
            server.broker.append("t", 0, b"wake")
            response, _ = recv_frame(sock)
            assert time.monotonic() - woken < 0.05
            assert response["ok"] and response["cid"] == 1
            assert len(response["result"]) == 1
            assert server.parked_fetches == 0
        finally:
            sock.close()

    def test_long_poll_deadline_returns_empty(self, server):
        server.broker.create_topic("t", 1)
        sock = _connect(server)
        try:
            t0 = time.monotonic()
            sendall_vectored(sock, encode_frame(
                {"op": "fetch_batch", "topic": "t", "partition": 0, "offset": 0,
                 "timeout": 0.2, "cid": 9},
            ))
            sock.settimeout(5)
            response, _ = recv_frame(sock)
            assert response["ok"] and response["result"] == []
            assert time.monotonic() - t0 >= 0.15
        finally:
            sock.close()

    def test_parked_fetch_does_not_block_pipelined_requests(self, server):
        server.broker.create_topic("t", 1)
        sock = _connect(server)
        try:
            sendall_vectored(sock, encode_frame(
                {"op": "fetch_batch", "topic": "t", "partition": 0, "offset": 0,
                 "timeout": 30.0, "cid": 1},
            ))
            assert _wait_until(lambda: server.parked_fetches == 1)
            # The same connection's append must get through — it is also
            # the append that wakes the parked fetch.
            sendall_vectored(sock, encode_frame(
                {"op": "append_batch", "topic": "t", "partition": 0, "cid": 2},
                [b"wake"],
            ))
            sock.settimeout(5)
            by_cid = {}
            for _ in range(2):
                response, _ = recv_frame(sock)
                by_cid[response["cid"]] = response
            assert by_cid[2]["ok"] and by_cid[2]["result"]["base_offset"] == 0
            assert by_cid[1]["ok"] and len(by_cid[1]["result"]) == 1
        finally:
            sock.close()

    def test_connection_gauges(self, server):
        assert server.connections_active == 0
        socks = [_connect(server) for _ in range(3)]
        try:
            for sock in socks:  # force the accept to have happened
                sendall_vectored(sock, encode_frame({"op": "list_topics"}))
                recv_frame(sock)
            assert server.connections_active == 3
            metrics = server.metrics()
            assert metrics["connections_active"] == 3
            assert metrics["parked_fetches"] == 0
            assert metrics["reactor_loop_lag_s"] >= 0.0
        finally:
            for sock in socks:
                sock.close()
        assert _wait_until(lambda: server.connections_active == 0)

    def test_a_raising_worker_thunk_is_counted(self, server):
        # Nothing in the serving path should raise past _answer; when
        # something does, the worker survives and the failure shows up
        # under server.worker_errors.<Type> in the broker's registry.
        def boom(request, blobs):
            raise KeyError("bug in the serving path")

        real, server._handle_request = server._handle_request, boom
        sock = _connect(server)
        try:
            sendall_vectored(sock, encode_frame({"op": "list_topics", "cid": 1}))
            name = "server.worker_errors.KeyError"
            assert _wait_until(
                lambda: server.broker.registry.snapshot()["counters"].get(name) == 1
            )
            server._handle_request = real
            sendall_vectored(sock, encode_frame({"op": "list_topics", "cid": 2}))
            sock.settimeout(5)
            response, _ = recv_frame(sock)
            assert response["ok"] and response["cid"] == 2
        finally:
            sock.close()

    def test_an_unencodable_response_is_answered_and_counted(self, server):
        server.broker.list_topics = lambda: {"not", "json"}
        sock = _connect(server)
        try:
            sendall_vectored(sock, encode_frame({"op": "list_topics", "cid": 5}))
            sock.settimeout(5)
            response, _ = recv_frame(sock)
            assert response["cid"] == 5 and not response["ok"]
            assert response["error"] == "TypeError"
            counters = server.broker.registry.snapshot()["counters"]
            assert counters["server.worker_errors.TypeError"] == 1
        finally:
            sock.close()

    def test_unknown_op_answered_not_dropped(self, server):
        sock = _connect(server)
        try:
            sendall_vectored(sock, encode_frame({"op": "definitely_not_an_op", "cid": 3}))
            sock.settimeout(5)
            response, _ = recv_frame(sock)
            assert not response["ok"] and response["cid"] == 3
            assert "unknown op" in response["message"]
        finally:
            sock.close()


class _HeldAppends(Broker):
    """Appends wait, on whichever thread serves them, to be released."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def append_many(self, *args, **kwargs):
        self.entered.set()
        assert self.release.wait(10)
        return super().append_many(*args, **kwargs)


class TestDispatch:
    """An op that cannot wait runs on the loop, but never overtakes a
    waiting op queued ahead of it on the same connection."""

    def test_an_inline_op_keeps_its_place_behind_a_queued_append(self):
        broker = _HeldAppends()
        broker.create_topic("t", 1)
        append = {"op": "append_batch", "topic": "t", "partition": 0, "cid": 1}
        latest = {"op": "latest_offset", "topic": "t", "partition": 0}
        with ReactorBrokerServer(broker) as server:
            first, second = _connect(server), _connect(server)
            try:
                sendall_vectored(first, encode_frame(append, [b"held"]))
                sendall_vectored(first, encode_frame({**latest, "cid": 2}))
                assert broker.entered.wait(5)
                # Another connection's strand is idle: served at once,
                # before the held append lands.
                second.settimeout(5)
                sendall_vectored(second, encode_frame({**latest, "cid": 3}))
                response, _ = recv_frame(second)
                assert (response["cid"], response["result"]) == (3, 0)
                first.settimeout(0.05)
                with pytest.raises(socket.timeout):
                    first.recv(1)
                broker.release.set()
                first.settimeout(5)
                responses = [recv_frame(first)[0] for _ in range(2)]
                assert [r["cid"] for r in responses] == [1, 2]
                assert responses[1]["result"] == 1  # ran after the append
            finally:
                broker.release.set()
                first.close()
                second.close()

    def test_a_wake_from_the_loop_itself_skips_the_self_pipe(self, server):
        # An op served on the loop moves the log end (a follower's
        # replicate_append does): the parked fetch is answered in the
        # same iteration, and nobody writes the self-pipe to get there.
        broker = server.broker
        broker.create_topic("t", 1)
        broker.list_topics = lambda: [broker.append("t", 0, b"inline").offset]
        sock = _connect(server)
        try:
            sendall_vectored(sock, encode_frame(
                {"op": "fetch_batch", "topic": "t", "partition": 0, "offset": 0,
                 "timeout": 30.0, "cid": 1},
            ))
            assert _wait_until(lambda: server.parked_fetches == 1)
            wakes = []
            real, server._wake = server._wake, lambda: wakes.append(1)
            sock.settimeout(5)
            sendall_vectored(sock, encode_frame({"op": "list_topics", "cid": 2}))
            cids = {recv_frame(sock)[0]["cid"] for _ in range(2)}
            server._wake = real
            assert cids == {1, 2} and wakes == []
        finally:
            sock.close()


class TestDeterministicStop:
    def test_stop_leaks_no_threads(self):
        before = set(threading.enumerate())
        server = ReactorBrokerServer(num_workers=3).start()
        server.broker.create_topic("t", 1)
        socks = [_connect(server) for _ in range(4)]
        try:
            # One connection parks a long-poll that would outlive stop().
            sendall_vectored(socks[0], encode_frame(
                {"op": "fetch_batch", "topic": "t", "partition": 0, "offset": 0,
                 "timeout": 60.0},
            ))
            assert _wait_until(lambda: server.parked_fetches == 1)
            server.stop()
            leaked = [
                t for t in set(threading.enumerate()) - before if t.is_alive()
            ]
            assert leaked == []
            # Clients observe EOF/reset, not a hang.
            for sock in socks:
                sock.settimeout(2)
                try:
                    assert sock.recv(1) == b""
                except OSError:
                    pass
        finally:
            for sock in socks:
                sock.close()

    def test_stop_without_start(self):
        server = ReactorBrokerServer()
        server.stop()  # no thread ever ran; must not raise or hang

    def test_stop_is_idempotent(self):
        server = ReactorBrokerServer().start()
        server.stop()
        server.stop()


class TestRetiredOps:
    @pytest.mark.parametrize("op", ["append", "fetch", ["fetch_batch"], None])
    def test_per_record_wire_ops_answer_unknown_op(self, server, op):
        """A single record is a batch of one: the base64 per-record ops
        are gone from the wire, not served beside the batch ops. (An op
        field that is not even a string gets the same answer.)"""
        server.broker.create_topic("t", 1)
        sock = _connect(server)
        try:
            sendall_vectored(sock, encode_frame(
                {"op": op, "topic": "t", "partition": 0, "offset": 0,
                 "value": "eA==", "timeout": 1.0, "cid": 4},
            ))
            sock.settimeout(5)
            response, _ = recv_frame(sock)
            assert not response["ok"] and response["cid"] == 4
            assert response["message"] == f"unknown op {op!r}"
            assert server.parked_fetches == 0
        finally:
            sock.close()
