"""Tests for the TCP broker transport."""

import itertools
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.broker import (
    Broker,
    BrokerTimeoutError,
    ClusterBroker,
    Consumer,
    DisconnectedError,
    Producer,
    ShardBroker,
)
from repro.broker.remote import BrokerServer, RemoteBroker, RemoteBrokerError
from repro.broker.wire import LEN, recv_frame
from repro.data.serde import decode_block, encode_block


@pytest.fixture
def server():
    with BrokerServer() as srv:
        yield srv


@pytest.fixture
def remote(server):
    with RemoteBroker(server.host, server.port) as rb:
        yield rb


def _wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _run_threads(n, fn):
    """Run *fn* on *n* threads at once; every run must finish cleanly."""
    errors = []

    def run():
        try:
            fn()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


class TestTransport:
    def test_create_and_list_topics(self, remote):
        remote.create_topic("t", 3)
        assert remote.list_topics() == ["t"]
        assert remote.topic("t").num_partitions == 3

    def test_append_fetch_roundtrip(self, remote):
        remote.create_topic("t", 1)
        md = remote.append("t", 0, b"payload", key=b"k", headers={"h": 1})
        assert md.offset == 0
        [record] = remote.fetch("t", 0, 0)
        assert record.value == b"payload"
        assert record.key == b"k"
        assert record.headers == {"h": 1}

    def test_binary_safety(self, remote):
        remote.create_topic("t", 1)
        payload = bytes(range(256)) * 4
        remote.append("t", 0, payload)
        [record] = remote.fetch("t", 0, 0)
        assert record.value == payload

    def test_offsets(self, remote):
        remote.create_topic("t", 1)
        remote.append("t", 0, b"x")
        assert remote.earliest_offset("t", 0) == 0
        assert remote.latest_offset("t", 0) == 1

    def test_commits(self, remote):
        remote.create_topic("t", 1)
        remote.coordinator.commit("g", None, [("t", 0, 7)])
        assert remote.committed_offset("g", "t", 0) == 7
        assert remote.committed_offset("other", "t", 0) is None

    def test_server_errors_propagate(self, remote):
        with pytest.raises(RemoteBrokerError, match="UnknownTopicError"):
            remote.fetch("missing", 0, 0)

    def test_blocking_fetch_over_the_wire(self, remote, server):
        remote.create_topic("t", 1)
        results = []

        def consume():
            with RemoteBroker(server.host, server.port) as rb:
                results.extend(rb.fetch("t", 0, 0, timeout=5.0))

        t = threading.Thread(target=consume)
        t.start()
        import time

        time.sleep(0.05)
        remote.append("t", 0, b"wake")
        t.join(timeout=10)
        assert len(results) == 1

    def test_stats_roundtrip(self, remote):
        remote.create_topic("t", 1)
        remote.append("t", 0, b"abc")
        stats = remote.stats()
        assert stats["topics"]["t"]["records_in"] == 1


class TestClientsOverRemote:
    def test_producer_works_unchanged(self, remote):
        remote.create_topic("t", 2)
        producer = Producer(remote)
        md = producer.send("t", b"v", partition=1)
        assert md.partition == 1
        assert producer.records_sent == 1

    def test_block_serde_over_the_wire(self, remote):
        remote.create_topic("t", 1)
        block = np.arange(20.0).reshape(4, 5)
        Producer(remote).send("t", encode_block(block), partition=0)
        consumer = Consumer(remote)
        consumer.assign([("t", 0)])
        [record] = consumer.poll()
        decoded = decode_block(record.value)
        np.testing.assert_array_equal(decoded, block)

    def test_consumer_group_over_remote(self, server):
        # Two separate connections (as two processes would have).
        with RemoteBroker(server.host, server.port) as admin:
            admin.create_topic("t", 4)
            producer = Producer(admin)
            for i in range(8):
                producer.send("t", bytes([i]), partition=i % 4)
        with RemoteBroker(server.host, server.port) as conn1, RemoteBroker(
            server.host, server.port
        ) as conn2:
            c1 = Consumer(conn1, group_id="g")
            c1.subscribe("t")
            c2 = Consumer(conn2, group_id="g")
            c2.subscribe("t")
            seen = []
            for _ in range(8):
                seen.extend(bytes(r.value) for r in c1.poll(max_records=16))
                seen.extend(bytes(r.value) for r in c2.poll(max_records=16))
            assert sorted(seen) == [bytes([i]) for i in range(8)]
            # Rebalanced split: two partitions each.
            assert len(c1.assignment) == 2
            assert len(c2.assignment) == 2

    def test_commit_resume_over_remote(self, server):
        with RemoteBroker(server.host, server.port) as conn:
            conn.create_topic("t", 1)
            producer = Producer(conn)
            for i in range(6):
                producer.send("t", bytes([i]), partition=0)
            c1 = Consumer(conn, group_id="g")
            c1.subscribe("t")
            c1.poll(max_records=3)
            c1.commit()
            c1.close()
        with RemoteBroker(server.host, server.port) as conn:
            c2 = Consumer(conn, group_id="g")
            c2.subscribe("t")
            records = c2.poll(max_records=10)
            assert [r.offset for r in records] == [3, 4, 5]

    def test_shared_server_backed_by_real_broker(self):
        backing = Broker(name="shared")
        with BrokerServer(broker=backing) as server:
            with RemoteBroker(server.host, server.port) as remote:
                remote.create_topic("t", 1)
                remote.append("t", 0, b"x")
            # The in-process view sees the remote writes.
            assert backing.topic("t").total_appended == 1


class TestBatchedWire:
    """The batched binary-frame fast path: one round-trip per batch."""

    def test_append_many_roundtrip(self, remote):
        remote.create_topic("t", 1)
        values = [bytes([i]) * (i + 1) for i in range(8)]
        keys = [None if i % 2 else bytes([i]) for i in range(8)]
        headers = [{"i": i} for i in range(8)]
        md = remote.append_many("t", 0, values, keys=keys, headers=headers)
        assert md.base_offset == 0
        assert md.count == 8
        records = remote.fetch("t", 0, 0, max_records=16)
        assert [r.value for r in records] == values
        assert [r.key for r in records] == keys
        assert [r.headers for r in records] == headers

    def test_append_many_binary_safety(self, remote):
        remote.create_topic("t", 1)
        payload = bytes(range(256)) * 8
        remote.append_many("t", 0, [payload, payload])
        records = remote.fetch("t", 0, 0, max_records=4)
        assert [r.value for r in records] == [payload, payload]

    def test_batch_is_one_round_trip(self, server, remote):
        remote.create_topic("t", 1)
        sent_before = remote.requests_sent
        served_before = server.requests_served
        md = remote.append_many("t", 0, [b"v"] * 32)
        assert md.count == 32
        # 32 records cost exactly one request on both ends of the socket.
        assert remote.requests_sent - sent_before == 1
        assert server.requests_served - served_before == 1
        assert server.op_counts["append_batch"] == 1
        assert "append" not in server.op_counts

    def test_fetch_batch_is_one_round_trip(self, server, remote):
        remote.create_topic("t", 1)
        remote.append_many("t", 0, [b"v"] * 16)
        sent_before = remote.requests_sent
        records = remote.fetch("t", 0, 0, max_records=16)
        assert len(records) == 16
        assert remote.requests_sent - sent_before == 1
        assert server.op_counts["fetch_batch"] == 1
        assert "fetch" not in server.op_counts

    def test_producer_send_many_over_remote(self, server, remote):
        remote.create_topic("t", 2)
        producer = Producer(remote)
        served_before = server.requests_served
        md = producer.send_many("t", [b"a", b"b", b"c"], partition=1)
        assert md.partition == 1
        assert list(md.offsets) == [0, 1, 2]
        assert producer.records_sent == 3
        assert server.requests_served - served_before == 1

    def test_empty_log_fetch_batch(self, remote):
        remote.create_topic("t", 1)
        assert remote.fetch("t", 0, 0) == []

    def test_batch_larger_than_iov_max(self, remote):
        # >512 records means >1024 iovec entries; sendmsg must slice at
        # IOV_MAX instead of failing with EMSGSIZE.
        remote.create_topic("t", 1)
        md = remote.append_many("t", 0, [b"v"] * 1500)
        assert md.count == 1500
        records = remote.fetch("t", 0, 100, max_records=2000)
        assert len(records) == 1400
        assert records[0].offset == 100


@pytest.fixture
def shard_server():
    """One shard that serves the cluster ops too."""
    shard = ShardBroker(shard_index=0, num_shards=1)
    with BrokerServer(shard) as server:
        shard.set_cluster([(server.host, server.port)], epoch=1)
        yield server


@pytest.fixture
def trickle_server():
    """Reads one request, then sends its response one byte every 100 ms,
    never finishing it."""
    listener = socket.create_server(("127.0.0.1", 0))
    stop = threading.Event()

    def serve():
        conn, _ = listener.accept()
        with conn:
            recv_frame(conn)
            for byte in itertools.chain(LEN.pack(1 << 20), itertools.repeat(32)):
                if stop.wait(0.1):
                    return
                try:
                    conn.sendall(bytes([byte]))
                except OSError:
                    return

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield listener.getsockname()
    stop.set()
    thread.join(timeout=5)
    listener.close()


class TestOneSocketPerThread:
    """Each calling thread sends on its own socket and reads its own
    response: the client runs no thread of its own."""

    @pytest.mark.parametrize("kind", ["remote", "cluster"])
    def test_calls_from_three_threads_start_no_thread(self, shard_server, kind):
        before = set(threading.enumerate())
        address = (shard_server.host, shard_server.port)
        client = RemoteBroker(*address) if kind == "remote" else ClusterBroker([address])
        try:
            client.create_topic("t", 2)
            _run_threads(3, lambda: [client.latest_offset("t", p) for p in range(2)])
            assert set(threading.enumerate()) - before == set()
        finally:
            client.close()

    def test_close_wakes_a_parked_fetch(self, server, remote):
        remote.create_topic("t", 1)
        outcome = []

        def park():
            try:
                remote.fetch("t", 0, 0, timeout=5.0)
            except Exception as exc:  # noqa: BLE001
                outcome.append((exc, time.monotonic()))

        t = threading.Thread(target=park)
        t.start()
        assert _wait_until(lambda: server.broker.stats()["long_polls_parked"] >= 1)
        closed_at = time.monotonic()
        remote.close()
        t.join(timeout=5)
        [(exc, ended_at)] = outcome
        assert isinstance(exc, DisconnectedError)
        assert ended_at - closed_at < 1.0

    def test_an_exited_threads_socket_closes(self, remote):
        socks = []

        def call():
            remote.list_topics()
            socks.append(remote._local.conn.sock)

        _run_threads(1, call)
        [sock] = socks
        assert _wait_until(lambda: sock.fileno() == -1)
        assert len(remote._conns) == 1  # the constructing thread's own

    def test_requests_sent_is_exact_across_threads(self, remote):
        before = remote.requests_sent
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a lost += shows
        try:
            _run_threads(8, lambda: [remote.list_topics() for _ in range(50)])
        finally:
            sys.setswitchinterval(interval)
        assert remote.requests_sent - before == 400

    def test_one_deadline_covers_a_trickled_response(self, trickle_server):
        op_timeout = 0.5
        rb = RemoteBroker(*trickle_server, op_timeout=op_timeout, max_attempts=1)
        try:
            start = time.monotonic()
            with pytest.raises(BrokerTimeoutError):
                rb.list_topics()
            assert time.monotonic() - start < op_timeout + 1.0
        finally:
            rb.close()
