"""Connection-scale stress test: 1k+ concurrent clients on one reactor.

The point of the reactor rewrite is that connection count stops being a
thread count: 1000 clients — idle, long-polling, and pipeline-producing
at once — must be served by O(num_workers) threads with flat (bounded,
per-connection) memory, and every request must get an answer.
"""

import resource
import socket
import threading
import time
import tracemalloc

import pytest

from repro.broker.reactor import ReactorBrokerServer
from repro.broker.wire import encode_frame, recv_frame, sendall_vectored

TARGET_CLIENTS = 1000
N_PRODUCERS = 100
N_LONG_POLLERS = 300
APPENDS_PER_PRODUCER = 5
PER_CONN_MEMORY_BOUND = 32 * 1024  # bytes of Python heap per idle conn


def _ensure_fds(needed: int) -> bool:
    """Raise RLIMIT_NOFILE to *needed* if possible; True on success."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= needed:
        return True
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))
    except (ValueError, OSError):
        return False
    return resource.getrlimit(resource.RLIMIT_NOFILE)[0] >= needed


def _wait_until(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def test_1k_concurrent_clients_on_one_reactor():
    # Both socket ends live in this process: ~2 fds per client + slack.
    if not _ensure_fds(2 * TARGET_CLIENTS + 256):
        pytest.skip("cannot raise RLIMIT_NOFILE high enough for 1k clients")

    server = ReactorBrokerServer(num_workers=4).start()
    server.broker.create_topic("lp", 1)
    server.broker.create_topic("prod", 1)
    socks: list[socket.socket] = []
    try:
        baseline_threads = threading.active_count()

        def connect() -> socket.socket:
            sock = socket.create_connection((server.host, server.port), timeout=30)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(30)
            socks.append(sock)
            return sock

        producers = [connect() for _ in range(N_PRODUCERS)]
        pollers = [connect() for _ in range(N_LONG_POLLERS)]

        # Idle connections under tracemalloc: per-connection memory must
        # be flat — a bounded decoder + buffers, no thread stack.
        n_idle = TARGET_CLIENTS - N_PRODUCERS - N_LONG_POLLERS
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(n_idle):
            connect()
        assert _wait_until(lambda: server.connections_active == TARGET_CLIENTS)
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert (after - before) / n_idle < PER_CONN_MEMORY_BOUND

        # Park every long-poller on one wire request each.
        for sock in pollers:
            sendall_vectored(sock, encode_frame(
                {"op": "fetch_batch", "topic": "lp", "partition": 0, "offset": 0,
                 "timeout": 60.0, "cid": 0},
            ))
        assert _wait_until(lambda: server.parked_fetches == N_LONG_POLLERS)

        # O(1) threads: 1000 connections and 300 parked long-polls added
        # not a single thread beyond the reactor + worker pool.
        assert threading.active_count() == baseline_threads

        # Pipelined producers: several in-flight appends per connection.
        for i, sock in enumerate(producers):
            for j in range(APPENDS_PER_PRODUCER):
                sendall_vectored(sock, encode_frame(
                    {"op": "append_batch", "topic": "prod", "partition": 0, "cid": j},
                    [b"m%d-%d" % (i, j)],
                ))
        for sock in producers:
            cids = set()
            for _ in range(APPENDS_PER_PRODUCER):
                response, _ = recv_frame(sock)
                assert response["ok"]
                cids.add(response["cid"])
            assert cids == set(range(APPENDS_PER_PRODUCER))

        # One append wakes all 300 parked fetches; each gets the record.
        server.broker.append("lp", 0, b"wake")
        for sock in pollers:
            response, _ = recv_frame(sock)
            assert response["ok"] and response["cid"] == 0
            assert len(response["result"]) == 1
        assert server.parked_fetches == 0

        # Every request got an answer, and it is reflected in the counts.
        expected = N_PRODUCERS * APPENDS_PER_PRODUCER + N_LONG_POLLERS
        assert server.requests_served == expected
        assert server.connections_served == TARGET_CLIENTS
        assert server.connections_active == TARGET_CLIENTS
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
        server.stop()
