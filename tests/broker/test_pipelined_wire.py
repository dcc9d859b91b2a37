"""Tests for the wire client under concurrency (one socket per calling
thread, correlation ids, broker-side long-poll fetch, deadline
accounting)."""

import threading
import time

import pytest

from repro.broker import Broker
from repro.broker.errors import BrokerTimeoutError
from repro.broker.remote import BrokerServer, RemoteBroker
from repro.netem import Link, LinkProfile


@pytest.fixture
def server():
    with BrokerServer() as srv:
        yield srv


@pytest.fixture
def remote(server):
    with RemoteBroker(server.host, server.port) as rb:
        yield rb


class TestPipelining:
    def test_concurrent_requests_correlate_correctly(self, server, remote):
        """Many threads on ONE client each get their own answer back."""
        remote.create_topic("t", 8)
        for p in range(8):
            remote.append_many("t", p, [bytes([p])] * 4)
        results: dict[int, list] = {}

        def fetch(p):
            results[p] = remote.fetch("t", p, 0, max_records=8)

        threads = [threading.Thread(target=fetch, args=(p,)) for p in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        for p in range(8):
            assert [r.value for r in results[p]] == [bytes([p])] * 4

    def test_parked_fetch_does_not_block_append_on_same_connection(self, remote):
        """The head-of-line test: one client, a long-poll fetch parked
        server-side, and the append that satisfies it sent through the
        SAME client from another thread. If the append queued behind the
        fetch this would deadlock until the fetch times out."""
        remote.create_topic("t", 1)
        out = []
        t = threading.Thread(
            target=lambda: out.extend(remote.fetch("t", 0, 0, timeout=5.0))
        )
        t.start()
        time.sleep(0.1)  # let the fetch park on the broker
        remote.append_many("t", 0, [b"wake"])
        t.join(timeout=5)
        assert not t.is_alive()
        assert [r.value for r in out] == [b"wake"]

    def test_non_idempotent_appends_serialize_without_deadlock(self, remote):
        """Plain appends (no producer id) from many threads at once must
        all land, each exactly once."""
        remote.create_topic("t", 1)
        errors = []

        def append(i):
            try:
                remote.append("t", 0, bytes([i]))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=append, args=(i,)) for i in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        assert remote.latest_offset("t", 0) == 10
        records = remote.fetch("t", 0, 0, max_records=20)
        assert sorted(bytes(r.value) for r in records) == [bytes([i]) for i in range(10)]

    def test_concurrent_fetches_overlap_link_rtt(self, server):
        """Requests from several threads pay their emulated RTTs
        concurrently: four fetches over a ~200 ms link finish well under
        the 0.8 s a serial client would need."""
        profile = LinkProfile("fixed-rtt", 200.0, 200.0, 10_000.0, 10_000.0)
        with RemoteBroker(
            server.host, server.port, link=Link(profile, time_scale=1.0)
        ) as rb:
            rb.link = None  # admin ops below at full speed
            rb.create_topic("t", 4)
            for p in range(4):
                rb.append_many("t", p, [b"x"] * 2)
            rb.link = Link(profile, time_scale=1.0)
            start = time.monotonic()
            threads = [
                threading.Thread(target=rb.fetch, args=("t", p, 0)) for p in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            elapsed = time.monotonic() - start
            assert rb.link.rtt_delays == 4
            assert elapsed < 0.6  # serial would be >= 0.8


class TestLongPollFetch:
    def test_long_poll_parks_server_side_in_one_request(self, server, remote):
        """A blocking fetch is ONE wire request that parks on the broker —
        not a client-side poll loop re-sending requests."""
        remote.create_topic("t", 1)
        sent_before = remote.requests_sent
        out = []
        t = threading.Thread(
            target=lambda: out.extend(remote.fetch("t", 0, 0, timeout=5.0))
        )
        t.start()
        time.sleep(0.15)
        assert server.broker.stats()["long_polls_parked"] >= 1
        remote.append_many("t", 0, [b"v"])
        t.join(timeout=5)
        assert len(out) == 1
        # One fetch_batch + one append_batch, plus the follow-on the
        # answered fetch sent for the next batch; no re-poll traffic.
        assert remote.requests_sent - sent_before == 3

    def test_min_bytes_holds_fetch_until_enough_data(self):
        broker = Broker()
        broker.create_topic("t", 1)
        broker.append("t", 0, b"a")  # 1 byte available, threshold is 100

        def feed():
            time.sleep(0.1)
            broker.append("t", 0, b"b" * 200)

        threading.Thread(target=feed).start()
        start = time.monotonic()
        records = broker.fetch("t", 0, 0, timeout=5.0, min_bytes=100)
        elapsed = time.monotonic() - start
        assert len(records) == 2  # returned only once the big record landed
        assert elapsed >= 0.05

    def test_min_bytes_deadline_returns_partial(self):
        broker = Broker()
        broker.create_topic("t", 1)
        broker.append("t", 0, b"a")
        start = time.monotonic()
        records = broker.fetch("t", 0, 0, timeout=0.15, min_bytes=10_000)
        assert time.monotonic() - start >= 0.14
        assert [r.value for r in records] == [b"a"]  # best effort at deadline

    def test_full_batch_satisfies_min_bytes_early(self):
        broker = Broker()
        broker.create_topic("t", 1)
        for _ in range(4):
            broker.append("t", 0, b"x")
        start = time.monotonic()
        records = broker.fetch("t", 0, 0, max_records=4, timeout=2.0, min_bytes=10_000)
        assert len(records) == 4
        assert time.monotonic() - start < 1.0  # full batch returns immediately

    def test_min_bytes_travels_the_wire(self, server, remote):
        remote.create_topic("t", 1)
        remote.append_many("t", 0, [b"small"])

        def feed():
            time.sleep(0.1)
            with RemoteBroker(server.host, server.port) as rb:
                rb.append_many("t", 0, [b"y" * 500])

        threading.Thread(target=feed).start()
        records = remote.fetch("t", 0, 0, timeout=5.0, min_bytes=100)
        assert len(records) == 2


class TestDeadlineAccounting:
    def test_long_poll_longer_than_op_timeout_is_not_misdiagnosed(self, server):
        """A parked fetch waiting out its max_wait on an idle topic must
        return empty — not be declared a dead server — even when the wait
        exceeds op_timeout, and even with netem RTT on the link."""
        profile = LinkProfile("slow", 30.0, 30.0, 1_000.0, 1_000.0)
        with RemoteBroker(
            server.host,
            server.port,
            op_timeout=0.1,
            max_attempts=1,
            link=Link(profile, time_scale=1.0),
        ) as rb:
            rb.create_topic("t", 1)
            start = time.monotonic()
            records = rb.fetch("t", 0, 0, timeout=0.4)
            elapsed = time.monotonic() - start
            assert records == []
            assert rb.reconnects == 0
            assert elapsed >= 0.4  # genuinely parked the full wait

    def test_silent_server_still_times_out(self):
        """Deadline slack must not mask a truly dead server: a socket that
        accepts but never responds raises BrokerTimeoutError promptly."""
        import socket as socketlib

        sink = socketlib.socket()
        sink.bind(("127.0.0.1", 0))
        sink.listen(1)
        host, port = sink.getsockname()
        try:
            rb = RemoteBroker(host, port, op_timeout=0.2, max_attempts=1)
            start = time.monotonic()
            with pytest.raises(BrokerTimeoutError):
                rb.list_topics()
            assert time.monotonic() - start < 5.0
            rb.close()
        finally:
            sink.close()
