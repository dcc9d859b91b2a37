"""The fetch-ahead contract: a long-poll fetch answered with records sends
its follow-on before it returns, and the calling thread's next fetch of
exactly that position reads the follow-on's answer."""

import random
import socket
import statistics
import threading
import time

import pytest

from repro.broker import (
    ClusterBroker,
    ClusterBrokerSupervisor,
    Consumer,
    DisconnectedError,
    Producer,
)
from repro.broker.ops import OPS
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


def _filled(remote, n, partitions=1):
    remote.create_topic("t", partitions)
    for p in range(partitions):
        remote.append_many("t", p, [f"{p}:{i}".encode() for i in range(n)])


def _ahead(client):
    """The calling thread's outstanding follow-on on *client*, if any."""
    conn = getattr(client._local, "ahead", None)
    return None if conn is None else conn.ahead


def _wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _Recorder:
    """A proxy that notes every batch a ``fetch`` call returns."""

    def __init__(self, target):
        self._target = target
        self.batches = []

    def fetch(self, *args, **kwargs):
        batch = self._target.fetch(*args, **kwargs)
        self.batches.append(list(batch))
        return batch

    def __getattr__(self, name):
        return getattr(self._target, name)


class TestTheTable:
    def test_exactly_the_fetch_fetches_ahead(self):
        assert {op.name for op in OPS.values() if op.ahead} == {"fetch_batch"}

    def test_a_follow_on_starts_where_the_records_end(self):
        fetch = OPS["fetch_batch"]
        frame = {"topic": "t", "partition": 1, "offset": 5, "max_records": 8,
                 "timeout": 0.2, "min_bytes": 1}
        answered = [{"offset": 5}, {"offset": 6}]
        assert fetch.follow_on(frame, answered) == {**frame, "offset": 7}
        assert fetch.follow_on(frame, []) is None  # nothing came back
        assert fetch.follow_on({**frame, "timeout": 0.0}, answered) is None  # cannot park


class TestDelivery:
    def test_a_follow_on_answers_the_next_poll_in_one_request(self, remote):
        _filled(remote, 12)
        consumer = Consumer(remote)
        consumer.assign([("t", 0)])
        first = consumer.poll(max_records=4, timeout=0.5)
        assert _ahead(remote)["offset"] == 4
        sent = remote.requests_sent
        second = consumer.poll(max_records=4, timeout=0.5)
        # The follow-on answered it; the one request is the next follow-on.
        assert remote.requests_sent - sent == 1
        assert [r.offset for r in first + second] == list(range(8))
        assert _ahead(remote)["offset"] == 8

    def test_every_delivered_batch_comes_back_from_a_fetch_call(self, remote):
        _filled(remote, 30)
        proxy = _Recorder(remote)
        consumer = Consumer(proxy)
        consumer.assign([("t", 0)])
        delivered = []
        while len(delivered) < 30:
            delivered.extend(consumer.poll(max_records=4, timeout=0.5))
        fetched = [r for batch in proxy.batches for r in batch]
        assert [r.offset for r in fetched] == [r.offset for r in delivered]
        assert [r.offset for r in delivered] == list(range(30))

    def test_a_consumer_loop_over_a_replicated_cluster_is_gap_free(self):
        n = 120
        with ClusterBrokerSupervisor(
            num_shards=2, replication_factor=2, topics=[("t", 2)]
        ) as supervisor:
            got = {0: [], 1: []}
            errors = []

            def consume(partition):
                try:
                    with ClusterBroker(supervisor.bootstrap) as client:
                        consumer = Consumer(client)
                        consumer.assign([("t", partition)])
                        deadline = time.monotonic() + 30
                        while len(got[partition]) < n and time.monotonic() < deadline:
                            got[partition].extend(consumer.poll(max_records=8, timeout=0.2))
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=consume, args=(p,)) for p in (0, 1)]
            for t in threads:
                t.start()
            with ClusterBroker(supervisor.bootstrap) as client:
                producer = Producer(client)
                for i in range(0, n, 4):
                    for p in (0, 1):
                        producer.send_many(
                            "t", [f"{p}:{j}".encode() for j in range(i, i + 4)], partition=p
                        )
                    time.sleep(0.002)
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors
            for p in (0, 1):
                assert [r.offset for r in got[p]] == list(range(n))
                assert [bytes(r.value) for r in got[p]] == [f"{p}:{j}".encode() for j in range(n)]


class TestWhatDropsAFollowOn:
    def test_a_seek_drops_it_undelivered(self, remote):
        _filled(remote, 12)
        consumer = Consumer(remote)
        consumer.assign([("t", 0)])
        consumer.poll(max_records=4, timeout=0.5)
        sock = remote._local.ahead.sock
        consumer.seek("t", 0, 1)
        again = consumer.poll(max_records=4, timeout=0.5)
        assert [r.offset for r in again] == [1, 2, 3, 4]
        assert sock.fileno() == -1  # the follow-on for offset 4 went with its socket
        assert _ahead(remote)["offset"] == 5

    def test_a_rebalance_drops_it_undelivered(self, server):
        with RemoteBroker(server.host, server.port) as admin:
            _filled(admin, 12)
        with RemoteBroker(server.host, server.port) as rb1, RemoteBroker(
            server.host, server.port
        ) as rb2:
            # The range assignor hands the one partition to the first
            # member id in sort order: "a" takes it from "b" while it is in.
            c1 = Consumer(rb1, group_id="g", client_id="b")
            c1.subscribe("t")
            first = c1.poll(max_records=4, timeout=0.5)
            assert [r.offset for r in first] == [0, 1, 2, 3]
            sock = rb1._local.ahead.sock
            c2 = Consumer(rb2, group_id="g", client_id="a")
            c2.subscribe("t")
            assert c1.poll(max_records=4, timeout=0.2) == []  # revoked
            c2.close()
            # Back from the committed offset (none: earliest), not from 4.
            again = c1.poll(max_records=4, timeout=0.5)
            assert [r.offset for r in again] == [0, 1, 2, 3]
            assert sock.fileno() == -1
            c1.close()

    def test_a_killed_socket_drops_it_and_the_fetch_asks_again(self, remote):
        _filled(remote, 12)
        consumer = Consumer(remote)
        consumer.assign([("t", 0)])
        consumer.poll(max_records=4, timeout=0.5)
        remote._local.ahead.sock.shutdown(socket.SHUT_RDWR)
        again = consumer.poll(max_records=4, timeout=0.5)
        assert [r.offset for r in again] == [4, 5, 6, 7]
        assert remote.reconnects == 0  # not a retry: an ordinary fetch

    def test_close_drops_it_and_a_poll_raises_disconnected(self, server):
        rb = RemoteBroker(server.host, server.port)
        _filled(rb, 12)
        consumer = Consumer(rb)
        consumer.assign([("t", 0)])
        consumer.poll(max_records=4, timeout=0.5)
        assert _ahead(rb) is not None
        rb.close()
        with pytest.raises(DisconnectedError):
            consumer.poll(max_records=4, timeout=0.5)

    def test_close_wakes_a_thread_waiting_on_a_parked_follow_on(self, server):
        rb = RemoteBroker(server.host, server.port)
        _filled(rb, 4)
        outcome = []

        def consume():
            consumer = Consumer(rb)
            consumer.assign([("t", 0)])
            consumer.poll(max_records=4, timeout=5.0)  # its follow-on parks
            try:
                consumer.poll(max_records=4, timeout=5.0)
            except Exception as exc:  # noqa: BLE001 - checked below
                outcome.append((exc, time.monotonic()))

        t = threading.Thread(target=consume)
        t.start()
        assert _wait_until(lambda: server.broker.stats()["long_polls_parked"] >= 1)
        time.sleep(0.05)  # let the thread reach its wait
        closed_at = time.monotonic()
        rb.close()
        t.join(timeout=5)
        [(exc, ended_at)] = outcome
        assert isinstance(exc, DisconnectedError)
        assert ended_at - closed_at < 1.0


class TestTheWaitContract:
    def test_an_idle_partition_still_blocks_for_the_poll_timeout(self, remote):
        _filled(remote, 4)
        consumer = Consumer(remote)
        consumer.assign([("t", 0)])
        assert len(consumer.poll(max_records=4, timeout=0.3)) == 4  # a follow-on parks
        for _ in range(2):  # on the follow-on's wait, then on a plain fetch's
            start = time.monotonic()
            assert consumer.poll(max_records=4, timeout=0.3) == []
            assert 0.28 <= time.monotonic() - start < 0.6

    def test_a_poll_without_a_wait_does_not_wait_on_a_parked_follow_on(self, remote):
        _filled(remote, 4)
        consumer = Consumer(remote)
        consumer.assign([("t", 0)])
        consumer.poll(max_records=4, timeout=5.0)
        sent = remote.requests_sent
        start = time.monotonic()
        assert consumer.poll(max_records=4) == []
        assert time.monotonic() - start < 0.2
        assert remote.requests_sent == sent  # the parked follow-on stands for it
        remote.append_many("t", 0, [b"late"])
        assert [bytes(r.value) for r in consumer.poll(max_records=4, timeout=5.0)] == [b"late"]

    def test_several_partitions_cost_no_more_requests_per_record(self, server, monkeypatch):
        """Against the same loop with fetching ahead switched off. The
        records trickle in at seeded random gaps and partitions: a fixed
        beat phase-locks with the consumer's rotation and makes either
        count bimodal."""

        def requests_per_record(topic):
            with RemoteBroker(server.host, server.port) as rb:
                rb.create_topic(topic, 3)
                consumer = Consumer(rb)
                consumer.assign([(topic, p) for p in range(3)])
                stop = threading.Event()

                def trickle():
                    rng = random.Random(7)
                    with RemoteBroker(server.host, server.port) as producer:
                        while not stop.wait(rng.uniform(0.002, 0.018)):
                            producer.append_many(topic, rng.randrange(3), [b"x"])

                feeder = threading.Thread(target=trickle)
                feeder.start()
                delivered = 0
                sent = rb.requests_sent
                try:
                    while delivered < 90:
                        delivered += len(consumer.poll(max_records=8, timeout=0.2))
                finally:
                    stop.set()
                    feeder.join(timeout=5)
                return (rb.requests_sent - sent) / delivered

        ahead = requests_per_record("with")
        monkeypatch.setattr(OPS["fetch_batch"], "ahead", False)
        plain = requests_per_record("without")
        assert ahead <= plain, (ahead, plain)


class TestNetem:
    def test_a_follow_ons_round_trip_runs_while_the_caller_works(self, server):
        """A 24 ms link and 5 ms of processing per batch: the caller waits
        about 19 ms per batch, not the whole round trip after it."""
        profile = LinkProfile("fixed-24ms", 24.0, 24.0, 100_000.0, 100_000.0)
        with RemoteBroker(server.host, server.port) as rb:
            _filled(rb, 40)
            rb.link = Link(profile, time_scale=1.0)
            waits = []
            offset = 0
            while offset < 40:
                start = time.monotonic()
                batch = rb.fetch("t", 0, offset, max_records=4, timeout=1.0)
                waits.append(time.monotonic() - start)
                offset = batch[-1].offset + 1
                time.sleep(0.005)  # processing
        assert waits[0] >= 0.024  # an ordinary fetch pays the whole trip
        median = statistics.median(waits[1:])
        assert 0.014 <= median < 0.022, waits
