"""The heartbeat's follow-on: a consumer hears about its group instead of
asking on every poll.

Over the wire an answered heartbeat is followed at once by one naming
the generation it returned, and the coordinator parks that until the
generation moves, the member leaves or is evicted, the shard stops
coordinating the group, or its park runs out. A poll that finds it still
parked sends nothing; one that finds it answered reads the answer and
sends the next.
"""

import select
import socket
import time

import pytest

import repro.broker.metadata as metadata
from repro.broker import (
    Broker,
    BrokerServer,
    ClusterBroker,
    Consumer,
    Producer,
    RemoteBroker,
    ShardBroker,
    coordinator_shard,
)


def _wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _follow_on(client):
    """The calling thread's heartbeat follow-on connection on *client*."""
    return client._local.group_heartbeat


def _heard_from_the_coordinator(client, timeout=5.0):
    """Whether the answer to the calling thread's parked heartbeat on
    *client* arrives (is readable on its socket) within *timeout*."""
    return bool(select.select([_follow_on(client).sock], [], [], timeout)[0])


@pytest.fixture
def broker():
    b = Broker()
    b.create_topic("t", 4)
    return b


@pytest.fixture
def server(broker):
    with BrokerServer(broker) as srv:
        yield srv


@pytest.fixture
def cluster():
    """Two in-process shards behind their own servers, and their map."""
    shards = [ShardBroker(shard_index=i, num_shards=2) for i in range(2)]
    servers = [BrokerServer(shard).start() for shard in shards]
    addresses = [(s.host, s.port) for s in servers]
    for shard in shards:
        shard.set_cluster(addresses, epoch=1)
        shard.create_topic("t", 4)
    try:
        yield shards, servers, addresses
    finally:
        for s in servers:
            s.stop()


class TestSteadyGroup:
    def test_polls_after_the_first_send_no_heartbeat_to_a_cluster(self, cluster):
        shards, servers, addresses = cluster
        home = servers[coordinator_shard("g", 2)]
        with ClusterBroker(addresses) as client:
            Producer(client).send("t", b"x", partition=0)
            consumer = Consumer(client, group_id="g")
            consumer.subscribe("t")
            assert [bytes(r.value) for r in consumer.poll(timeout=0.0)] == [b"x"]
            assert _wait_until(lambda: home.parked_fetches == 1)
            before = [s.op_counts.get("group_heartbeat", 0) for s in servers]
            assert before[coordinator_shard("g", 2)] == 2  # answered + its follow-on
            for _ in range(10):
                assert consumer.poll(timeout=0.0) == []
            after = [s.op_counts.get("group_heartbeat", 0) for s in servers]
            assert after == before
            assert consumer.heartbeats_sent == 11
            assert home.parked_fetches == 1


class TestRebalanceVisibility:
    def test_a_join_and_a_leave_are_seen_by_the_first_poll_after_the_answer(self, server):
        with RemoteBroker(server.host, server.port) as rb1, RemoteBroker(
            server.host, server.port
        ) as rb2:
            incumbent = Consumer(rb1, group_id="g", client_id="a")
            incumbent.subscribe("t")
            incumbent.poll(timeout=0.0)
            assert _wait_until(lambda: server.parked_fetches == 1)
            assert len(incumbent.assignment) == 4

            other = Consumer(rb2, group_id="g", client_id="b")
            other.subscribe("t")  # the join answers the parked heartbeat
            assert _heard_from_the_coordinator(rb1)
            incumbent.poll(timeout=0.0)
            assert len(incumbent.assignment) == 2
            assert incumbent.rebalances == 1

            assert _wait_until(lambda: server.parked_fetches == 1)
            other.close()  # so does the leave
            assert _heard_from_the_coordinator(rb1)
            incumbent.poll(timeout=0.0)
            assert len(incumbent.assignment) == 4
            assert incumbent.rebalances == 2
            incumbent.close()


class TestLease:
    def test_a_parked_heartbeat_is_answered_within_a_third_of_the_session(self, server):
        with RemoteBroker(server.host, server.port) as rb:
            consumer = Consumer(rb, group_id="g", session_timeout_ms=600.0)
            consumer.subscribe("t")
            consumer.poll(timeout=0.0)
            sent_at = _follow_on(rb).sent_at
            assert _heard_from_the_coordinator(rb)
            assert time.monotonic() - sent_at < 0.6  # 0.2 s plus scheduling

    def test_a_consumer_polling_within_its_session_timeout_is_never_evicted(
        self, broker, server
    ):
        with RemoteBroker(server.host, server.port) as rb:
            consumer = Consumer(rb, group_id="g", session_timeout_ms=300.0)
            consumer.subscribe("t")
            end = time.monotonic() + 1.5  # five session timeouts
            polls = 0
            while time.monotonic() < end:
                # An empty partition: each poll waits 0.25 s server-side.
                consumer.poll(timeout=0.25)
                polls += 1
            assert polls >= 4
            assert consumer.evictions == 0
            assert broker.coordinator.members_evicted == 0
            assert broker.coordinator.members("g") == [consumer.client_id]
            # The follow-ons parked and were answered at their deadline
            # in between: more than the first poll's heartbeat went out.
            assert server.op_counts["group_heartbeat"] > 2


class TestAnUnansweredFollowOn:
    def test_is_asked_again_once_past_its_park_plus_slack(self, broker, server, monkeypatch):
        """A coordinator that holds the follow-on past the park it was
        asked for (as a hung one would) does not hold the consumer: once
        the park plus ``_LONG_POLL_SLACK_S`` has passed, the next poll
        drops it and heartbeats synchronously."""
        watch = broker.coordinator.watch
        monkeypatch.setattr(
            broker.coordinator, "watch",
            lambda group, member, generation, seconds: watch(group, member, generation, 60.0),
        )
        with RemoteBroker(server.host, server.port, op_timeout=0.2) as rb:
            consumer = Consumer(rb, group_id="g")
            consumer.subscribe("t")
            consumer.poll(timeout=0.0)
            assert _wait_until(lambda: server.parked_fetches == 1)
            stale = _follow_on(rb)
            consumer.poll(timeout=0.0)  # inside its park: nothing is sent
            assert server.op_counts["group_heartbeat"] == 2
            assert _wait_until(lambda: time.monotonic() > stale.due)
            consumer.poll(timeout=0.0)
            # Dropped (its socket closed, so the server let it go) and
            # asked again: one heartbeat and its own follow-on.
            assert stale.sock.fileno() == -1
            assert _wait_until(lambda: server.op_counts["group_heartbeat"] == 4)
            assert _wait_until(lambda: server.parked_fetches == 1)


class TestTeardown:
    def test_closing_the_consumer_drops_its_parked_heartbeat(self, broker, server):
        with RemoteBroker(server.host, server.port) as rb:
            consumer = Consumer(rb, group_id="g")
            consumer.subscribe("t")
            consumer.poll(timeout=0.0)
            assert _wait_until(lambda: server.parked_fetches == 1)
            consumer.close()  # its leave answers the parked heartbeat
            assert _wait_until(lambda: server.parked_fetches == 0, timeout=2.0)
            assert server._parked == {} and server._wakers == {}
            assert broker.coordinator._waiters["g"] == []

    def test_closing_the_client_drops_its_parked_heartbeat(self, broker, server):
        rb = RemoteBroker(server.host, server.port)
        consumer = Consumer(rb, group_id="g")
        consumer.subscribe("t")
        consumer.poll(timeout=0.0)
        assert _wait_until(lambda: server.parked_fetches == 1)
        rb.close()  # no leave: the server drops what the sockets had parked
        assert _wait_until(lambda: server.parked_fetches == 0, timeout=2.0)
        assert server._parked == {} and server._wakers == {}
        assert broker.coordinator._waiters["g"] == []


class TestTheCoordinatorMoves:
    def test_the_old_shard_answers_not_owner_and_the_next_poll_reroutes(
        self, cluster, monkeypatch
    ):
        shards, servers, addresses = cluster
        old = coordinator_shard("g", 2)
        new = 1 - old
        with ClusterBroker(addresses) as client:
            Producer(client).send("t", b"x", partition=0)
            consumer = Consumer(client, group_id="g")
            consumer.subscribe("t")
            assert len(consumer.poll(timeout=0.0)) == 1
            assert _wait_until(lambda: servers[old].parked_fetches == 1)

            # The rule both the shards and the client route by now names
            # the other shard for this group; the shards get a new map.
            rule = metadata.coordinator_shard
            monkeypatch.setattr(
                metadata, "coordinator_shard",
                lambda group, n: new if group == "g" else rule(group, n),
            )
            for shard in shards:
                shard.set_cluster(addresses, epoch=2)
            assert _wait_until(lambda: servers[old].parked_fetches == 0, timeout=2.0)
            sock = _follow_on(client._remote(addresses[old])).sock
            assert b"NotOwnerError" in sock.recv(4096, socket.MSG_PEEK)

            # The next poll asks the new coordinator, which does not know
            # the member: it re-joins there, and polling goes on (from the
            # earliest offsets: the old shard kept the group's commits).
            assert consumer.poll(timeout=0.0) == []
            assert consumer.evictions == 1
            assert shards[new].coordinator.members("g") == [consumer.client_id]
            Producer(client).send("t", b"y", partition=1)
            got = set()

            def read_y():
                got.update(bytes(r.value) for r in consumer.poll(timeout=0.0))
                return b"y" in got

            assert _wait_until(read_y)
            assert _wait_until(lambda: servers[new].parked_fetches == 1)
