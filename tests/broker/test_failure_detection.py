"""Session-timeout failure detection: heartbeats, eviction, rebalance.

Every lease runs on a stepped clock: each test installs a
``GroupCoordinator(now=clock)`` on its broker, and the consumer itself
reads no clock for membership.
"""

import time

import pytest

import repro.broker.consumer as consumer_module
from repro.broker import (
    Broker,
    BrokerServer,
    ClusterBroker,
    Consumer,
    GroupCoordinator,
    Producer,
    RebalanceInProgressError,
    RemoteBroker,
    ShardBroker,
    UnknownMemberError,
    coordinator_shard,
)


class _Clock:
    """A clock that moves only when the test says so."""

    def __init__(self) -> None:
        self.t = 1000.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


@pytest.fixture
def clock():
    return _Clock()


@pytest.fixture
def broker(clock):
    b = Broker()
    b.create_topic("t", 4)
    b._coordinator = GroupCoordinator(b, now=clock)
    return b


@pytest.fixture
def coord(broker):
    return broker.coordinator


class TestCoordinatorHeartbeats:
    def test_heartbeat_refreshes_lease(self, coord, clock):
        coord.join("g", "m1", ["t"], session_timeout_ms=50.0)
        for _ in range(3):
            clock.advance(0.03)
            coord.heartbeat("g", "m1")
        assert coord.members("g") == ["m1"]

    def test_silent_member_is_evicted(self, coord, clock):
        coord.join("g", "m1", ["t"], session_timeout_ms=30.0)
        generation = coord.join("g", "m2", ["t"], session_timeout_ms=30.0)
        # m2 heartbeats inside every window; m1 goes silent.
        for _ in range(4):
            clock.advance(0.015)
            coord.heartbeat("g", "m2")
        assert coord.members("g") == ["m2"]
        assert coord.heartbeat("g", "m2") > generation
        assert coord.members_evicted == 1
        # The survivor inherits every partition.
        _, assignment = coord.assignment("g", "m2")
        assert len(assignment) == 4

    def test_evicted_member_heartbeat_raises(self, coord, clock):
        coord.join("g", "m1", ["t"], session_timeout_ms=20.0)
        clock.advance(0.05)
        with pytest.raises(UnknownMemberError):
            coord.heartbeat("g", "m1")

    def test_unknown_group_heartbeat_raises(self, coord):
        with pytest.raises(UnknownMemberError):
            coord.heartbeat("nope", "m1")

    def test_zero_timeout_never_evicts(self, coord, clock):
        coord.join("g", "m1", ["t"])  # coordinator default is 0 = disabled
        clock.advance(0.05)
        assert coord.sweep() == []
        assert coord.members("g") == ["m1"]

    def test_generations_stay_monotonic_across_group_destruction(self, coord):
        coord.join("g", "m1", ["t"])
        peak = coord.join("g", "m2", ["t"])
        coord.leave("g", "m1")
        coord.leave("g", "m2")  # last leave destroys the group
        assert coord.group_ids() == []
        rejoined = coord.join("g", "m3", ["t"])
        assert rejoined > peak

    def test_all_members_expiring_bumps_epoch(self, coord, clock):
        generation = coord.join("g", "m1", ["t"], session_timeout_ms=20.0)
        clock.advance(0.05)
        assert coord.sweep("g") == ["m1"]
        assert coord.join("g", "m2", ["t"]) > generation




class _NoClock:
    """Stands in for the consumer module's ``time``: any clock read fails."""

    def __getattr__(self, name):
        raise AssertionError(f"the consumer read time.{name}")


class TestConsumerHeartbeats:
    def test_one_heartbeat_per_group_poll(self, broker, clock):
        consumer = Consumer(broker, group_id="g", session_timeout_ms=500.0)
        consumer.subscribe("t")
        for _ in range(5):
            clock.advance(0.3)  # each poll lands inside the lease
            consumer.poll(timeout=0.0)
        assert consumer.heartbeats_sent == 5
        # Kept alive the whole time by its polls' heartbeats.
        assert broker.coordinator.members("g") == [consumer.client_id]
        assert consumer.evictions == 0

    def test_a_poll_asks_the_coordinator_once(self, broker):
        def sent_since(before):
            return {
                op: n - before.get(op, 0)
                for op, n in server.op_counts.items()
                if n != before.get(op, 0)
            }

        with BrokerServer(broker) as server, RemoteBroker(server.host, server.port) as remote:
            consumer = Consumer(remote, group_id="g")
            consumer.subscribe("t")
            before = dict(server.op_counts)
            consumer.poll(timeout=0.0)
            # The answered heartbeat and its follow-on, which the
            # coordinator parks; the rest are the four partitions' fetches.
            deadline = time.monotonic() + 5.0
            while server.parked_fetches != 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert sent_since(before) == {"group_heartbeat": 2, "fetch_batch": 4}
            before = dict(server.op_counts)
            for _ in range(3):
                consumer.poll(timeout=0.0)
            # The parked follow-on stands for each later poll's heartbeat.
            assert sent_since(before) == {"fetch_batch": 12}
            assert consumer.heartbeats_sent == 4

    def test_the_heartbeat_answer_carries_the_rebalance(self, broker):
        first = Consumer(broker, group_id="g")
        first.subscribe("t")
        assert len(first.assignment) == 4
        second = Consumer(broker, group_id="g")
        second.subscribe("t")
        first.poll(timeout=0.0)  # the very next poll sees the new generation
        assert len(first.assignment) == 2
        assert first.rebalances == 1
        assert sorted(first.assignment + second.assignment) == [("t", p) for p in range(4)]

    def test_membership_reads_no_clock(self, broker, clock, monkeypatch):
        Producer(broker).send("t", b"x", partition=0)
        monkeypatch.setattr(consumer_module, "time", _NoClock())
        consumer = Consumer(broker, group_id="g", session_timeout_ms=40.0)
        consumer.subscribe("t")
        assert [r.value for r in consumer.poll(timeout=0.0)] == [b"x"]
        clock.advance(0.1)
        assert consumer.poll(timeout=0.0) == []  # evicted: re-joins
        assert consumer.evictions == 1
        consumer.commit()
        assert broker.committed_offset("g", "t", 0) == 1

    def test_evicted_consumer_rejoins_on_poll(self, broker, clock):
        Producer(broker).send("t", b"x", partition=0)
        consumer = Consumer(broker, group_id="g", session_timeout_ms=40.0)
        consumer.subscribe("t")
        clock.advance(0.1)  # miss the session deadline
        broker.coordinator.sweep("g")
        assert broker.coordinator.members("g") == []
        # First poll after eviction: re-join, empty round at the boundary.
        assert consumer.poll(max_records=10) == []
        assert consumer.evictions == 1
        assert broker.coordinator.members("g") == [consumer.client_id]
        assert [r.value for r in consumer.poll(max_records=10)] == [b"x"]

    def test_commit_refused_after_eviction(self, broker, clock):
        consumer = Consumer(broker, group_id="g", session_timeout_ms=30.0)
        consumer.subscribe("t")
        clock.advance(0.08)
        broker.coordinator.sweep("g")
        with pytest.raises(RebalanceInProgressError):
            consumer.commit()
        assert broker.committed_offsets("g") == {}

    def test_commit_survives_generation_bump_while_member(self, broker):
        c1 = Consumer(broker, group_id="g")
        c1.subscribe("t")
        c2 = Consumer(broker, group_id="g")
        c2.subscribe("t")  # bumps the generation c1 joined at
        c1.commit()  # still a member: must not raise

    def test_partitions_reassigned_within_one_session_timeout(self, broker, clock):
        session_ms = 60.0
        survivor = Consumer(broker, group_id="g", session_timeout_ms=session_ms)
        survivor.subscribe("t")
        victim = Consumer(broker, group_id="g", session_timeout_ms=session_ms)
        victim.subscribe("t")
        survivor.poll()
        assert len(survivor.assignment) == 2
        # The victim crashes (no leave, no heartbeats). Keep the survivor
        # polling every 10 ms: within one session timeout it owns all
        # partitions.
        polls = 0
        while len(survivor.assignment) < 4 and polls < 100:
            clock.advance(0.01)
            survivor.poll(timeout=0.0)
            polls += 1
        assert len(survivor.assignment) == 4, "partitions were never reassigned"
        assert polls <= session_ms / 10 + 1
        assert broker.coordinator.members_evicted == 1


class _LeaseRunsOut:
    """Forwards everything to *target*, except that just before a request
    that writes offsets goes out, *expire* runs: the clock steps past the
    session timeout and the coordinator sweeps. ``commit_offset`` is the
    broker's per-partition write, ``commit`` the coordinator's; the
    ``coordinator`` attribute is wrapped the same way."""

    def __init__(self, target, expire) -> None:
        self._target = target
        self._expire = expire

    def __getattr__(self, name):
        return getattr(self._target, name)

    @property
    def coordinator(self):
        return _LeaseRunsOut(self._target.coordinator, self._expire)

    def commit_offset(self, *args, **kwargs):
        self._expire()
        return self._target.commit_offset(*args, **kwargs)

    def commit(self, *args, **kwargs):
        self._expire()
        return self._target.commit(*args, **kwargs)


def _commit_while_the_lease_runs_out(client, owner, clock):
    """Subscribe and read through *client*, then commit while the lease
    runs out on the way: *owner*, the broker that coordinates the group,
    must refuse the commit and write nothing."""

    def expire():
        clock.advance(1.0)
        owner.coordinator.sweep("g")

    consumer = Consumer(_LeaseRunsOut(client, expire), group_id="g", session_timeout_ms=100.0)
    consumer.subscribe("t")
    assert len(consumer.poll(max_records=10)) == 1
    with pytest.raises(RebalanceInProgressError):
        consumer.commit()
    assert owner.coordinator.members("g") == [], "the member was not evicted"
    assert owner.committed_offsets("g") == {}


class TestCommitIsOneCheckedRequest:
    def test_an_eviction_before_the_offsets_land_refuses_them(self, broker, clock):
        Producer(broker).send("t", b"x", partition=0)
        _commit_while_the_lease_runs_out(broker, broker, clock)

    def test_refused_over_the_wire(self, broker, clock):
        Producer(broker).send("t", b"x", partition=0)
        with BrokerServer(broker) as server, RemoteBroker(server.host, server.port) as remote:
            _commit_while_the_lease_runs_out(remote, broker, clock)
            with pytest.raises(UnknownMemberError) as excinfo:
                remote.coordinator.commit("g", "ghost", [("t", 0, 1)])
            assert (excinfo.value.group_id, excinfo.value.member_id) == ("g", "ghost")
        assert broker.committed_offsets("g") == {}

    def test_refused_through_a_cluster(self, clock):
        shards = [ShardBroker(shard_index=i, num_shards=2) for i in range(2)]
        servers = [BrokerServer(shard).start() for shard in shards]
        try:
            addresses = [(server.host, server.port) for server in servers]
            for shard in shards:
                shard.set_cluster(addresses, epoch=1)
                shard.create_topic("t", 4)
                shard._coordinator = GroupCoordinator(
                    shard, guard=shard._check_group_owner, now=clock
                )
            owner = shards[coordinator_shard("g", 2)]
            with ClusterBroker(addresses) as cluster:
                Producer(cluster).send("t", b"x", partition=0)
                _commit_while_the_lease_runs_out(cluster, owner, clock)
                with pytest.raises(UnknownMemberError):
                    cluster.coordinator.commit("g", "ghost", [("t", 0, 1)])
                assert owner.committed_offsets("g") == {}
        finally:
            for server in servers:
                server.stop()

    def test_a_commit_is_one_request(self, broker):
        with BrokerServer(broker) as server, RemoteBroker(server.host, server.port) as remote:
            consumer = Consumer(remote, group_id="g")
            consumer.subscribe("t")
            assert len(consumer.assignment) == 4
            before = remote.requests_sent
            consumer.commit()
            assert remote.requests_sent - before == 1
        assert broker.committed_offsets("g") == {("t", p): 0 for p in range(4)}

    def test_an_assigned_consumer_commits_without_a_member(self, broker):
        consumer = Consumer(broker, group_id="g")
        consumer.assign([("t", 1)])
        consumer.seek("t", 1, 7)
        consumer.commit()
        assert broker.committed_offsets("g") == {("t", 1): 7}
        assert broker.coordinator.members("g") == []
