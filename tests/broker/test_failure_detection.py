"""Session-timeout failure detection: heartbeats, eviction, rebalance."""

import time

import pytest

from repro.broker import (
    Broker,
    Consumer,
    GroupCoordinator,
    Producer,
    RebalanceInProgressError,
    UnknownMemberError,
)


@pytest.fixture
def broker():
    b = Broker()
    b.create_topic("t", 4)
    return b


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
def coord(broker, clock):
    return GroupCoordinator(broker, now=clock)


class TestCoordinatorHeartbeats:
    def test_heartbeat_refreshes_lease(self, coord, clock):
        coord.join("g", "m1", ["t"], session_timeout_ms=50.0)
        for _ in range(3):
            clock.advance(0.03)
            coord.heartbeat("g", "m1")
        assert coord.members("g") == ["m1"]

    def test_silent_member_is_evicted(self, coord, clock):
        coord.join("g", "m1", ["t"], session_timeout_ms=30.0)
        coord.join("g", "m2", ["t"], session_timeout_ms=30.0)
        generation = coord.generation("g")
        # m2 heartbeats inside every window; m1 goes silent.
        for _ in range(4):
            clock.advance(0.015)
            coord.heartbeat("g", "m2")
        assert coord.members("g") == ["m2"]
        assert coord.generation("g") > generation
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
        coord.join("g", "m2", ["t"])
        peak = coord.generation("g")
        coord.leave("g", "m1")
        coord.leave("g", "m2")  # last leave destroys the group
        assert coord.generation("g") == 0
        rejoined = coord.join("g", "m3", ["t"])
        assert rejoined > peak

    def test_all_members_expiring_bumps_epoch(self, coord, clock):
        coord.join("g", "m1", ["t"], session_timeout_ms=20.0)
        generation = coord.generation("g")
        clock.advance(0.05)
        assert coord.sweep("g") == ["m1"]
        assert coord.join("g", "m2", ["t"]) > generation


class TestConsumerHeartbeats:
    def test_poll_piggybacks_heartbeats(self, broker):
        consumer = Consumer(broker, group_id="g", session_timeout_ms=500.0)
        consumer.subscribe("t")
        deadline = time.monotonic() + 0.6
        while time.monotonic() < deadline:
            consumer.poll(timeout=0.0)
            time.sleep(0.01)
        # Kept alive the whole time by piggybacked heartbeats.
        assert broker.coordinator.members("g") == [consumer.client_id]
        assert consumer.heartbeats_sent >= 2
        assert consumer.evictions == 0

    def test_evicted_consumer_rejoins_on_poll(self, broker):
        Producer(broker).send("t", b"x", partition=0)
        consumer = Consumer(broker, group_id="g", session_timeout_ms=40.0)
        consumer.subscribe("t")
        time.sleep(0.1)  # miss the session deadline
        broker.coordinator.sweep("g")
        assert broker.coordinator.members("g") == []
        # First poll after eviction: re-join, empty round at the boundary.
        deadline = time.monotonic() + 2.0
        records = []
        while not records and time.monotonic() < deadline:
            records = consumer.poll(max_records=10)
        assert consumer.evictions == 1
        assert [r.value for r in records] == [b"x"]
        assert broker.coordinator.members("g") == [consumer.client_id]

    def test_commit_refused_after_eviction(self, broker):
        consumer = Consumer(broker, group_id="g", session_timeout_ms=30.0)
        consumer.subscribe("t")
        time.sleep(0.08)
        broker.coordinator.sweep("g")
        with pytest.raises(RebalanceInProgressError):
            consumer.commit()

    def test_commit_survives_generation_bump_while_member(self, broker):
        c1 = Consumer(broker, group_id="g")
        c1.subscribe("t")
        c2 = Consumer(broker, group_id="g")
        c2.subscribe("t")  # bumps the generation c1 joined at
        c1.commit()  # still a member: must not raise

    def test_partitions_reassigned_within_one_session_timeout(self, broker):
        session_ms = 60.0
        survivor = Consumer(broker, group_id="g", session_timeout_ms=session_ms)
        survivor.subscribe("t")
        victim = Consumer(broker, group_id="g", session_timeout_ms=session_ms)
        victim.subscribe("t")
        survivor.poll()
        assert len(survivor.assignment) == 2
        # The victim crashes (no leave, no heartbeats). Keep the survivor
        # polling: within one session timeout it owns all partitions.
        crash = time.monotonic()
        deadline = crash + 5.0
        while time.monotonic() < deadline:
            survivor.poll(timeout=0.0)
            if len(survivor.assignment) == 4:
                break
            time.sleep(0.005)
        took = time.monotonic() - crash
        assert len(survivor.assignment) == 4, "partitions were never reassigned"
        assert took < 5.0
        assert broker.coordinator.members_evicted == 1
