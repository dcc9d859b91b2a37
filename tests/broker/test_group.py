"""Tests for the group coordinator and its range assignment."""

import threading

import pytest

from repro.broker import Broker, UnknownMemberError
from repro.broker.group import assign_ranges
from repro.util.validation import ValidationError


class TestRangeAssignor:
    def test_even_split(self):
        parts = [("t", p) for p in range(4)]
        out = assign_ranges(["a", "b"], parts)
        assert out["a"] == [("t", 0), ("t", 1)]
        assert out["b"] == [("t", 2), ("t", 3)]

    def test_uneven_split_favors_first(self):
        parts = [("t", p) for p in range(5)]
        out = assign_ranges(["a", "b"], parts)
        assert len(out["a"]) == 3
        assert len(out["b"]) == 2

    def test_more_members_than_partitions(self):
        parts = [("t", 0)]
        out = assign_ranges(["a", "b", "c"], parts)
        assert out["a"] == [("t", 0)]
        assert out["b"] == [] and out["c"] == []

    def test_multi_topic_ranges(self):
        parts = [("t1", 0), ("t1", 1), ("t2", 0), ("t2", 1)]
        out = assign_ranges(["a", "b"], parts)
        assert out["a"] == [("t1", 0), ("t2", 0)]
        assert out["b"] == [("t1", 1), ("t2", 1)]

    def test_no_members(self):
        assert assign_ranges([], [("t", 0)]) == {}


class TestGroupCoordinator:
    @pytest.fixture
    def broker2(self):
        b = Broker()
        b.create_topic("t", 4)
        return b

    def test_join_bumps_generation(self, broker2):
        coord = broker2.coordinator
        g1 = coord.join("g", "m1", ["t"])
        g2 = coord.join("g", "m2", ["t"])
        assert g2 == g1 + 1

    def test_assignment_covers_all_partitions(self, broker2):
        coord = broker2.coordinator
        coord.join("g", "m1", ["t"])
        coord.join("g", "m2", ["t"])
        _, a1 = coord.assignment("g", "m1")
        _, a2 = coord.assignment("g", "m2")
        assert sorted(a1 + a2) == [("t", p) for p in range(4)]

    def test_leave_reassigns(self, broker2):
        coord = broker2.coordinator
        coord.join("g", "m1", ["t"])
        coord.join("g", "m2", ["t"])
        coord.leave("g", "m2")
        _, a1 = coord.assignment("g", "m1")
        assert len(a1) == 4

    def test_last_leave_destroys_group(self, broker2):
        coord = broker2.coordinator
        coord.join("g", "m1", ["t"])
        coord.leave("g", "m1")
        assert coord.group_ids() == []
        assert coord.members("g") == []

    def test_leave_unknown_is_noop(self, broker2):
        broker2.coordinator.leave("nope", "m")

    def test_unknown_member_assignment_empty(self, broker2):
        gen, assignment = broker2.coordinator.assignment("g", "ghost")
        assert (gen, assignment) == (0, [])

    def test_describe_unknown_group(self, broker2):
        coord = broker2.coordinator
        assert coord.assignment("nope", "m") == (0, [])
        assert coord.members("nope") == []
        assert "nope" not in coord.group_ids()

    def test_empty_subscription_rejected(self, broker2):
        with pytest.raises(ValidationError):
            broker2.coordinator.join("g", "m", [])

    def test_unknown_topic_subscription_fails(self, broker2):
        from repro.broker import UnknownTopicError

        with pytest.raises(UnknownTopicError):
            broker2.coordinator.join("g", "m", ["missing"])

    def test_mixed_subscriptions(self, broker2):
        broker2.create_topic("u", 2)
        coord = broker2.coordinator
        coord.join("g", "m1", ["t"])
        coord.join("g", "m2", ["u"])
        _, a1 = coord.assignment("g", "m1")
        _, a2 = coord.assignment("g", "m2")
        # Members only receive partitions of topics they subscribed to.
        assert all(tp[0] == "t" for tp in a1)
        assert all(tp[0] == "u" for tp in a2)
        assert len(a1) == 4 and len(a2) == 2



class _ProbesTheCoordinatorLock(Broker):
    """Notes, at every offset write, whether another thread could take
    the coordinator's lock right then (and so sweep the writer away)."""

    def __init__(self) -> None:
        super().__init__()
        self.lock_was_free: list[bool] = []

    def commit_offset(self, group, topic, partition, offset) -> None:
        def probe():
            lock = self.coordinator._lock
            free = lock.acquire(blocking=False)
            if free:
                lock.release()
            self.lock_was_free.append(free)

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        super().commit_offset(group, topic, partition, offset)


class TestGroupCommit:
    @pytest.fixture
    def broker2(self):
        b = Broker()
        b.create_topic("t", 4)
        return b

    def test_a_member_commits_every_partition_in_one_call(self, broker2):
        coord = broker2.coordinator
        coord.join("g", "m1", ["t"])
        coord.commit("g", "m1", [("t", p, 10 + p) for p in range(4)])
        assert broker2.committed_offsets("g") == {("t", p): 10 + p for p in range(4)}

    def test_a_non_member_is_refused_and_nothing_lands(self, broker2):
        coord = broker2.coordinator
        coord.join("g", "m1", ["t"])
        with pytest.raises(UnknownMemberError):
            coord.commit("g", "ghost", [("t", 0, 5)])
        with pytest.raises(UnknownMemberError):
            coord.commit("empty", "m1", [("t", 0, 5)])
        assert broker2.committed_offsets() == {}

    def test_no_member_id_commits_without_a_group(self, broker2):
        broker2.coordinator.commit("tap", None, [("t", 2, 3)])
        assert broker2.committed_offsets("tap") == {("t", 2): 3}

    def test_commits_stay_monotonic(self, broker2):
        coord = broker2.coordinator
        coord.join("g", "m1", ["t"])
        coord.commit("g", "m1", [("t", 0, 9)])
        coord.commit("g", "m1", [("t", 0, 4)])
        assert broker2.committed_offset("g", "t", 0) == 9

    def test_the_check_and_the_writes_hold_one_lock(self):
        broker = _ProbesTheCoordinatorLock()
        broker.create_topic("t", 2)
        broker.coordinator.join("g", "m1", ["t"])
        broker.coordinator.commit("g", "m1", [("t", 0, 1), ("t", 1, 1)])
        assert broker.lock_was_free == [False, False]
