"""Consumer-group coordination and partition assignment.

Mirrors Kafka's group-coordinator role: consumers join a group for a set
of topics, the coordinator assigns each partition to exactly one group
member, and any membership change (join/leave/crash) triggers an eager
rebalance that bumps the group *generation*. Every consumer poll sends a
heartbeat, whose answer is the generation: a consumer sees a new one on
its next poll and refreshes its assignment.

Partitions are assigned by :func:`assign_ranges`, Kafka's default range
rule: contiguous partition ranges per member, which keeps a device's
partition stream on one consumer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import monotonic

from repro.broker.errors import UnknownMemberError
from repro.util.validation import ValidationError, check_non_negative


def assign_ranges(members: list[str], partitions: list[tuple]) -> dict[str, list[tuple]]:
    """``{member_id: [(topic, partition), ...]}``: member i gets the i-th
    contiguous slice of each topic's partitions.

    *members* is sorted; *partitions* is a list of ``(topic, partition)``
    pairs. Every partition appears exactly once in the result, and the
    members' shares of one topic differ by at most one.
    """
    out = {m: [] for m in members}
    if not members:
        return out
    by_topic: dict[str, list[tuple]] = {}
    for tp in partitions:
        by_topic.setdefault(tp[0], []).append(tp)
    for topic in sorted(by_topic):
        tps = sorted(by_topic[topic])
        base, extra = divmod(len(tps), len(members))
        start = 0
        for i, member in enumerate(members):
            take = base + (1 if i < extra else 0)
            out[member].extend(tps[start : start + take])
            start += take
    return out


@dataclass
class _GroupState:
    group_id: str
    generation: int = 0
    #: member_id -> subscribed topics
    members: dict = field(default_factory=dict)
    #: member_id -> [(topic, partition), ...]
    assignment: dict = field(default_factory=dict)
    #: member_id -> ``now()`` at its last heartbeat or join.
    last_heartbeat: dict = field(default_factory=dict)
    #: Per-group failure-detection window (seconds); 0 disables eviction.
    session_timeout_s: float = 0.0


class GroupCoordinator:
    """Tracks consumer groups for one broker.

    Failure detection mirrors Kafka's session-timeout protocol: members
    refresh their lease via :meth:`heartbeat` (a consumer sends one with
    every ``poll``), and any member silent for longer than the group's
    ``session_timeout_ms`` is evicted by the sweeper — which runs lazily
    on every coordinator access, so no background thread is needed and
    tests stay deterministic. Eviction bumps the generation, triggering a
    rebalance that hands the dead member's partitions to the survivors.

    Generations are monotonic for the lifetime of the coordinator: when a
    group's last member leaves, the group state is dropped but its
    highest generation is persisted, and a re-created group resumes above
    it — a consumer can therefore always compare the generation its
    heartbeat returns to detect stale assignments, even across group
    destruction.
    """

    def __init__(
        self, broker, session_timeout_ms: float = 0.0, guard=None, now=monotonic
    ) -> None:
        check_non_negative("session_timeout_ms", session_timeout_ms)
        self._broker = broker
        #: The clock leases are read from (a stepped one in tests).
        self._now = now
        #: Optional ``guard(group_id)`` hook invoked on every group-scoped
        #: entry point. Shard brokers install one that raises
        #: :class:`~repro.broker.errors.NotOwnerError` for groups whose
        #: coordinator hashes to a different shard, so group state can
        #: never split across processes.
        self._guard = guard
        self._groups: dict[str, _GroupState] = {}
        #: group_id -> highest generation ever reached (survives deletion).
        self._epochs: dict[str, int] = {}
        self._lock = threading.RLock()
        #: Default failure-detection window for new groups (0 = disabled).
        self.session_timeout_ms = float(session_timeout_ms)
        #: Members evicted by the session-timeout sweeper (monitoring).
        self.members_evicted = 0

    def join(
        self,
        group_id: str,
        member_id: str,
        topics: list[str],
        session_timeout_ms: float | None = None,
    ) -> int:
        """Add *member_id* to the group; returns the new generation."""
        self._check_guard(group_id)
        if not topics:
            raise ValidationError("a consumer must subscribe to at least one topic")
        if session_timeout_ms is not None:
            check_non_negative("session_timeout_ms", session_timeout_ms)
        with self._lock:
            state = self._groups.get(group_id)
            if state is None:
                state = _GroupState(
                    group_id=group_id,
                    generation=self._epochs.get(group_id, 0),
                    session_timeout_s=self.session_timeout_ms / 1000.0,
                )
                self._groups[group_id] = state
            if session_timeout_ms is not None:
                state.session_timeout_s = session_timeout_ms / 1000.0
            state.members[member_id] = list(topics)
            state.last_heartbeat[member_id] = self._now()
            self._rebalance(state)
            return state.generation

    def _check_guard(self, group_id: str) -> None:
        if self._guard is not None:
            self._guard(group_id)

    def leave(self, group_id: str, member_id: str) -> None:
        self._check_guard(group_id)
        with self._lock:
            state = self._groups.get(group_id)
            if state is None or member_id not in state.members:
                return
            del state.members[member_id]
            state.last_heartbeat.pop(member_id, None)
            if state.members:
                self._rebalance(state)
            else:
                # Persist the epoch so a re-created group's generations
                # stay monotonic (stale-assignment checks remain sound).
                self._epochs[group_id] = state.generation
                del self._groups[group_id]

    # -- failure detection ----------------------------------------------------

    def heartbeat(self, group_id: str, member_id: str) -> int:
        """Refresh *member_id*'s session lease; returns the generation.

        Raises :class:`UnknownMemberError` when the member was evicted
        (or never joined) — the consumer must re-join and re-fetch its
        assignment.
        """
        self._check_guard(group_id)
        with self._lock:
            self._sweep_locked(group_id)
            state = self._groups.get(group_id)
            if state is None or member_id not in state.members:
                raise UnknownMemberError(group_id, member_id)
            state.last_heartbeat[member_id] = self._now()
            return state.generation

    def sweep(self, group_id: str | None = None) -> list[str]:
        """Evict members whose session lease expired; returns their ids.

        Called lazily from every coordinator entry point; exposed for
        tests and monitoring loops that want an explicit sweep.
        """
        with self._lock:
            groups = [group_id] if group_id is not None else list(self._groups)
            evicted: list[str] = []
            for gid in groups:
                evicted.extend(self._sweep_locked(gid))
            return evicted

    def _sweep_locked(self, group_id: str) -> list[str]:
        state = self._groups.get(group_id)
        if state is None or state.session_timeout_s <= 0:
            return []
        cutoff = self._now() - state.session_timeout_s
        expired = [
            m for m, last in state.last_heartbeat.items() if last < cutoff
        ]
        for member in expired:
            state.members.pop(member, None)
            state.last_heartbeat.pop(member, None)
        if expired:
            self.members_evicted += len(expired)
            if state.members:
                self._rebalance(state)
            else:
                # Bump past the dead generation so rejoining members see
                # a change even though nobody is left to rebalance.
                state.generation += 1
                self._epochs[group_id] = state.generation
                del self._groups[group_id]
        return expired

    def _rebalance(self, state: _GroupState) -> None:
        all_topics = sorted({t for topics in state.members.values() for t in topics})
        partitions: list[tuple] = []
        for topic_name in all_topics:
            topic = self._broker.topic(topic_name)  # raises on unknown topic
            partitions.extend((topic_name, p) for p in topic.partitions)
        members = sorted(state.members)
        raw = assign_ranges(members, partitions)
        # Strip partitions of topics a member did not subscribe to, and
        # reassign them among the subscribers.
        final = {m: [] for m in members}
        orphans: list[tuple] = []
        for member, tps in raw.items():
            for tp in tps:
                if tp[0] in state.members[member]:
                    final[member].append(tp)
                else:
                    orphans.append(tp)
        for i, tp in enumerate(sorted(orphans)):
            subscribers = sorted(m for m in members if tp[0] in state.members[m])
            if subscribers:
                final[subscribers[i % len(subscribers)]].append(tp)
        state.assignment = {m: sorted(tps) for m, tps in final.items()}
        state.generation += 1

    def commit(self, group_id: str, member_id: str | None, offsets) -> None:
        """Commit ``[(topic, partition, offset), ...]`` for *member_id*.

        Raises :class:`UnknownMemberError` when the member is not in the
        group (evicted, or never joined): its partitions may belong to
        someone else now. The check and the writes hold one lock, so a
        sweep cannot evict the member between them. A member whose
        generation merely moved on still commits: the writes go through
        the broker's monotonic ``commit_offset``, which never rewinds
        another member's progress. ``member_id=None`` commits for a
        consumer outside any subscription (manual assignment).
        """
        self._check_guard(group_id)
        with self._lock:
            if member_id is not None:
                self._sweep_locked(group_id)
                state = self._groups.get(group_id)
                if state is None or member_id not in state.members:
                    raise UnknownMemberError(group_id, member_id)
            for topic, partition, offset in offsets:
                self._broker.commit_offset(group_id, topic, partition, offset)

    def assignment(self, group_id: str, member_id: str) -> tuple[int, list[tuple]]:
        """Return ``(generation, [(topic, partition), ...])`` for a member."""
        self._check_guard(group_id)
        with self._lock:
            self._sweep_locked(group_id)
            state = self._groups.get(group_id)
            if state is None or member_id not in state.members:
                return (0, [])
            return (state.generation, list(state.assignment.get(member_id, [])))

    def members(self, group_id: str) -> list[str]:
        self._check_guard(group_id)
        with self._lock:
            self._sweep_locked(group_id)
            state = self._groups.get(group_id)
            return sorted(state.members) if state else []

    def group_ids(self) -> list[str]:
        """Ids of all live groups (the telemetry sampler iterates these)."""
        with self._lock:
            for gid in list(self._groups):
                self._sweep_locked(gid)
            return sorted(self._groups)

    def group_topics(self, group_id: str) -> list[str]:
        """Union of the topics the group's members subscribe to."""
        self._check_guard(group_id)
        with self._lock:
            self._sweep_locked(group_id)
            state = self._groups.get(group_id)
            if state is None:
                return []
            return sorted({t for topics in state.members.values() for t in topics})

    def committed_offsets(self, group_id: str) -> dict:
        """``{(topic, partition): committed_offset}`` for one group.

        Offsets live on the broker's offset store; this accessor scopes
        them to a group so the telemetry sampler (and lag computations)
        need not know the store's key layout.
        """
        self._check_guard(group_id)
        return self._broker.committed_offsets(group_id)
