"""Cluster metadata: who owns which partition, and which epoch says so.

Ownership is a *rule*, not a table: a ``(topic, partition)`` pair hashes
deterministically onto one of ``num_shards`` slots, and the metadata
only has to carry the shard address list plus an epoch. That keeps the
``describe_cluster`` payload O(shards) instead of O(partitions), and —
more importantly — means dynamically created topics need no metadata
push: every client and every shard derives the same owner from the same
rule the moment the topic exists.

Replication layers on the same rule: a partition's *replica set* is the
``replication_factor`` consecutive slots starting at its hash slot, and
its **leader** defaults to the hash slot itself. The only table the
metadata ever carries is the exception list — ``leaders`` holds one
``(topic, partition, shard, partition_epoch)`` override per partition
whose leadership moved off its hash slot (a failover election), so the
payload stays O(shards + elections), not O(partitions).

The epoch increments whenever the supervisor changes the address list or
the leader overrides (respawning a dead shard, electing a new leader).
Clients treat a response carrying a newer epoch as authoritative and
refuse to go backwards, mirroring the producer-epoch fencing the broker
already does for idempotent writes; the per-partition ``partition_epoch``
additionally fences a deposed leader's replication traffic
(:class:`~repro.broker.errors.StaleLeaderEpochError`).
:func:`elect_leaders` is the rule that fills the override table.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass


def shard_for_partition(topic: str, partition: int, num_shards: int) -> int:
    """Deterministic owner slot for one ``(topic, partition)`` pair.

    Adding the partition index *after* hashing the topic spreads a
    topic's partitions across consecutive shards, so a single hot topic
    with >= num_shards partitions uses every core.
    """
    if num_shards <= 1:
        return 0
    return (zlib.crc32(topic.encode("utf-8")) + partition) % num_shards


def replica_indices(
    topic: str, partition: int, num_shards: int, replication_factor: int
) -> tuple[int, ...]:
    """The shard slots holding copies of one partition, preferred first.

    The hash slot leads the list (it is the default leader); the
    remaining ``replication_factor - 1`` followers are the consecutive
    slots after it, wrapped — the same consecutive-slot rule Kafka's
    default assignor uses, so a topic's replica load spreads evenly.
    Capped at ``num_shards`` distinct slots.
    """
    if num_shards <= 1:
        return (0,)
    first = shard_for_partition(topic, partition, num_shards)
    count = max(1, min(int(replication_factor), num_shards))
    return tuple((first + k) % num_shards for k in range(count))


def coordinator_shard(group_id: str, num_shards: int) -> int:
    """Deterministic coordinator slot for a consumer group (or producer id).

    All group-scoped state (members, generations, committed offsets)
    lives on this one shard, so heartbeats and commits for a group never
    race across processes.
    """
    if num_shards <= 1:
        return 0
    return zlib.crc32(group_id.encode("utf-8")) % num_shards


def elect_leaders(
    leaders: dict, topics, num_shards: int, replication_factor: int, dead_index: int,
    log_end,
) -> list:
    """New leaders for the partitions *dead_index* led, as ``(topic,
    partition, leader, partition_epoch, log_end)`` tuples.

    *leaders* is the override table ``{(topic, partition): (shard,
    partition_epoch)}``; ``log_end(index, topic, partition)`` is a
    replica's log end, ``None`` when it is dead or does not answer. The
    surviving replica with the longest log wins — by the ISR invariant
    (the high-watermark never passes the slowest ISR member) it holds
    every record an ``acks="all"`` producer was acknowledged for — and
    the partition's epoch moves by one to fence the deposed leader's late
    pushes. With no live replica the slot is left for the respawn.
    """
    moved = []
    for name, partitions in topics:
        for partition in range(partitions):
            replicas = replica_indices(name, partition, num_shards, replication_factor)
            current, epoch = leaders.get((name, partition), (replicas[0], 0))
            if current != dead_index:
                continue
            ends = [
                (end, index)
                for index in replicas
                if index != dead_index
                and (end := log_end(index, name, partition)) is not None
            ]
            if ends:
                # Longest log; the preferred (earlier) replica on a tie.
                end, index = max(ends, key=lambda pair: pair[0])
                moved.append((name, partition, index, epoch + 1, end))
    return moved


@dataclass(frozen=True)
class ClusterMetadata:
    """An epoch-stamped shard address list with ownership accessors.

    ``leaders`` is the failover override table: tuples of
    ``(topic, partition, shard, partition_epoch)`` for partitions whose
    leader is no longer their hash slot. Empty in a healthy cluster.
    """

    epoch: int
    shards: tuple[tuple[str, int], ...]
    replication_factor: int = 1
    leaders: tuple[tuple[str, int, int, int], ...] = ()

    def __post_init__(self) -> None:
        # Frozen dataclass: the derived lookup table rides alongside the
        # fields (it is not itself a field, so equality stays field-wise).
        object.__setattr__(
            self,
            "_leader_map",
            {(t, p): (s, e) for t, p, s, e in self.leaders},
        )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def leader_index(self, topic: str, partition: int) -> int:
        """The shard currently leading (serving) one partition."""
        entry = self._leader_map.get((topic, partition))
        if entry is not None:
            return entry[0]
        return shard_for_partition(topic, partition, len(self.shards))

    def partition_epoch(self, topic: str, partition: int) -> int:
        """Leader-election generation for one partition (0 = never moved)."""
        entry = self._leader_map.get((topic, partition))
        return entry[1] if entry is not None else 0

    def replica_indices(self, topic: str, partition: int) -> tuple[int, ...]:
        return replica_indices(
            topic, partition, len(self.shards), self.replication_factor
        )

    def owner(self, topic: str, partition: int) -> tuple[str, int]:
        """Where routing sends the partition's ops: its *leader* (with
        no overrides, the plain hash slot)."""
        return self.shards[self.leader_index(topic, partition)]

    def coordinator_index(self, group_id: str) -> int:
        return coordinator_shard(group_id, len(self.shards))

    def coordinator(self, group_id: str) -> tuple[str, int]:
        return self.shards[self.coordinator_index(group_id)]

    def to_wire(self) -> dict:
        out = {
            "epoch": self.epoch,
            "shards": [[host, port] for host, port in self.shards],
        }
        # Only stamp the replication fields when they carry information,
        # so unreplicated clusters keep the exact pre-replication schema.
        if self.replication_factor != 1:
            out["replication_factor"] = self.replication_factor
        if self.leaders:
            out["leaders"] = [list(entry) for entry in self.leaders]
        return out

    @classmethod
    def from_wire(cls, obj: dict) -> "ClusterMetadata":
        return cls(
            epoch=int(obj["epoch"]),
            shards=tuple((str(h), int(p)) for h, p in obj["shards"]),
            replication_factor=int(obj.get("replication_factor", 1)),
            leaders=tuple(
                (str(t), int(p), int(s), int(e))
                for t, p, s, e in obj.get("leaders", ())
            ),
        )
