"""In-process replication tests: leaders, followers, ISR, high-watermark.

Two miniature clusters. :class:`_SimCluster` is the deterministic one —
N :class:`ShardBroker` instances in this thread, each with a
:class:`_ShardReplicator` that is handed a fake clock and the follower
shards themselves as its peer transport, and that the test drives by
calling ``step()``: no socket, no thread, no sleep. The fault
injector's ``partition_link`` severs leader→follower traffic without
killing anything, so ISR eviction, acks=all timeouts and readmission
happen at exact instants. :class:`_MiniCluster` puts each shard behind
a :class:`ReactorBrokerServer` with the production pump thread, for the
few behaviours that need the wire (multiprocess chaos lives in
``tests/integration/test_failover_chaos.py``).
"""

import threading
import time
from functools import partial

import pytest
from test_storage import MANUAL, crash

from repro.broker import (
    Broker,
    ClusterBroker,
    ClusterMetadata,
    Consumer,
    NotEnoughReplicasError,
    NotOwnerError,
    PartitionLog,
    Producer,
    ShardBroker,
    StaleLeaderEpochError,
    replica_indices,
    shard_for_partition,
)
from repro.broker.errors import is_retriable
from repro.broker.metadata import elect_leaders
from repro.broker.reactor import ReactorBrokerServer
from repro.broker.replicator import (
    INTERVAL_S,
    ISR_TIMEOUT_S,
    MAX_LAG_RECORDS,
    _ShardReplicator,
)
from repro.broker.shard import PeerLinks
from repro.broker.storage import StorageConfig
from repro.faults import FaultInjected, FaultInjector

TOPIC = "t"
PARTITIONS = 2


def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _Clock:
    """A clock that moves only when the test says so."""

    def __init__(self, start: float = 100.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


class _Cluster:
    """What both miniature clusters know about their ``brokers``."""

    brokers: list

    def leader_of(self, partition: int, topic: str = TOPIC) -> ShardBroker:
        return self.brokers[shard_for_partition(topic, partition, len(self.brokers))]

    def follower_of(self, partition: int) -> ShardBroker:
        replicas = replica_indices(
            TOPIC, partition, len(self.brokers), self.brokers[0].replication_factor
        )
        return self.brokers[replicas[1]]

    def log(self, broker: ShardBroker, partition: int, topic: str = TOPIC):
        return broker.local_log(topic, partition)

    def isr_of(self, partition: int, topic: str = TOPIC) -> list:
        for part in self.leader_of(partition, topic).replication_status()["partitions"]:
            if (part["topic"], part["partition"]) == (topic, partition):
                return part["isr"]
        return []

    def park_waiter(self, partition: int) -> threading.Event:
        """Stand in for a parked consumer on the partition's leader log:
        with a waiter registered every append wakes the pump."""
        waiter = threading.Event()
        self.log(self.leader_of(partition), partition).register_waiter(waiter)
        return waiter

    def move_leader(self, partition: int, to: ShardBroker) -> None:
        """Cluster epoch 2: *partition* is led by *to*, partition epoch 1."""
        for broker in self.brokers:
            broker.set_cluster(
                self.addresses, 2, leaders=[(TOPIC, partition, to.shard_index, 1)]
            )


class _InlineReplicator(_ShardReplicator):
    """No thread: a demand wake runs its cycle on the waker's stack, so
    an ``acks="all"`` append finds its records replicated (or not) by
    the time it looks at the high-watermark."""

    def mark_dirty(self, topic: str, partition: int) -> None:
        super().mark_dirty(topic, partition)
        self.step()


class _Peers:
    """The in-memory peer transport: a follower *is* its own stub."""

    def __init__(self, brokers) -> None:
        self.brokers = brokers
        self.down: set = set()

    def connect(self, index: int) -> ShardBroker:
        if index in self.down:
            raise ConnectionError(f"shard {index} is down")
        return self.brokers[index]

    def drop(self, index: int) -> None:
        pass  # nothing was opened


class _SimCluster(_Cluster):
    """N replicated shards, one thread, a clock that the test owns."""

    def __init__(
        self,
        num_shards: int = 2,
        replication_factor: int = 2,
        inline: bool = True,
        log_dir=None,
        storage=None,
    ):
        """With *log_dir* each shard keeps durable logs under
        ``log_dir/shard-<index>`` (``storage`` is their config); then
        :meth:`close` the cluster."""
        self.clock = _Clock()
        self.log_dir, self.storage = log_dir, storage
        self.brokers = [
            ShardBroker(
                shard_index=index,
                num_shards=num_shards,
                replication_factor=replication_factor,
                log_dir=None if log_dir is None else str(log_dir / f"shard-{index}"),
                storage=storage,
            )
            for index in range(num_shards)
        ]
        self.peers = _Peers(self.brokers)
        self.addresses = [("sim", index) for index in range(num_shards)]
        self._pump_class = _InlineReplicator if inline else _ShardReplicator
        for broker in self.brokers:
            broker.create_topic(TOPIC, num_partitions=PARTITIONS)
            broker.set_cluster(self.addresses, 1)
            self.restart(broker)

    def restart(self, broker: ShardBroker) -> _ShardReplicator:
        """A fresh pump on *broker*, as after a respawn: no progress kept."""
        broker.replicator = self._pump_class(broker, self.peers, now=self.clock)
        return broker.replicator

    def step(self, seconds: float = 0.0) -> None:
        """Let *seconds* pass, then run one cycle of every live pump."""
        self.clock.advance(seconds)
        for broker in self.brokers:
            if broker.shard_index not in self.peers.down:
                broker.replicator.step()

    def sweep(self) -> None:
        # A hair over, so float rounding never lands short of the deadline.
        self.step(INTERVAL_S * 1.001)

    def reopen(self, broker: ShardBroker, partition: int) -> PartitionLog:
        """*broker*'s durable log of *partition*, opened afresh from disk
        (after :func:`crash` of its store: what a respawn recovers)."""
        return PartitionLog(
            TOPIC, partition, log_dir=str(self.log_dir / f"shard-{broker.shard_index}"),
            storage=self.storage,
        )

    def close(self) -> None:
        for broker in self.brokers:
            broker.close()

    def settle(self, partition: int) -> ShardBroker:
        """Leader of *partition* with one record everywhere, its
        followers in the ISR and the visibility fence armed."""
        leader = self.leader_of(partition)
        leader.append_many(TOPIC, partition, [b"seed"])
        self.sweep()
        assert len(self.isr_of(partition)) == leader.replication_factor
        return leader


class _MiniCluster(_Cluster):
    """N replicated shards, servers and replication pumps running.

    With *now* the pumps read that clock instead of the real one — a
    frozen clock means no sweep after the first can ever come due, so
    whatever replicates afterwards went the demand path.
    """

    def __init__(
        self, num_shards: int = 2, replication_factor: int = 2, now=None, **broker_kwargs
    ):
        self.brokers = []
        self.servers = []
        for index in range(num_shards):
            broker = ShardBroker(
                shard_index=index,
                num_shards=num_shards,
                replication_factor=replication_factor,
                **broker_kwargs,
            )
            broker.create_topic(TOPIC, num_partitions=PARTITIONS, exist_ok=True)
            server = ReactorBrokerServer(
                broker, host="127.0.0.1", port=0, num_workers=2
            )
            server.start()
            self.brokers.append(broker)
            self.servers.append(server)
        self.addresses = [(s.host, s.port) for s in self.servers]
        for broker in self.brokers:
            broker.set_cluster(self.addresses, 1)
            if now is None:
                broker.start_replication()
            else:
                links = PeerLinks(
                    self.addresses.__getitem__,
                    connect_timeout=0.5,
                )
                broker.replicator = _ShardReplicator(broker, links, now=now)
                broker.replicator.start()

    def settle(self, partition: int) -> ShardBroker:
        """Leader of *partition*, with its follower in the ISR and the
        visibility fence armed."""
        leader = self.leader_of(partition)
        leader.append_many(TOPIC, partition, [b"seed"], acks="all")
        assert _wait_until(lambda: len(self.isr_of(partition)) == 2)
        return leader

    def close(self):
        for broker in self.brokers:
            broker.stop_replication()
        for server in self.servers:
            server.stop()


@pytest.fixture()
def mini():
    cluster = _MiniCluster()
    yield cluster
    cluster.close()


@pytest.fixture()
def sim():
    return _SimCluster()


def _spy_pushes(follower: ShardBroker) -> list:
    """Record the ``replicate_append`` calls *follower* receives, as
    ``(base_offset, number of records)``."""
    pushes = []
    install = follower.replicate_append

    def spy(topic, partition, **kwargs):
        pushes.append((kwargs["base_offset"], len(kwargs["records"])))
        return install(topic, partition, **kwargs)

    follower.replicate_append = spy
    return pushes


class TestReplicaAssignment:
    def test_consecutive_slots_capped_at_num_shards(self):
        assert replica_indices("a", 0, 1, 3) == (0,)
        first = shard_for_partition("a", 0, 4)
        assert replica_indices("a", 0, 4, 2) == (first, (first + 1) % 4)
        assert len(set(replica_indices("a", 0, 3, 5))) == 3

    def test_leader_defaults_to_hash_slot(self):
        meta = ClusterMetadata(
            epoch=1, shards=(("h", 1), ("h", 2)), replication_factor=2
        )
        assert meta.leader_index("a", 0) == shard_for_partition("a", 0, 2)
        assert meta.partition_epoch("a", 0) == 0

    def test_leader_override_and_wire_roundtrip(self):
        meta = ClusterMetadata(
            epoch=3,
            shards=(("h", 1), ("h", 2)),
            replication_factor=2,
            leaders=(("a", 0, 1, 2),),
        )
        assert meta.leader_index("a", 0) == 1
        assert meta.partition_epoch("a", 0) == 2
        again = ClusterMetadata.from_wire(meta.to_wire())
        assert again == meta

    def test_unreplicated_wire_schema_unchanged(self):
        meta = ClusterMetadata(epoch=1, shards=(("h", 1),))
        wire = meta.to_wire()
        assert "replication_factor" not in wire
        assert "leaders" not in wire


class TestHighWatermarkGating:
    def test_records_replicate_and_become_visible(self, sim):
        leader = sim.leader_of(0)
        leader.append_many(TOPIC, 0, [b"a", b"b", b"c"], acks="all")
        follower_log = sim.log(sim.follower_of(0), 0)
        assert follower_log.latest_offset == 3
        # The follower learns the new fence from the next push it gets.
        sim.sweep()
        assert follower_log.high_watermark == 3
        assert [r.value for r in leader.fetch(TOPIC, 0, 0, max_records=10)] == [
            b"a",
            b"b",
            b"c",
        ]

    def test_unreplicated_records_stay_invisible_until_link_heals(self, sim):
        leader = sim.settle(0)
        injector = FaultInjector()
        leader.fault_injector = injector
        injector.partition_link(0, 1)
        leader.append_many(TOPIC, 0, [b"dark1", b"dark2"])  # leader-acked
        # Well inside ISR_TIMEOUT_S: only the link drops, nobody is evicted.
        sim.sweep()
        assert sim.log(leader, 0).latest_offset == 3
        # Consumers see only ISR-covered records: nothing past the seed.
        assert leader.latest_offset(TOPIC, 0) == 1
        assert leader.fetch(TOPIC, 0, 1, max_records=10) == []
        injector.heal_link(0, 1)
        sim.sweep()
        assert leader.latest_offset(TOPIC, 0) == 3
        assert [r.value for r in leader.fetch(TOPIC, 0, 1, max_records=10)] == [
            b"dark1",
            b"dark2",
        ]

    def test_acks_all_times_out_retriably_when_isr_stalls(self, sim):
        leader = sim.settle(0)
        leader.acks_timeout_s = 0.0  # the pump has run by the time it waits
        injector = FaultInjector()
        leader.fault_injector = injector
        injector.partition_link(0, 1)
        with pytest.raises(NotEnoughReplicasError) as excinfo:
            leader.append_many(TOPIC, 0, [b"stuck"], acks="all")
        assert is_retriable(excinfo.value)
        assert injector.fired["link"] == 1
        injector.heal_link(0, 1)
        leader.append_many(TOPIC, 0, [b"through"], acks="all")
        assert leader.latest_offset(TOPIC, 0) == 3

    def test_partition_depths_report_visible_end(self, sim):
        leader = sim.settle(0)
        injector = FaultInjector()
        leader.fault_injector = injector
        injector.partition_link(0, 1)
        leader.append_many(TOPIC, 0, [b"dark"])
        sim.sweep()
        depths = leader.partition_depths()[(TOPIC, 0)]
        assert depths["end_offset"] == 1
        assert depths["depth"] == 1


class TestIsrEviction:
    def test_link_partition_evicts_then_readmits(self, sim):
        leader = sim.settle(0)
        follower = sim.follower_of(0)
        injector = FaultInjector()
        leader.fault_injector = injector
        injector.partition_link(0, 1)

        def doomed_partition():
            for part in leader.replication_status()["partitions"]:
                if part["partition"] == 0:
                    return part
            return None

        # Silent for one sweep short of the timeout: still a member ...
        sim.step(ISR_TIMEOUT_S - INTERVAL_S)
        assert sim.isr_of(0) == [0, 1]
        assert doomed_partition()["under_replicated"] is False
        # ... and written off by the first sweep past it.
        sim.sweep()
        assert sim.isr_of(0) == [leader.shard_index]
        assert doomed_partition()["under_replicated"] is True
        assert injector.fired["link"] == 2
        errors = leader.metrics_snapshot()["counters"]
        assert errors["replication.push_errors.FaultInjected"] == 2
        # With the follower written off, the ISR is the leader alone and
        # acks=all makes progress again (Kafka's shrink-to-leader rule).
        leader.append_many(TOPIC, 0, [b"alone"], acks="all")
        assert leader.latest_offset(TOPIC, 0) == 2
        injector.heal_link(0, 1)
        sim.sweep()
        assert sim.isr_of(0) == [0, 1]
        assert sim.log(follower, 0).latest_offset == 2
        assert doomed_partition()["under_replicated"] is False
        membership = [
            (e.type, e.fields["follower"])
            for e in leader.events.events_since(0)
            if e.fields.get("partition") == 0
        ]
        assert membership == [
            ("isr_join", follower.shard_index),
            ("isr_evict", follower.shard_index),
            ("isr_join", follower.shard_index),
        ]

    def test_a_follower_too_far_behind_joins_only_once_it_is_within_the_lag(self, sim):
        leader = sim.leader_of(0)
        # One push carries 512 records: the first leaves the follower
        # further behind than MAX_LAG_RECORDS, the second within it.
        backlog = 512 + MAX_LAG_RECORDS + 1
        leader.append_many(TOPIC, 0, [b"x"] * backlog)
        sim.sweep()
        assert sim.isr_of(0) == [leader.shard_index]
        sim.sweep()
        assert sim.isr_of(0) == [0, 1]


class TestFirstContact:
    """A fresh pump resumes a follower from ``min(its log end, our
    high-watermark)``: below the watermark every replica agrees."""

    def _restarted(self, sim, follower_change):
        leader, follower = sim.leader_of(0), sim.follower_of(0)
        leader.append_many(TOPIC, 0, [b"r%d" % i for i in range(5)], acks="all")
        assert sim.log(leader, 0).high_watermark == 5
        follower_change(sim.log(follower, 0))
        leader.append_many(TOPIC, 0, [b"r5"])
        pushes = _spy_pushes(follower)
        sim.restart(leader)
        sim.step()
        assert [r.value for r in sim.log(follower, 0).replication_slice(0)[0]] == [
            b"r%d" % i for i in range(6)
        ]
        return pushes

    def test_a_follower_that_is_behind_resumes_from_its_own_end(self, sim):
        pushes = self._restarted(sim, lambda log: log.truncate_to(2))
        assert pushes == [(2, 4)]

    def test_a_diverged_suffix_is_resent_from_the_watermark(self, sim):
        # A deposed leader: two records past the watermark nobody acked.
        pushes = self._restarted(sim, lambda log: log.append_many([b"junk", b"junk"]))
        assert pushes == [(5, 1)]

    def test_a_follower_holding_part_of_a_batch_takes_all_of_it_again(self, sim):
        leader, follower = sim.leader_of(0), sim.follower_of(0)
        pid, epoch = leader.register_producer("p")
        leader.append_many(
            TOPIC, 0, [b"a", b"b", b"c"], producer_id=pid, producer_epoch=epoch,
            base_sequence=0, acks="all",
        )
        follower_log = sim.log(follower, 0)
        follower_log.truncate_to(1)  # respawned with the batch's head only
        pushes = _spy_pushes(follower)
        sim.restart(leader)
        sim.step()
        assert pushes == [(0, 3)]  # resumed at 1, rounded down to the base
        sim.move_leader(0, to=follower)
        replay = follower.append_many(
            TOPIC, 0, [b"a", b"b", b"c"], producer_id=pid, producer_epoch=epoch,
            base_sequence=0,
        )
        assert replay.base_offset == 0
        assert follower_log.latest_offset == 3


class TestFollowerResync:
    def test_diverged_follower_truncates_to_leader(self, sim):
        leader = sim.leader_of(0)
        follower = sim.follower_of(0)
        # Let the pump establish the ISR (arming the watermark fence)
        # before the logs diverge: first contact, then the first heartbeat.
        sim.sweep()
        sim.sweep()
        assert len(sim.isr_of(0)) == 2
        sim.log(follower, 0).append_many([b"junk1", b"junk2", b"junk3"])
        leader.append_many(TOPIC, 0, [b"real1", b"real2"])
        sim.restart(leader)
        sim.sweep()
        sim.sweep()  # the follower's own fence moves with the next push
        follower_log = sim.log(follower, 0)
        assert [r.value for r in follower_log.fetch(0, max_records=10)] == [
            b"real1",
            b"real2",
        ]
        assert follower_log.latest_offset == 2

    def test_a_heartbeat_finds_a_follower_that_came_back_with_less(self, sim):
        leader, follower = sim.settle(0), sim.follower_of(0)
        leader.append_many(TOPIC, 0, [b"a", b"b"], acks="all")
        # Respawned without its log, and nothing new to push: only the
        # heartbeat can notice (it used to ignore the refusal, and the
        # leader went on counting an empty replica as caught up).
        sim.log(follower, 0).truncate_to(0)
        sim.sweep()
        (part,) = [
            p for p in leader.replication_status()["partitions"] if p["partition"] == 0
        ]
        assert part["followers"][0]["lag"] == 3
        sim.sweep()
        assert sim.log(follower, 0).latest_offset == 3

    def test_stale_leader_epoch_is_fenced(self, sim):
        leader = sim.leader_of(0)
        follower = sim.follower_of(0)
        sim.move_leader(0, to=follower)
        with pytest.raises(StaleLeaderEpochError):
            follower.replicate_append(
                TOPIC,
                0,
                base_offset=0,
                records=[],
                leader=leader.shard_index,
                leader_epoch=0,
                high_watermark=0,
            )

    def test_producer_dedup_survives_leader_change(self, sim):
        old_leader = sim.leader_of(0)
        new_leader = sim.follower_of(0)
        pid, epoch = old_leader.register_producer("failover-producer")
        md = old_leader.append_many(
            TOPIC,
            0,
            [b"a", b"b"],
            producer_id=pid,
            producer_epoch=epoch,
            base_sequence=0,
            acks="all",
        )
        assert sim.log(new_leader, 0).latest_offset == 2
        # Leadership moves; the retried batch must dedup on the new
        # leader because the dedup window replicated with the data.
        sim.move_leader(0, to=new_leader)
        replay = new_leader.append_many(
            TOPIC,
            0,
            [b"a", b"b"],
            producer_id=pid,
            producer_epoch=epoch,
            base_sequence=0,
        )
        assert replay.base_offset == md.base_offset
        assert sim.log(new_leader, 0).latest_offset == 2


class TestDurableReplicaDedup:
    """A replica's dedup state on disk is fed by the batches it installs
    and nothing else, so it survives a crash exactly as a leader's does."""

    def test_a_follower_killed_before_its_first_roll_still_dedups(self, tmp_path):
        sim = _SimCluster(log_dir=tmp_path, storage=MANUAL)
        try:
            leader, follower = sim.leader_of(0), sim.follower_of(0)
            pid, epoch = leader.register_producer("p")
            leader.append_many(
                TOPIC, 0, [b"a", b"b"], producer_id=pid, producer_epoch=epoch,
                base_sequence=0, acks="all",
            )
            store = sim.log(follower, 0).storage
            store.flush()
            crash(store)
            elected = sim.reopen(follower, 0)
            replay = elected.append_many(
                [b"a", b"b"], producer_id=pid, producer_epoch=epoch, base_sequence=0
            )
            assert [r.offset for r in replay] == [0, 1]
            assert elected.duplicates_dropped == 2
            assert elected.latest_offset == 2
            elected.close()
        finally:
            sim.close()

    def test_a_push_landing_during_the_follower_s_flush_is_not_vouched_for(
        self, tmp_path
    ):
        rolling = StorageConfig(segment_bytes=1, flush_ms=60_000.0)
        sim = _SimCluster(log_dir=tmp_path, storage=rolling)
        try:
            leader, follower = sim.leader_of(0), sim.follower_of(0)
            pid, epoch = leader.register_producer("p")
            send = partial(
                leader.append_many, TOPIC, 0, producer_id=pid, producer_epoch=epoch
            )
            send([b"a", b"b"], base_sequence=0, acks="all")  # pushed at once
            send([b"c", b"d"], base_sequence=2)  # waits for the sweep
            store = sim.log(follower, 0).storage
            write = store._write_buffers

            def racing_write(buffers):
                write(buffers)
                sim.sweep()  # [c, d] lands while [a, b] is being written

            store._write_buffers = racing_write
            store.flush()  # [a, b] is durable and the segment rolls
            assert sim.log(follower, 0).latest_offset == 4
            assert (store.flushed_offset, store.counters["segments_sealed"]) == (2, 1)
            crash(store)  # [c, d] was never written
            elected = sim.reopen(follower, 0)
            assert elected.latest_offset == 2
            retry = elected.append_many(
                [b"c", b"d"], producer_id=pid, producer_epoch=epoch, base_sequence=2
            )
            assert [r.offset for r in retry] == [2, 3]
            assert elected.duplicates_dropped == 0
            elected.close()
        finally:
            sim.close()


class TestClusterClientSurface:
    def test_acks_all_via_wire_and_status_merge(self, mini):
        client = ClusterBroker(mini.addresses)
        try:
            producer = Producer(client, acks="all", retries=3)
            for partition in range(PARTITIONS):
                producer.send_many(
                    TOPIC, [b"r1", b"r2"], partition=partition
                )
            status = client.replication_status()
            assert status["replication_factor"] == 2
            seen = {p["partition"] for p in status["partitions"]}
            assert seen == set(range(PARTITIONS))
            for part in status["partitions"]:
                assert part["isr"] == [0, 1]
                assert part["high_watermark"] == 2
        finally:
            client.close()

    def test_invalid_acks_rejected(self):
        from repro.util.validation import ValidationError

        with pytest.raises(ValidationError):
            Producer(Broker(), acks="quorum")


class TestPartitionLinkRules:
    def test_link_rules_are_symmetric_and_healable(self):
        injector = FaultInjector()
        injector.partition_link(1, 0)
        with pytest.raises(FaultInjected):
            injector.on_replication(0, 1)
        with pytest.raises(FaultInjected):
            injector.on_replication(1, 0)
        # Unrelated pairs are untouched, and the rule never runs dry.
        injector.on_replication(0, 2)
        with pytest.raises(FaultInjected):
            injector.on_replication(0, 1)
        injector.heal_link(0, 1)
        injector.on_replication(0, 1)
        assert injector.fired["link"] == 3


class TestSliceSnapshotConsistency:
    """A push carries whole batches and names the idempotent ones; a
    replica's dedup table learns of nothing else."""

    def test_an_unpushed_batch_is_not_deduped(self):
        leader, follower = PartitionLog(TOPIC, 0), PartitionLog(TOPIC, 0)
        leader.append_many([b"a", b"b"], producer_id=7, base_sequence=0)
        leader.append_many([b"c", b"d"], producer_id=7, base_sequence=2)
        # The push that raced the second append (or hit the slice cap).
        records, log_end, _, batches = leader.replication_slice(0, max_records=2)
        assert [r.offset for r in records] == [0, 1]
        assert log_end == 4
        assert batches == [(7, 0, 0, 0, 2)]
        follower.install_replica_batch(0, records, batches)
        # Failover, and the client retries the batch that was not carried:
        # it is appended, not acked at offsets [2, 3] of a log ending at 2.
        retry = follower.append_many([b"c", b"d"], producer_id=7, base_sequence=2)
        assert [r.offset for r in retry] == [2, 3]
        assert follower.latest_offset == 4
        assert follower.duplicates_dropped == 0
        # The batch that *was* carried still dedups.
        replay = follower.append_many([b"a", b"b"], producer_id=7, base_sequence=0)
        assert [r.offset for r in replay] == [0, 1]
        assert follower.latest_offset == 4

    def test_batch_cut_by_the_slice_cap_is_left_out(self):
        leader = PartitionLog(TOPIC, 0)
        leader.append_many([b"x"])  # not idempotent: no bounds to keep
        leader.append_many([b"a", b"b"], producer_id=7, base_sequence=10)
        leader.append_many([b"c", b"d", b"e"], producer_id=7, base_sequence=12)
        records, _, _, batches = leader.replication_slice(0, max_records=4)
        assert [r.offset for r in records] == [0, 1, 2]
        assert batches == [(7, 0, 10, 1, 2)]
        # A start inside a batch rounds down to its base; a batch larger
        # than the cap that begins the push goes whole.
        records, _, _, batches = leader.replication_slice(4, max_records=2)
        assert [r.offset for r in records] == [3, 4, 5]
        assert batches == [(7, 0, 12, 3, 3)]
        assert leader.replication_slice(6) == ([], 6, 6, [])

    def test_capped_push_over_the_wire_then_failover(self, mini):
        leader, follower = mini.settle(0), mini.follower_of(0)
        pushes = []
        install = follower.replicate_append

        def spy(topic, partition, **kwargs):
            if kwargs["records"]:
                pushes.append(
                    (kwargs["base_offset"], len(kwargs["records"]), kwargs["batches"])
                )
            return install(topic, partition, **kwargs)

        follower.replicate_append = spy
        # A backlog one push cannot carry: 6 batches of 100 past the seed.
        leader.stop_replication()
        pid, epoch = leader.register_producer("capped")
        for batch in range(6):
            leader.append_many(
                TOPIC,
                0,
                [b"%d" % i for i in range(100)],
                producer_id=pid,
                producer_epoch=epoch,
                base_sequence=100 * batch,
            )
        leader.start_replication()
        follower_log = mini.log(follower, 0)
        assert _wait_until(lambda: follower_log.latest_offset == 601)
        assert len(pushes) >= 2  # the 512-record cap split it
        for base, count, batches in pushes:
            for _, _, _, offset, n in batches:
                assert base <= offset and offset + n <= base + count
        # The cap fell inside the sixth batch: the first push ends before
        # it. The first batch had left the dedup window, so it travelled
        # as plain records.
        base, count, batches = pushes[0]
        assert (base, count) == (1, 500)
        assert [tuple(b) for b in batches] == [
            (pid, epoch, 100 * k, 1 + 100 * k, 100) for k in range(1, 5)
        ]
        # Leadership moves; the retried last batch dedups at its offsets.
        assert _wait_until(lambda: leader.latest_offset(TOPIC, 0) == 601)
        mini.move_leader(0, to=follower)
        replay = follower.append_many(
            TOPIC,
            0,
            [b"%d" % i for i in range(100)],
            producer_id=pid,
            producer_epoch=epoch,
            base_sequence=500,
        )
        assert replay.base_offset == 501
        assert follower_log.latest_offset == 601


class TestFenceWaitHook:
    """Appends behind an armed fence wake nobody; the log reports a
    waiter left behind the fence to its owner instead."""

    def test_append_wakes_waiters_only_when_it_moves_the_visible_end(self):
        log = PartitionLog(TOPIC, 0)
        waiter = threading.Event()
        log.register_waiter(waiter)
        log.append_many([b"a"])
        assert waiter.is_set()  # unfenced: the log end is the visible end
        waiter.clear()
        log.set_high_watermark(1)
        waiter.clear()
        log.append_many([b"b"])
        assert not waiter.is_set()  # behind the fence: nothing to see yet
        log.set_high_watermark(2)
        assert waiter.is_set()

    def test_blocked_fetch_still_wakes_on_the_watermark(self):
        log = PartitionLog(TOPIC, 0)
        log.set_high_watermark(0)
        got = []
        reader = threading.Thread(
            target=lambda: got.extend(log.fetch(0, max_records=4, timeout=10.0))
        )
        reader.start()
        assert _wait_until(lambda: log.long_polls_parked == 1)
        log.append_many([b"a"])
        log.set_high_watermark(1)
        reader.join(5.0)
        assert not reader.is_alive()
        assert [r.value for r in got] == [b"a"]

    def test_hook_fires_when_a_waiter_is_left_behind_the_fence(self):
        log = PartitionLog(TOPIC, 0)
        fired = []
        log.on_fence_wait = lambda: fired.append(1)
        log.append_many([b"a"])  # unfenced, nobody waiting
        log.set_high_watermark(1)
        log.append_many([b"b"])  # fenced, nobody waiting
        assert fired == []
        waiter = threading.Event()
        log.register_waiter(waiter)  # offset 1 sits behind the fence
        assert fired == [1]
        log.append_many([b"c"])  # lands behind the fence, somebody waiting
        assert fired == [1, 1]
        log.unregister_waiter(waiter)
        log.set_high_watermark(3)
        log.register_waiter(waiter)  # caught up: nothing to hurry
        assert fired == [1, 1]


class TestEventDrivenPump:
    def test_leader_acked_record_reaches_a_parked_consumer_without_the_timer(self):
        # Over the wire, pump threads running — on a clock that stands
        # still, so after each pump's first cycle no sweep ever comes due.
        mini = _MiniCluster(now=_Clock())
        client = ClusterBroker(mini.addresses)
        consumer = Consumer(client)
        try:
            leader = mini.settle(0)
            consumer.assign([(TOPIC, 0)])
            consumer.seek(TOPIC, 0, 1)
            got = []
            parked_before = mini.log(leader, 0).long_polls_parked
            reader = threading.Thread(
                target=lambda: got.extend(consumer.poll(max_records=8, timeout=4.0))
            )
            reader.start()
            assert _wait_until(
                lambda: mini.log(leader, 0).long_polls_parked > parked_before
            )
            leader.append_many(TOPIC, 0, [b"parked-first"])  # acks=leader
            reader.join(5.0)
            assert not reader.is_alive()
            assert [r.value for r in got] == [b"parked-first"]
            # The other order: the record is already behind the fence
            # when the fetch arrives and parks.
            leader.append_many(TOPIC, 0, [b"appended-first"])
            assert leader.latest_offset(TOPIC, 0) == 2  # nobody asked yet
            values = [r.value for r in consumer.poll(max_records=8, timeout=4.0)]
            assert values == [b"appended-first"]
        finally:
            consumer.close()
            client.close()
            mini.close()

    def test_acks_all_does_not_wait_for_the_timer(self, sim):
        leader = sim.settle(0)
        leader.acks_timeout_s = 0.0
        leader.append_many(TOPIC, 0, [b"a", b"b"], acks="all")
        assert sim.log(sim.follower_of(0), 0).latest_offset == 3
        assert leader.replicator.step() > 0  # and the sweep is still to come

    def test_append_stream_does_not_starve_the_sweep(self, sim):
        leader = sim.settle(0)
        rep = leader.replicator
        # An idle partition led by the same shard as the busy one: with
        # nobody waiting on it, only the sweep ships its records.
        for broker in sim.brokers:
            broker.create_topic("idle", num_partitions=4)
        idle = next(
            p for p in range(4) if sim.leader_of(p, "idle") is leader
        )
        idle_follower_log = sim.log(sim.follower_of(0), idle, "idle")
        leader.append_many("idle", idle, [b"unwaited"])
        sim.park_waiter(0)
        deadline = sim.clock() + rep.step()
        # A wake per append, 40 of them across most of an interval: the
        # deadline neither moves out (starved) nor comes early (hurried).
        for _ in range(40):
            sim.clock.advance(INTERVAL_S / 50)
            leader.append_many(TOPIC, 0, [b"x"])
            assert sim.clock() + rep.step() == pytest.approx(deadline)
            assert idle_follower_log.latest_offset == 0
        assert sim.log(sim.follower_of(0), 0).latest_offset == 41
        sim.clock.advance(deadline - sim.clock())
        leader.append_many(TOPIC, 0, [b"x"])  # this wake finds the sweep due
        assert idle_follower_log.latest_offset == 1

    def test_appends_during_a_slow_push_ride_the_next_one(self):
        # No inline cycle: the pump is "busy" for as long as the test
        # does not step it, and every append in that window marks.
        sim = _SimCluster(inline=False)
        leader, follower = sim.settle(0), sim.follower_of(0)
        sim.park_waiter(0)
        pushes = _spy_pushes(follower)
        appends = 200
        for i in range(appends):
            leader.append_many(TOPIC, 0, [b"%d" % i])
        assert leader.replicator.step() > 0  # a demand cycle, not the sweep
        assert pushes == [(1, appends)]
        leader_log, follower_log = sim.log(leader, 0), sim.log(follower, 0)
        assert [r.value for r in follower_log.replication_slice(0)[0]] == [
            r.value for r in leader_log.replication_slice(0)[0]
        ]

    def test_the_caught_up_heartbeat_fires_at_most_once_per_interval(self, sim):
        leader, follower = sim.settle(0), sim.follower_of(0)
        pushes = _spy_pushes(follower)
        # Ten intervals of wake-ups, a hundred to the interval.
        for _ in range(1000):
            sim.clock.advance(INTERVAL_S / 100)
            leader.replicator.mark_dirty(TOPIC, 0)
        assert all(count == 0 for _, count in pushes)
        assert 5 <= len(pushes) <= 10

    def test_marks_for_a_partition_the_shard_stopped_leading_are_dropped(self, sim):
        old, new = sim.settle(0), sim.follower_of(0)
        rep = old.replicator
        pumped = []
        pump = rep._pump_partition

        def spy(name, partition, meta):
            pumped.append((name, partition, meta.epoch))
            return pump(name, partition, meta)

        rep._pump_partition = spy
        sim.park_waiter(0)
        old.append_many(TOPIC, 0, [b"x"])
        assert pumped == [(TOPIC, 0, 1)]
        # Epoch bump: partition 0 moves to the follower, and the sweep
        # the new map asks for forgets the partition.
        sim.move_leader(0, to=new)
        with pytest.raises(NotOwnerError):
            old.append_many(TOPIC, 0, [b"x"])
        rep.step()
        assert old.replication_status()["partitions"] == []
        # A mark that raced the bump is drained, not pumped.
        rep.mark_dirty(TOPIC, 0)
        assert not rep._dirty
        assert [call for call in pumped if call[2] >= 2] == []


class TestPumpErrors:
    def test_a_failing_pump_is_counted_and_paced_by_the_interval(self):
        sim = _SimCluster(inline=False)
        leader = sim.settle(0)
        rep = leader.replicator
        cycles = []

        def boom(name, partition, meta):
            cycles.append(1)
            raise RuntimeError("boom")

        rep._pump_partition = boom
        errors = leader.registry.counter("replication.pump_errors.RuntimeError")
        rep.mark_dirty(TOPIC, 0)
        assert rep.step() == INTERVAL_S
        assert (len(cycles), errors.value) == (1, 1)
        # Marks at append rate while it sits the interval out: no cycle.
        for _ in range(200):
            sim.clock.advance(INTERVAL_S / 400)
            rep.mark_dirty(TOPIC, 0)
            assert 0 < rep.step() < INTERVAL_S
        assert (len(cycles), errors.value) == (1, 1)
        # ... and the marks kept: the next cycle is theirs (or the sweep's).
        sim.sweep()
        assert (len(cycles), errors.value) == (2, 2)

    def test_a_failing_pump_is_counted_with_telemetry_off(self, sim):
        # The default: telemetry gates the tracer only, so "not silent"
        # holds for the CLI and the benchmark's untraced pass too.
        leader = sim.settle(0)
        assert leader.tracer is None

        def boom(name, partition, meta):
            raise RuntimeError("boom")

        leader.replicator._pump_partition = boom
        sim.sweep()
        name = "replication.pump_errors.RuntimeError"
        assert leader.metrics_snapshot()["counters"][name] == 1

    def test_a_failed_push_is_counted_by_type_and_spares_the_other_followers(self):
        sim = _SimCluster(num_shards=3, replication_factor=3)
        leader = sim.settle(0)
        first, second = [
            sim.brokers[i]
            for i in replica_indices(TOPIC, 0, 3, 3)
            if i != leader.shard_index
        ]

        def broken(topic, partition, **kwargs):
            raise TypeError("a bug of ours, not an unreachable follower")

        first.replicate_append = broken
        leader.append_many(TOPIC, 0, [b"x"])
        sim.sweep()
        counters = leader.metrics_snapshot()["counters"]
        assert counters["replication.push_errors.TypeError"] == 1
        assert "replication.pump_errors.TypeError" not in counters
        assert sim.log(second, 0).latest_offset == 2


class TestElection:
    """:func:`elect_leaders` — the rule, with log ends handed in."""

    TOPICS = [("a", 4)]

    def _elect(self, leaders, dead, ends, num_shards=3, rf=3):
        return elect_leaders(
            leaders,
            self.TOPICS,
            num_shards,
            rf,
            dead,
            lambda index, topic, partition: ends.get(index),
        )

    def test_the_longest_surviving_log_wins_and_the_epoch_moves_by_one(self):
        dead = shard_for_partition("a", 0, 3)
        near, far = (dead + 1) % 3, (dead + 2) % 3
        moved = self._elect({}, dead, {near: 5, far: 9})
        # Only the partitions the dead shard led: with 4 partitions on
        # 3 shards that is partitions 0 and 3.
        assert moved == [("a", 0, far, 1, 9), ("a", 3, far, 1, 9)]
        # A tie goes to the preferred (earlier) replica; a partition
        # that already moved once gets its next epoch.
        moved = self._elect({("a", 0): (dead, 4)}, dead, {near: 7, far: 7})
        assert moved[0] == ("a", 0, near, 5, 7)

    def test_dead_and_unanswering_replicas_are_skipped(self):
        dead = shard_for_partition("a", 0, 3)
        near, far = (dead + 1) % 3, (dead + 2) % 3
        # The dead shard is never asked; near does not answer.
        moved = self._elect({}, dead, {dead: 99, far: 2})
        assert [entry[2:] for entry in moved] == [(far, 1, 2), (far, 1, 2)]

    def test_no_live_replica_leaves_the_slot_alone(self):
        dead = shard_for_partition("a", 0, 3)
        assert self._elect({}, dead, {}) == []
        # rf=2: partition 0's only other replica is the next slot.
        assert self._elect({}, dead, {(dead + 2) % 3: 4}, rf=2) == []

    def test_partitions_led_elsewhere_are_ignored(self):
        dead = shard_for_partition("a", 0, 3)
        other = (dead + 1) % 3
        # Partition 0 already moved to `other`; 3 still sits on the slot.
        moved = self._elect({("a", 0): (other, 1)}, dead, {other: 1, (dead + 2) % 3: 1})
        assert [entry[:2] for entry in moved] == [("a", 3)]
        # And when `other` dies it takes its override with it.
        moved = self._elect({("a", 0): (other, 1)}, other, {dead: 3})
        assert ("a", 0, dead, 2, 3) in moved


class TestSimulatedFailover:
    def test_join_evict_readmit_then_election_on_in_memory_peers(self):
        """The whole replication story with no socket, thread or sleep:
        three shards, rf=3, the clock and the links in the test's hand."""
        sim = _SimCluster(num_shards=3, replication_factor=3)
        leader = sim.settle(0)
        near, far = [
            sim.brokers[i]
            for i in replica_indices(TOPIC, 0, 3, 3)
            if i != leader.shard_index
        ]
        assert sim.isr_of(0) == [0, 1, 2]
        # One link drops: that follower is evicted, the other holds the
        # watermark, and acks=all goes on with an ISR of two.
        injector = FaultInjector()
        leader.fault_injector = injector
        injector.partition_link(leader.shard_index, far.shard_index)
        sim.step(ISR_TIMEOUT_S)
        sim.sweep()
        assert sim.isr_of(0) == sorted([leader.shard_index, near.shard_index])
        leader.append_many(TOPIC, 0, [b"acked-1", b"acked-2"], acks="all")
        assert (sim.log(near, 0).latest_offset, sim.log(far, 0).latest_offset) == (3, 1)
        injector.heal_link(leader.shard_index, far.shard_index)
        sim.sweep()
        assert sim.isr_of(0) == [0, 1, 2]
        # The link drops again and the leader dies holding one record
        # only `near` has: near's log is the longest, so near wins.
        injector.partition_link(leader.shard_index, far.shard_index)
        leader.append_many(TOPIC, 0, [b"near-only"])
        sim.sweep()
        sim.peers.down.add(leader.shard_index)

        def log_end(index, topic, partition):
            if index in sim.peers.down:
                return None
            return sim.brokers[index].replica_ack(topic, partition)["log_end"]

        moved = elect_leaders(
            {}, [(TOPIC, PARTITIONS)], 3, 3, leader.shard_index, log_end
        )
        assert (TOPIC, 0, near.shard_index, 1, 4) in moved
        for broker in sim.brokers:
            broker.set_cluster(sim.addresses, 2, leaders=[m[:4] for m in moved])
        # The new leader serves every acked record at once and brings
        # `far` up; the record only it held becomes visible when the dead
        # replica's grace window is over and stops holding the watermark.
        sim.sweep()
        sim.sweep()
        acked = [b"seed", b"acked-1", b"acked-2"]
        assert [r.value for r in near.fetch(TOPIC, 0, 0, max_records=10)] == acked
        assert sim.log(far, 0).latest_offset == 4
        sim.step(ISR_TIMEOUT_S)
        values = [r.value for r in near.fetch(TOPIC, 0, 0, max_records=10)]
        assert values == acked + [b"near-only"]
        # The old leader comes back as a follower with a suffix nobody
        # else has; first contact truncates it.
        sim.log(leader, 0).append_many([b"never-acked"])
        sim.peers.down.discard(leader.shard_index)
        sim.restart(leader)
        sim.sweep()
        sim.sweep()
        assert [r.value for r in sim.log(leader, 0).replication_slice(0)[0]] == values
        assert sorted(near.replication_status()["partitions"][0]["isr"]) == [0, 1, 2]
