"""In-process replication tests: leaders, followers, ISR, high-watermark.

A miniature cluster — N :class:`ShardBroker` instances each behind a
:class:`ReactorBrokerServer` in *this* process — exercises the
replication pump deterministically: the fault injector's
``partition_link`` severs leader→follower traffic without killing
anything, so ISR eviction, acks=all timeouts, and readmission are
observable without multiprocess chaos (that lives in
``tests/integration/test_failover_chaos.py``).
"""

import threading
import time

import pytest

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
from repro.broker.reactor import ReactorBrokerServer
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


class _MiniCluster:
    """N replicated shards, servers and replication pumps running."""

    def __init__(
        self, num_shards: int = 2, replication_factor: int = 2, **broker_kwargs
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
            broker.start_replication()

    def leader_of(self, partition: int) -> ShardBroker:
        return self.brokers[shard_for_partition(TOPIC, partition, len(self.brokers))]

    def follower_of(self, partition: int) -> ShardBroker:
        leader = shard_for_partition(TOPIC, partition, len(self.brokers))
        followers = [
            i
            for i in replica_indices(
                TOPIC, partition, len(self.brokers), self.brokers[0].replication_factor
            )
            if i != leader
        ]
        return self.brokers[followers[0]]

    def log(self, broker: ShardBroker, partition: int):
        # Base-class access: follower logs are guarded on the shard surface.
        return Broker.partition_log(broker, TOPIC, partition)

    def isr_of(self, partition: int, topic: str = TOPIC) -> list:
        leader = self.brokers[shard_for_partition(topic, partition, len(self.brokers))]
        for part in leader.replication_status()["partitions"]:
            if (part["topic"], part["partition"]) == (topic, partition):
                return part["isr"]
        return []

    def park_waiter(self, partition: int) -> threading.Event:
        """Stand in for a parked consumer on the partition's leader log:
        with a waiter registered every append wakes the pump."""
        waiter = threading.Event()
        self.log(self.leader_of(partition), partition).register_waiter(waiter)
        return waiter

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
    def test_records_replicate_and_become_visible(self, mini):
        leader = mini.leader_of(0)
        leader.append_many(TOPIC, 0, [b"a", b"b", b"c"], acks="all")
        follower_log = mini.log(mini.follower_of(0), 0)
        assert follower_log.latest_offset == 3
        assert follower_log.high_watermark == 3 or _wait_until(
            lambda: follower_log.high_watermark == 3
        )
        assert [r.value for r in leader.fetch(TOPIC, 0, 0, max_records=10)] == [
            b"a",
            b"b",
            b"c",
        ]

    def test_unreplicated_records_stay_invisible_until_link_heals(self, mini):
        leader = mini.leader_of(0)
        injector = FaultInjector()
        leader.append_many(TOPIC, 0, [b"seed"], acks="all")
        assert _wait_until(lambda: len(mini.isr_of(0)) == 2)
        # Hold membership: only the link drops, nobody gets evicted.
        leader._replicator.isr_timeout_s = 60.0
        leader.fault_injector = injector
        injector.partition_link(0, 1)
        leader.append_many(TOPIC, 0, [b"dark1", b"dark2"])  # leader-acked
        assert mini.log(leader, 0).latest_offset == 3
        # Consumers see only ISR-covered records: nothing past the seed.
        assert leader.latest_offset(TOPIC, 0) == 1
        assert leader.fetch(TOPIC, 0, 1, max_records=10) == []
        injector.heal_link(0, 1)
        assert _wait_until(lambda: leader.latest_offset(TOPIC, 0) == 3)
        assert [r.value for r in leader.fetch(TOPIC, 0, 1, max_records=10)] == [
            b"dark1",
            b"dark2",
        ]

    def test_acks_all_times_out_retriably_when_isr_stalls(self, mini):
        leader = mini.leader_of(0)
        leader.append_many(TOPIC, 0, [b"seed"], acks="all")
        assert _wait_until(lambda: len(mini.isr_of(0)) == 2)
        leader._replicator.isr_timeout_s = 60.0
        leader.acks_timeout_s = 0.3
        injector = FaultInjector()
        leader.fault_injector = injector
        injector.partition_link(0, 1)
        with pytest.raises(NotEnoughReplicasError) as excinfo:
            leader.append_many(TOPIC, 0, [b"stuck"], acks="all")
        assert is_retriable(excinfo.value)

    def test_partition_depths_report_visible_end(self, mini):
        leader = mini.leader_of(0)
        leader.append_many(TOPIC, 0, [b"seed"], acks="all")
        assert _wait_until(lambda: len(mini.isr_of(0)) == 2)
        leader._replicator.isr_timeout_s = 60.0
        injector = FaultInjector()
        leader.fault_injector = injector
        injector.partition_link(0, 1)
        leader.append_many(TOPIC, 0, [b"dark"])
        depths = leader.partition_depths()[(TOPIC, 0)]
        assert depths["end_offset"] == 1
        assert depths["depth"] == 1


class TestIsrEviction:
    def test_link_partition_evicts_then_readmits(self, mini):
        leader = mini.leader_of(0)
        leader.append_many(TOPIC, 0, [b"seed"], acks="all")
        assert _wait_until(lambda: len(mini.isr_of(0)) == 2)
        leader._replicator.isr_timeout_s = 0.2
        leader.acks_timeout_s = 10.0
        injector = FaultInjector()
        leader.fault_injector = injector
        injector.partition_link(0, 1)
        assert _wait_until(lambda: mini.isr_of(0) == [leader.shard_index])

        def doomed_partition():
            for part in leader.replication_status()["partitions"]:
                if part["partition"] == 0:
                    return part
            return None

        assert doomed_partition()["under_replicated"] is True
        assert injector.fired.get("link", 0) > 0
        # With the follower written off, the ISR is the leader alone and
        # acks=all makes progress again (Kafka's shrink-to-leader rule).
        leader.append_many(TOPIC, 0, [b"alone"], acks="all")
        assert leader.latest_offset(TOPIC, 0) == 2
        injector.heal_link(0, 1)
        assert _wait_until(lambda: len(mini.isr_of(0)) == 2)
        assert _wait_until(
            lambda: mini.log(mini.follower_of(0), 0).latest_offset == 2
        )
        assert doomed_partition()["under_replicated"] is False


class TestFollowerResync:
    def test_diverged_follower_truncates_to_leader(self, mini):
        leader = mini.leader_of(0)
        follower = mini.follower_of(0)
        # Let the pump establish the ISR (arming the watermark fence),
        # then stop it so divergence survives long enough to matter.
        assert _wait_until(lambda: len(mini.isr_of(0)) == 2)
        leader.stop_replication()
        mini.log(follower, 0).append_many([b"junk1", b"junk2", b"junk3"])
        leader.append_many(TOPIC, 0, [b"real1", b"real2"])
        leader.start_replication()
        follower_log = mini.log(follower, 0)
        assert _wait_until(
            lambda: [r.value for r in follower_log.fetch(0, max_records=10)]
            == [b"real1", b"real2"]
        )
        assert follower_log.latest_offset == 2

    def test_stale_leader_epoch_is_fenced(self, mini):
        leader = mini.leader_of(0)
        follower = mini.follower_of(0)
        overrides = [(TOPIC, 0, follower.shard_index, 1)]
        for broker in mini.brokers:
            broker.set_cluster(mini.addresses, 2, leaders=overrides)
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

    def test_producer_dedup_survives_leader_change(self, mini):
        old_leader = mini.leader_of(0)
        new_leader = mini.follower_of(0)
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
        assert _wait_until(
            lambda: mini.log(new_leader, 0).latest_offset == 2
        )
        # Leadership moves; the retried batch must dedup on the new
        # leader because the dedup window replicated with the data.
        overrides = [(TOPIC, 0, new_leader.shard_index, 1)]
        for broker in mini.brokers:
            broker.set_cluster(mini.addresses, 2, leaders=overrides)
        replay = new_leader.append_many(
            TOPIC,
            0,
            [b"a", b"b"],
            producer_id=pid,
            producer_epoch=epoch,
            base_sequence=0,
        )
        assert replay.base_offset == md.base_offset
        assert mini.log(new_leader, 0).latest_offset == 2


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


def _freeze_sweeps(cluster: _MiniCluster) -> None:
    """Push every pump's sweep deadline 5 s out, so that whatever
    replicates in a test's window can only have gone the event path."""
    for broker in cluster.brokers:
        broker._replicator.interval_s = 5.0
    assert _wait_until(
        lambda: all(
            b._replicator._sweep_at - time.monotonic() > 2.0 for b in cluster.brokers
        )
    )


class TestSliceSnapshotConsistency:
    """The dedup snapshot a push carries never reaches past its records."""

    def test_snapshot_is_clipped_to_the_slice(self):
        leader, follower = PartitionLog(TOPIC, 0), PartitionLog(TOPIC, 0)
        leader.append_many([b"a", b"b"], producer_id=7, base_sequence=0)
        leader.append_many([b"c", b"d"], producer_id=7, base_sequence=2)
        # The push that raced the second append (or hit the slice cap).
        records, log_end, _, producers = leader.replication_slice(0, max_records=2)
        assert [r.offset for r in records] == [0, 1]
        assert log_end == 4
        assert producers == {
            "7": {"epoch": 0, "last_sequence": 1, "recent": [[0, 0, 2]]}
        }
        follower.install_replica_batch(0, records)
        follower.install_producer_state(producers)
        # Failover, and the client retries the batch that was not carried:
        # it is appended (it used to be "deduplicated" and acked at
        # offsets [2, 3] of a log that ended at 2).
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
        leader.append_many([b"a", b"b", b"c"], producer_id=7, base_sequence=10)
        records, _, _, producers = leader.replication_slice(0, max_records=2)
        assert len(records) == 2
        assert producers == {"7": {"epoch": 0, "last_sequence": 9, "recent": []}}
        assert leader.replication_slice(3) == ([], 3, 3, None)

    def test_capped_push_over_the_wire_then_failover(self, mini):
        leader, follower = mini.settle(0), mini.follower_of(0)
        pushes = []
        install = follower.replicate_append

        def spy(topic, partition, **kwargs):
            if kwargs["records"]:
                pushes.append(
                    (kwargs["base_offset"] + len(kwargs["records"]), kwargs["producers"])
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
        for end, producers in pushes:
            state = producers[str(pid)]
            assert all(offset + n <= end for _, offset, n in state["recent"])
            if state["recent"]:
                seq, _, n = state["recent"][-1]
                assert state["last_sequence"] == seq + n - 1
        first_end, first = pushes[0]
        assert first_end == 513
        assert first[str(pid)]["last_sequence"] == 499
        # Leadership moves; the retried last batch dedups at its offsets.
        assert _wait_until(lambda: leader.latest_offset(TOPIC, 0) == 601)
        for broker in mini.brokers:
            broker.set_cluster(
                mini.addresses, 2, leaders=[(TOPIC, 0, follower.shard_index, 1)]
            )
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
    def test_leader_acked_record_reaches_a_parked_consumer_without_the_timer(
        self, mini
    ):
        leader = mini.settle(0)
        _freeze_sweeps(mini)
        client = ClusterBroker(mini.addresses)
        consumer = Consumer(client)
        try:
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
            start = time.monotonic()
            leader.append_many(TOPIC, 0, [b"parked-first"])  # acks=leader
            reader.join(5.0)
            assert not reader.is_alive()
            assert [r.value for r in got] == [b"parked-first"]
            assert time.monotonic() - start < 1.0
            # The other order: the record is already behind the fence
            # when the fetch arrives and parks.
            start = time.monotonic()
            leader.append_many(TOPIC, 0, [b"appended-first"])
            assert leader.latest_offset(TOPIC, 0) == 2  # nobody asked yet
            values = [r.value for r in consumer.poll(max_records=8, timeout=4.0)]
            assert values == [b"appended-first"]
            assert time.monotonic() - start < 1.0
        finally:
            consumer.close()
            client.close()

    def test_acks_all_does_not_wait_for_the_timer(self, mini):
        leader = mini.settle(0)
        _freeze_sweeps(mini)
        start = time.monotonic()
        leader.append_many(TOPIC, 0, [b"a", b"b"], acks="all")
        assert time.monotonic() - start < 1.0
        assert mini.log(mini.follower_of(0), 0).latest_offset == 3

    def test_append_stream_does_not_starve_the_sweep(self, mini):
        leader = mini.settle(0)
        # An idle partition led by the same shard as the busy one.
        for broker in mini.brokers:
            broker.create_topic("idle", num_partitions=4)
        idle = next(
            p
            for p in range(4)
            if shard_for_partition("idle", p, 2) == leader.shard_index
        )
        assert _wait_until(lambda: len(mini.isr_of(idle, "idle")) == 2)
        mini.park_waiter(0)
        stop = threading.Event()
        appended = []

        def stream():
            # ~2k appends/s: a wake per append without hogging the
            # interpreter lock the pump itself needs.
            while not stop.wait(0.0005):
                leader.append_many(TOPIC, 0, [b"x"])
                appended.append(1)

        writer = threading.Thread(target=stream)
        writer.start()
        try:
            assert _wait_until(lambda: len(appended) >= 200)
            assert len(mini.isr_of(idle, "idle")) == 2
            # Evict / heal happen on the idle partition's own pump, which
            # only the sweep runs.
            leader._replicator.isr_timeout_s = 0.2
            injector = FaultInjector()
            leader.fault_injector = injector
            injector.partition_link(0, 1)
            assert _wait_until(
                lambda: mini.isr_of(idle, "idle") == [leader.shard_index]
            )
            injector.heal_link(0, 1)
            assert _wait_until(lambda: len(mini.isr_of(idle, "idle")) == 2)
            assert writer.is_alive()
        finally:
            stop.set()
            writer.join(5.0)
        assert not writer.is_alive()
        follower_log = mini.log(mini.follower_of(0), 0)
        assert _wait_until(
            lambda: follower_log.latest_offset == mini.log(leader, 0).latest_offset
        )

    def test_appends_during_a_slow_push_ride_the_next_one(self, mini):
        leader, follower = mini.settle(0), mini.follower_of(0)
        _freeze_sweeps(mini)
        link = leader._replicator._remotes[follower.shard_index]
        injector = FaultInjector()
        injector.delay_next(0.05, n=1000, op="replicate_append")
        link.fault_injector = injector
        mini.park_waiter(0)
        before = mini.servers[follower.shard_index].op_counts.get("replicate_append", 0)
        appends = 200
        for i in range(appends):
            leader.append_many(TOPIC, 0, [b"%d" % i])
        leader_log, follower_log = mini.log(leader, 0), mini.log(follower, 0)
        assert _wait_until(lambda: follower_log.latest_offset == 1 + appends)
        pushes = (
            mini.servers[follower.shard_index].op_counts["replicate_append"] - before
        )
        assert 1 <= pushes <= appends // 10
        # Raw reads: with sweeps frozen the follower's own fence trails.
        assert [r.value for r in follower_log.replication_slice(0)[0]] == [
            r.value for r in leader_log.replication_slice(0)[0]
        ]

    def test_marks_for_a_partition_the_shard_stopped_leading_are_dropped(self, mini):
        old, new = mini.settle(0), mini.follower_of(0)
        rep = old._replicator
        pumped = []
        pump = rep._pump_partition

        def spy(name, partition, meta):
            pumped.append((name, partition, meta.epoch))
            return pump(name, partition, meta)

        rep._pump_partition = spy
        mini.park_waiter(0)
        appended = []

        def stream():
            try:
                while True:
                    old.append_many(TOPIC, 0, [b"x"])
                    appended.append(1)
            except NotOwnerError:
                pass

        writer = threading.Thread(target=stream)
        writer.start()
        assert _wait_until(lambda: len(appended) >= 100 and (TOPIC, 0, 1) in pumped)
        # Epoch bump mid-stream: partition 0 moves to the follower.
        for broker in mini.brokers:
            broker.set_cluster(
                mini.addresses, 2, leaders=[(TOPIC, 0, new.shard_index, 1)]
            )
        writer.join(5.0)
        assert not writer.is_alive()
        # A mark that raced the bump; the pump is one thread, so once a
        # second mark has been drained the first one's cycle is over.
        for _ in range(2):
            rep.mark_dirty(TOPIC, 0)
            assert _wait_until(lambda: not rep._dirty)
        assert [call for call in pumped if call[0] == TOPIC and call[2] >= 2] == []
        assert _wait_until(lambda: old.replication_status()["partitions"] == [])


class TestPumpErrors:
    def test_a_failing_pump_is_counted_and_paced_by_the_interval(self):
        cluster = _MiniCluster(telemetry=True)
        try:
            leader = cluster.settle(0)
            rep = leader._replicator
            rep.interval_s = 0.05
            cycles = []

            def boom(name, partition, meta):
                cycles.append(1)
                raise RuntimeError("boom")

            start = time.monotonic()
            rep._pump_partition = boom
            cluster.park_waiter(0)
            for _ in range(200):
                leader.append_many(TOPIC, 0, [b"x"])
            assert _wait_until(lambda: len(cycles) >= 2)
            failed = len(cycles)
            elapsed = time.monotonic() - start
            assert failed <= elapsed / rep.interval_s + 2
            errors = leader.registry.counter("replication.pump_errors.RuntimeError")
            assert _wait_until(lambda: errors.value == len(cycles))
        finally:
            cluster.close()

    def test_a_failing_pump_is_counted_with_telemetry_off(self, mini):
        # The default: telemetry gates the tracer only, so "not silent"
        # holds for the CLI and the benchmark's untraced pass too.
        leader = mini.settle(0)
        assert leader.tracer is None

        def boom(name, partition, meta):
            raise RuntimeError("boom")

        leader._replicator._pump_partition = boom
        name = "replication.pump_errors.RuntimeError"
        assert _wait_until(
            lambda: leader.metrics_snapshot()["counters"].get(name, 0) >= 1
        )
