"""Tests for the sharded multi-core broker: ownership metadata, the
NotOwnerError contract, client-side routing, bootstrap fall-through,
supervisor lifecycle, and wire backward compatibility."""

import multiprocessing
import socket
import threading
import time

import pytest

from repro.broker import (
    Broker,
    ClusterBroker,
    ClusterBrokerSupervisor,
    ClusterMetadata,
    Consumer,
    NotOwnerError,
    Producer,
    ShardBroker,
    connect_bootstrap,
    coordinator_shard,
    shard_for_partition,
)
from repro.broker.errors import DisconnectedError
from repro.broker.remote import (
    BrokerServer,
    RemoteBroker,
    RemoteRetriableError,
)
from repro.broker.wire import encode_frame, recv_frame, sendall_vectored
from repro.util.validation import ValidationError


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# -- ownership metadata -------------------------------------------------------


class TestMetadata:
    def test_shard_for_partition_is_deterministic_and_in_range(self):
        for topic in ("a", "pilot-edge-data", "x" * 80):
            for partition in range(16):
                owner = shard_for_partition(topic, partition, 4)
                assert 0 <= owner < 4
                assert owner == shard_for_partition(topic, partition, 4)

    def test_one_topic_spreads_over_consecutive_shards(self):
        owners = {shard_for_partition("t", p, 4) for p in range(4)}
        assert owners == {0, 1, 2, 3}

    def test_single_shard_owns_everything(self):
        assert shard_for_partition("t", 7, 1) == 0
        assert shard_for_partition("t", 7, 0) == 0
        assert coordinator_shard("g", 1) == 0

    def test_coordinator_shard_in_range(self):
        for group in ("g1", "analytics", ""):
            assert 0 <= coordinator_shard(group, 3) < 3

    def test_wire_roundtrip(self):
        meta = ClusterMetadata(epoch=3, shards=(("127.0.0.1", 9101), ("127.0.0.1", 9102)))
        again = ClusterMetadata.from_wire(meta.to_wire())
        assert again == meta
        assert again.num_shards == 2
        assert again.owner("t", 0) in meta.shards
        assert again.coordinator("g") in meta.shards


# -- shard-side ownership enforcement ----------------------------------------


class TestShardBroker:
    def _shard(self, index: int, num_shards: int = 2) -> ShardBroker:
        shard = ShardBroker(shard_index=index, num_shards=num_shards)
        shard.set_cluster(
            [("127.0.0.1", 9101 + i) for i in range(num_shards)], epoch=1
        )
        shard.create_topic("t", 4, exist_ok=True)
        return shard

    def test_owned_partition_accepts_appends(self):
        shard = self._shard(shard_for_partition("t", 0, 2))
        md = shard.append("t", 0, b"x")
        assert md.offset == 0
        [record] = shard.fetch("t", 0, 0)
        assert record.value == b"x"

    def test_foreign_partition_raises_not_owner_with_fields(self):
        owner = shard_for_partition("t", 0, 2)
        shard = self._shard(1 - owner)
        with pytest.raises(NotOwnerError) as excinfo:
            shard.append("t", 0, b"x")
        err = excinfo.value
        assert err.owner_shard == owner
        assert err.shard == 1 - owner
        assert err.epoch == 1
        assert "t/0" in err.resource

    def test_partition_log_guarded_for_long_poll_path(self):
        owner = shard_for_partition("t", 1, 2)
        shard = self._shard(1 - owner)
        with pytest.raises(NotOwnerError):
            shard.partition_log("t", 1)

    def test_partition_depths_filtered_to_owned(self):
        shard = self._shard(0)
        for partition in range(4):
            if shard.owns("t", partition):
                shard.append("t", partition, b"x")
        depths = shard.partition_depths()
        assert depths
        assert all(shard.owns(t, p) for t, p in depths)

    def test_group_ops_guarded_by_coordinator_hash(self):
        groups = {coordinator_shard(f"g{i}", 2): f"g{i}" for i in range(16)}
        mine, theirs = groups[0], groups[1]
        shard = self._shard(0)
        shard.coordinator.commit(mine, None, [("t", 0, 1)])
        assert shard.committed_offset(mine, "t", 0) == 1
        with pytest.raises(NotOwnerError) as excinfo:
            shard.coordinator.commit(theirs, None, [("t", 0, 1)])
        assert theirs in excinfo.value.resource

    def test_strided_producer_ids_are_globally_unique(self):
        shards = [self._shard(i, 4) for i in range(4)]
        pids = set()
        for shard in shards:
            for n in range(5):
                pid, epoch = shard.register_producer(f"client-{n}")
                assert epoch == 0
                assert pid % 4 == shard.shard_index
                pids.add(pid)
        assert len(pids) == 20
        # Re-registration bumps the epoch (zombie fencing), keeps the pid.
        pid, epoch = shards[0].register_producer("client-0")
        assert epoch == 1

    def test_single_shard_ids_stay_dense(self):
        shard = ShardBroker()  # defaults: shard 0 of 1
        shard.create_topic("t", 1)
        assert [shard.register_producer(f"c{i}")[0] for i in range(3)] == [0, 1, 2]

    def test_describe_cluster_requires_metadata(self):
        shard = ShardBroker(shard_index=0, num_shards=2)
        with pytest.raises(ValidationError):
            shard.describe_cluster()


# -- the full cluster ---------------------------------------------------------


@pytest.fixture(scope="class")
def cluster():
    with ClusterBrokerSupervisor(num_shards=2, topics=[("t", 4)]) as supervisor:
        with ClusterBroker(supervisor.bootstrap) as broker:
            yield supervisor, broker


class TestClusterRouting:
    def test_describe_cluster_reaches_every_shard(self, cluster):
        supervisor, broker = cluster
        assert broker.num_shards == 2
        assert broker.epoch == 1
        assert len(broker.describe_cluster()["shards"]) == 2

    def test_appends_route_and_fetches_return(self, cluster):
        _, broker = cluster
        for partition in range(4):
            md = broker.append("t", partition, b"r%d" % partition)
            assert md.partition == partition
        for partition in range(4):
            [record] = broker.fetch("t", partition, 0, max_records=1)
            assert record.value == b"r%d" % partition

    def test_partition_affine_ops_never_see_foreign_logs(self, cluster):
        """Each shard's log holds exactly its owned partitions' records."""
        supervisor, broker = cluster
        broker.append("t", 0, b"iso")
        for index, (host, port) in enumerate(supervisor.addresses):
            with RemoteBroker(host, port) as direct:
                depths = direct.partition_depths()
                for (topic, partition) in depths:
                    assert shard_for_partition(topic, partition, 2) == index
                foreign = next(
                    p for p in range(4)
                    if shard_for_partition("t", p, 2) != index
                )
                with pytest.raises(RemoteRetriableError) as excinfo:
                    direct.fetch("t", foreign, 0)
                assert excinfo.value.error_name == "NotOwnerError"

    def test_group_commits_live_on_coordinator_shard(self, cluster):
        supervisor, broker = cluster
        group = "routing-group"
        broker.coordinator.commit(group, None, [("t", 0, 3)])
        assert broker.committed_offset(group, "t", 0) == 3
        coord = broker.find_coordinator(group)
        assert coord["shard"] == coordinator_shard(group, 2)
        with RemoteBroker(coord["host"], coord["port"]) as direct:
            assert direct.committed_offset(group, "t", 0) == 3
        other = supervisor.addresses[1 - coord["shard"]]
        with RemoteBroker(*other) as direct:
            with pytest.raises(RemoteRetriableError) as excinfo:
                direct.committed_offset(group, "t", 0)
            assert excinfo.value.error_name == "NotOwnerError"

    def test_consumer_lag_merges_coordinator_and_data_shards(self, cluster):
        _, broker = cluster
        group = "lag-group"
        broker.append("t", 1, b"a")
        broker.append("t", 1, b"b")
        end = broker.latest_offset("t", 1)
        broker.coordinator.commit(group, None, [("t", 1, end - 1)])
        lag = broker.consumer_lag(group)
        assert lag[("t", 1)] == 1

    def test_stats_merge_all_shards(self, cluster):
        supervisor, broker = cluster
        broker.append("t", 2, b"x")
        stats = broker.stats()
        assert stats["epoch"] == broker.epoch
        assert len(stats["shards"]) == 2
        snapshots = broker.metrics_snapshots()
        assert sorted(snapshots) == [0, 1]
        assert all(snap["shard"] == index for index, snap in snapshots.items())


class TestStaleMetadataRefresh:
    def test_not_owner_triggers_refresh_and_reroute(self):
        with ClusterBrokerSupervisor(num_shards=2, topics=[("t", 4)]) as sup:
            # Hand the client a deliberately wrong map: shard order
            # reversed at an older epoch, so the first partition-affine op
            # lands on the wrong shard and comes back NotOwnerError.
            stale = ClusterMetadata(
                epoch=0, shards=tuple(reversed(sup.addresses))
            )
            with ClusterBroker(sup.bootstrap, metadata=stale) as broker:
                md = broker.append("t", 0, b"x", producer_id=None)
                assert md.offset == 0
                assert broker.metadata_refreshes >= 1
                assert broker.epoch == 1
                assert tuple(broker.metadata.shards) == tuple(sup.addresses)
                [record] = broker.fetch("t", 0, 0)
                assert record.value == b"x"

    def test_refresh_keeps_stale_map_when_cluster_is_down(self):
        with ClusterBrokerSupervisor(num_shards=2, topics=[("t", 2)]) as sup:
            broker = ClusterBroker(sup.bootstrap)
        # Supervisor stopped: refresh finds nobody, keeps what it has.
        meta = broker.refresh_metadata()
        assert meta.num_shards == 2
        broker.close()


class TestBackwardCompat:
    def test_plain_client_against_one_shard(self, cluster):
        """Old single-broker clients keep working against a single shard."""
        supervisor, broker = cluster
        host, port = supervisor.addresses[0]
        with RemoteBroker(host, port) as direct:
            assert "t" in direct.list_topics()
            partition = next(
                p for p in range(4) if shard_for_partition("t", p, 2) == 0
            )
            md = direct.append("t", partition, b"legacy")
            [record] = direct.fetch("t", partition, md.offset)
            assert record.value == b"legacy"

    def test_connect_bootstrap_downgrades_for_plain_broker(self):
        with BrokerServer() as server:
            client = connect_bootstrap([(server.host, server.port)])
            try:
                assert isinstance(client, RemoteBroker)
                client.create_topic("t", 1)
                client.append("t", 0, b"x")
            finally:
                client.close()

    def test_connect_bootstrap_upgrades_for_cluster(self, cluster):
        supervisor, _ = cluster
        client = connect_bootstrap(supervisor.bootstrap)
        try:
            assert isinstance(client, ClusterBroker)
            assert client.num_shards == 2
        finally:
            client.close()


class TestBootstrapFallthrough:
    def test_dead_first_address_falls_through(self, cluster):
        supervisor, _ = cluster
        dead = ("127.0.0.1", _free_port())
        client = connect_bootstrap([dead, *supervisor.bootstrap])
        try:
            assert isinstance(client, ClusterBroker)
            assert client.append("t", 0, b"ft").offset >= 0
        finally:
            client.close()

    def test_all_dead_raises_disconnected(self):
        dead = [("127.0.0.1", _free_port()), ("127.0.0.1", _free_port())]
        with pytest.raises(DisconnectedError):
            connect_bootstrap(dead)

    def test_producer_and_consumer_accept_bootstrap(self, cluster):
        supervisor, _ = cluster
        dead = ("127.0.0.1", _free_port())
        bootstrap = [dead, *supervisor.bootstrap]
        producer = Producer(bootstrap=bootstrap, client_id="bts", retries=2)
        try:
            producer.send("t", b"boot", partition=1)
        finally:
            producer.close()
        consumer = Consumer(bootstrap=bootstrap)
        try:
            consumer.assign([("t", 1)])
            values = []
            deadline = time.monotonic() + 10
            while not values and time.monotonic() < deadline:
                values = [r.value for r in consumer.poll(max_records=64, timeout=0.5)]
            assert b"boot" in values
        finally:
            consumer.close()

    def test_exactly_one_of_broker_or_bootstrap(self):
        broker = Broker()
        with pytest.raises(ValidationError):
            Producer(broker, bootstrap=[("127.0.0.1", 1)])
        with pytest.raises(ValidationError):
            Producer()
        with pytest.raises(ValidationError):
            Consumer(broker, bootstrap=[("127.0.0.1", 1)])
        with pytest.raises(ValidationError):
            Consumer()


# -- supervisor lifecycle -----------------------------------------------------


class TestSupervisorLifecycle:
    def test_stop_leaks_no_processes_or_threads(self):
        """Mirror of the reactor's deterministic-stop test, one level up:
        stop() must drain parked long-polls, join every worker process,
        and leave no orphaned sockets behind."""
        before = set(threading.enumerate())
        supervisor = ClusterBrokerSupervisor(num_shards=2, topics=[("t", 2)]).start()
        addresses = list(supervisor.addresses)
        socks = [
            socket.create_connection(addr, timeout=10) for addr in addresses
        ]
        try:
            # Park a long-poll on shard 0 (a partition it owns) that
            # would outlive stop() if fetches were not drained.
            partition = next(
                p for p in range(2) if shard_for_partition("t", p, 2) == 0
            )
            owner = shard_for_partition("t", partition, 2)
            sendall_vectored(socks[owner], encode_frame(
                {"op": "fetch_batch", "topic": "t", "partition": partition,
                 "offset": 0, "timeout": 60.0, "cid": 1},
            ))
            time.sleep(0.3)  # let the fetch park server-side
            supervisor.stop()
            assert multiprocessing.active_children() == []
            leaked = [
                t for t in set(threading.enumerate()) - before if t.is_alive()
            ]
            assert leaked == []
            # Clients observe EOF/reset, not a hang.
            for sock in socks:
                sock.settimeout(2)
                try:
                    assert sock.recv(1) == b""
                except OSError:
                    pass
            # The former addresses refuse new connections.
            for addr in addresses:
                with pytest.raises(OSError):
                    socket.create_connection(addr, timeout=1).close()
        finally:
            for sock in socks:
                sock.close()

    def test_stop_is_idempotent(self):
        supervisor = ClusterBrokerSupervisor(num_shards=1, topics=[("t", 1)]).start()
        supervisor.stop()
        supervisor.stop()

    def test_concurrent_stop_from_two_threads_is_race_safe(self):
        """Two threads racing into stop() must not double-tear-down:
        exactly one wins the teardown, both return, nothing leaks."""
        before = set(threading.enumerate())
        supervisor = ClusterBrokerSupervisor(
            num_shards=2, topics=[("t", 2)], restart=True
        ).start()
        errors: list[BaseException] = []

        def stopper() -> None:
            try:
                supervisor.stop()
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=stopper) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert all(not t.is_alive() for t in threads)
        assert errors == []
        assert multiprocessing.active_children() == []
        leaked = [
            t for t in set(threading.enumerate()) - before if t.is_alive()
        ]
        assert leaked == []

    def test_stop_during_respawn_leaks_nothing(self):
        """stop() issued while the monitor is mid-respawn must still win:
        the freshly spawned worker is torn down too, even if it came up
        after the stop flag was raised."""
        before = set(threading.enumerate())
        supervisor = ClusterBrokerSupervisor(
            num_shards=2, topics=[("t", 2)], restart=True
        ).start()
        supervisor.kill_shard(1)
        # No wait: stop() races the monitor's death-detection + respawn.
        supervisor.stop()
        assert multiprocessing.active_children() == []
        leaked = [
            t for t in set(threading.enumerate()) - before if t.is_alive()
        ]
        assert leaked == []
        # A second stop after the race stays a no-op.
        supervisor.stop()
        assert multiprocessing.active_children() == []

    def test_restart_respawns_dead_shard_and_bumps_epoch(self):
        with ClusterBrokerSupervisor(
            num_shards=2, topics=[("t", 2)], restart=True
        ) as supervisor:
            addresses = list(supervisor.addresses)
            supervisor.kill_shard(1)
            assert _wait_until(
                lambda: supervisor.is_alive(1) and supervisor.epoch == 2
            )
            assert supervisor.restarts == 1
            # Respawn pins the original port, so cached bootstrap lists
            # and client shard maps stay valid.
            assert list(supervisor.addresses) == addresses
            with ClusterBroker(supervisor.bootstrap) as broker:
                # The epoch broadcast reaches shard control loops
                # asynchronously; refresh until a shard reports it.
                assert _wait_until(
                    lambda: broker.refresh_metadata().epoch == 2
                )
