"""Failover chaos: the leader of an actively-produced partition is
SIGKILLed mid-stream and **no acknowledged record is lost**.

This is the replication counterpart to ``test_cluster_chaos.py``: there
the doomed shard dies with an empty log (loss-free by construction);
here it dies *holding acknowledged data*, and the data survives because
``acks="all"`` only acks once every in-sync replica holds the records.
The supervisor's controller then elects the most-caught-up surviving
replica as the new leader, clients re-route, and the respawned process
rejoins as a follower and re-syncs from zero.

The kill is triggered by a ``call`` fault-injector rule counted in
append ops, not a wall-clock timer, so each run replays identically.
"""

import threading
import time

import pytest

from repro.broker import (
    ClusterBroker,
    ClusterBrokerSupervisor,
    Consumer,
    Producer,
    RemoteBroker,
    shard_for_partition,
)
from repro.broker.errors import BrokerError, RetriableError
from repro.faults import FaultInjector

pytestmark = pytest.mark.chaos

PARTITIONS = 4
ROUNDS = 6
BATCH = 8


def _wait_until(predicate, timeout: float = 30.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestLeaderKillMidStream:
    def test_no_acked_record_lost_and_killed_shard_rejoins(self):
        with ClusterBrokerSupervisor(
            num_shards=2,
            topics=[("t", PARTITIONS)],
            restart=True,
            replication_factor=2,
        ) as supervisor:
            # Kill the leader of partition 0 — the partition the kill op
            # itself is aimed at, so the shard dies with several
            # acknowledged batches in its log.
            doomed = shard_for_partition("t", 0, 2)
            survivor = 1 - doomed

            consumer = Consumer(bootstrap=supervisor.bootstrap)
            consumer.assign([("t", p) for p in range(PARTITIONS)])
            consumed: list[bytes] = []
            stop_polling = threading.Event()

            def poll_loop() -> None:
                while not stop_polling.is_set():
                    try:
                        records = consumer.poll(max_records=32, timeout=0.25)
                    except (RetriableError, ConnectionError, OSError):
                        time.sleep(0.05)
                        continue
                    consumed.extend(bytes(r.value) for r in records)

            poller = threading.Thread(target=poll_loop, daemon=True)
            poller.start()

            injector = FaultInjector(seed=11)
            producer_broker = ClusterBroker(supervisor.bootstrap)
            producer_broker.fault_injector = injector
            producer = Producer(
                producer_broker,
                client_id="failover-producer",
                acks="all",
                retries=30,
                retry_backoff_ms=25.0,
            )
            # Two full rounds land (and fully replicate — acks="all")
            # first; the kill fires on the first append of round three,
            # which targets partition 0 and therefore the doomed leader.
            injector.call_after(
                lambda: supervisor.kill_shard(doomed),
                n=2 * PARTITIONS + 1,
                op="append_batch",
            )

            expected = set()
            try:
                for round_no in range(ROUNDS):
                    for partition in range(PARTITIONS):
                        values = [
                            f"{partition}:{round_no}:{i}".encode()
                            for i in range(BATCH)
                        ]
                        # acks="all" means: once send_many returns, every
                        # value in `values` is on every in-sync replica.
                        producer.send_many("t", values, partition=partition)
                        expected.update(values)

                assert injector.fired.get("call") == 1
                assert _wait_until(lambda: len(consumed) >= len(expected))
            finally:
                stop_polling.set()
                poller.join(timeout=10)
                refreshes = producer_broker.metadata_refreshes
                producer.close()
                consumer.close()

            # Zero loss, zero duplicates: every acknowledged record was
            # consumed exactly once (idempotent dedup kills the replays).
            assert set(consumed) == expected
            assert len(consumed) == len(expected), (
                f"consumed {len(consumed)} records for {len(expected)} acked"
            )

            # The failover actually happened: one election round (epoch
            # bump) then one respawn (second bump).
            assert supervisor.restarts == 1
            assert supervisor.elections >= 1
            assert supervisor.epoch == 3
            assert refreshes >= 1
            # Every partition the dead shard led moved to the survivor.
            for partition in range(PARTITIONS):
                if shard_for_partition("t", partition, 2) == doomed:
                    assert supervisor.partition_leader("t", partition) == survivor

            # The respawned shard rejoined as a follower and re-synced:
            # full ISR, zero lag, everywhere.
            status_client = ClusterBroker(supervisor.bootstrap)
            try:

                def fully_replicated() -> bool:
                    parts = status_client.replication_status()["partitions"]
                    return len(parts) == PARTITIONS and all(
                        part["isr"] == [0, 1]
                        and all(f["lag"] == 0 for f in part["followers"])
                        and not part["under_replicated"]
                        for part in parts
                    )

                assert _wait_until(fully_replicated), (
                    status_client.replication_status()
                )
                # And its copy really holds every record: per-partition
                # log ends on the respawned follower match production.
                host, port = supervisor.addresses[doomed]
                follower = RemoteBroker(host, port)
                try:
                    for partition in range(PARTITIONS):
                        ack = follower.replica_ack("t", partition)
                        assert ack["log_end"] == ROUNDS * BATCH
                finally:
                    follower.close()
            finally:
                status_client.close()
                producer_broker.close()


class TestGroupCommitFailover:
    def test_commit_survives_coordinator_shard_death(self):
        """Group-affine routing under failover (satellite coverage).

        Group state is *not* replicated (only partition data is), so a
        coordinator crash surfaces as a retriable error; the client
        refreshes metadata and the retried commit lands on the respawned
        coordinator with the full offset value — nothing is silently
        dropped or half-applied.
        """
        group = "failover-group"
        with ClusterBrokerSupervisor(
            num_shards=2,
            topics=[("t", PARTITIONS)],
            restart=True,
            replication_factor=2,
        ) as supervisor:
            from repro.broker.metadata import coordinator_shard

            coordinator = coordinator_shard(group, 2)
            # max_attempts=1 so the death is *observable* as an error
            # instead of being absorbed by the client's retry loop.
            client = ClusterBroker(supervisor.bootstrap, max_attempts=1)
            try:
                client.coordinator.commit(group, None, [("t", 0, 5)])
                assert client.committed_offset(group, "t", 0) == 5

                supervisor.kill_shard(coordinator)
                with pytest.raises((RetriableError, ConnectionError, OSError)):
                    client.coordinator.commit(group, None, [("t", 0, 9)])

                # Retry until the respawned coordinator takes the commit.
                deadline = time.monotonic() + 30.0
                while True:
                    try:
                        client.coordinator.commit(group, None, [("t", 0, 9)])
                        break
                    except (BrokerError, ConnectionError, OSError):
                        if time.monotonic() >= deadline:
                            raise
                        time.sleep(0.05)
                assert client.committed_offset(group, "t", 0) == 9
                assert client.metadata_refreshes >= 1
                assert supervisor.restarts == 1
            finally:
                client.close()
