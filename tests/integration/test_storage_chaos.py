"""Durable-log chaos: SIGKILLed shards recover acknowledged records
from their own segment files on disk, not just by re-syncing from peers.

Two legs:

- Single shard, no replication: the shard is killed holding acked,
  fsynced data and there is *no peer to copy from* — every record the
  respawned process serves can only have come off its disk.
- Two shards with replication: the killed shard's replacement first
  replays its segment files (observable via the storage ``stats``
  counters) and only then rejoins the ISR, so peer resync starts from
  the recovered log end instead of offset zero.
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
    StorageConfig,
    shard_for_partition,
)
from repro.broker.errors import RetriableError
from repro.faults import FaultInjector

pytestmark = pytest.mark.chaos

PARTITIONS = 4
ROUNDS = 6
BATCH = 8

DURABLE = StorageConfig(fsync_acks=True, flush_ms=5.0)


def _wait_until(predicate, timeout: float = 30.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _shard_stats(supervisor, shard: int) -> dict:
    host, port = supervisor.addresses[shard]
    remote = RemoteBroker(host, port)
    try:
        return remote.stats()
    finally:
        remote.close()


class TestSingleShardDiskRecovery:
    def test_acked_records_survive_sigkill_with_no_peers(self, tmp_path):
        """rf=1: after the kill, the disk is the only copy in existence."""
        total = ROUNDS * BATCH
        with ClusterBrokerSupervisor(
            num_shards=1,
            topics=[("t", 1)],
            restart=True,
            log_dir=str(tmp_path),
            storage=DURABLE,
        ) as supervisor:
            client = ClusterBroker(supervisor.bootstrap)
            producer = Producer(client, client_id="durable-producer")
            expected = []
            try:
                for round_no in range(ROUNDS):
                    values = [f"{round_no}:{i}".encode() for i in range(BATCH)]
                    # fsync_acks: once send_many returns, the batch is
                    # group-commit fsynced into the segment file.
                    producer.send_many("t", values, partition=0)
                    expected.extend(values)

                supervisor.kill_shard(0)
                assert _wait_until(lambda: supervisor.restarts == 1)

                def respawned_serving() -> bool:
                    try:
                        return (
                            _shard_stats(supervisor, 0)["topics"]["t"]["records_in"]
                            >= total
                        )
                    except (RetriableError, ConnectionError, OSError):
                        return False

                assert _wait_until(respawned_serving)

                # Every acknowledged record came back from the segment
                # files: the recovery counters prove a disk replay, and
                # the fetch proves the data is complete and ordered.
                stats = _shard_stats(supervisor, 0)
                assert stats["storage"]["recovered_records"] == total
                assert stats["storage"]["recovery_scan_bytes"] > 0
                records = client.fetch("t", 0, 0, max_records=total * 2)
                assert [bytes(r.value) for r in records] == expected
            finally:
                producer.close()
                client.close()


class TestFollowerDiskRecoveryBeforeResync:
    def test_killed_shard_recovers_from_disk_then_rejoins_isr(self, tmp_path):
        """rf=2: the respawn replays its own segments before peer resync."""
        with ClusterBrokerSupervisor(
            num_shards=2,
            topics=[("t", PARTITIONS)],
            restart=True,
            replication_factor=2,
            log_dir=str(tmp_path),
            storage=DURABLE,
        ) as supervisor:
            doomed = shard_for_partition("t", 0, 2)

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

            injector = FaultInjector(seed=23)
            producer_broker = ClusterBroker(supervisor.bootstrap)
            producer_broker.fault_injector = injector
            producer = Producer(
                producer_broker,
                client_id="storage-chaos-producer",
                acks="all",
                retries=30,
                retry_backoff_ms=25.0,
            )
            # Two rounds land (acked, fsynced, replicated) before the
            # kill fires on round three's first append to partition 0 —
            # the doomed shard dies holding durable data.
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
                        producer.send_many("t", values, partition=partition)
                        expected.update(values)

                assert injector.fired.get("call") == 1
                assert _wait_until(lambda: len(consumed) >= len(expected))
            finally:
                stop_polling.set()
                poller.join(timeout=10)
                producer.close()
                consumer.close()

            # Zero acked loss, zero duplicates, across the kill.
            assert set(consumed) == expected
            assert len(consumed) == len(expected)
            assert supervisor.restarts == 1

            # The respawned shard's boot replayed its own segment files:
            # at least the two fully-acked pre-kill rounds were on its
            # disk (as leader for half the partitions and follower for
            # the rest), so recovery — which runs when the worker opens
            # its topics, before it receives the cluster map and rejoins
            # — restored real records rather than starting empty.
            stats = _shard_stats(supervisor, doomed)
            assert stats["storage"]["recovered_records"] >= 2 * PARTITIONS * BATCH
            assert stats["storage"]["recovery_scan_bytes"] > 0

            # And it rejoined the ISR fully caught up: resync only had
            # to ship what landed after the kill.
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


class TestCleanRestartScansNothing:
    def test_every_shard_adopts_its_sealed_segments(self, tmp_path):
        """A clean stop seals every active segment: the next boot reads
        no record back, yet every acked record is served in order."""
        expected = {p: [] for p in range(PARTITIONS)}
        cluster = dict(
            num_shards=2,
            topics=[("t", PARTITIONS)],
            replication_factor=2,
            log_dir=str(tmp_path),
            storage=DURABLE,
        )
        with ClusterBrokerSupervisor(**cluster) as supervisor:
            client = ClusterBroker(supervisor.bootstrap)
            with Producer(client, client_id="clean-restart", acks="all") as producer:
                for partition in range(PARTITIONS):
                    values = [f"{partition}:{i}".encode() for i in range(BATCH)]
                    producer.send_many("t", values, partition=partition)
                    expected[partition] = values
            client.close()
        with ClusterBrokerSupervisor(**cluster) as supervisor:
            for shard in range(2):
                storage = _shard_stats(supervisor, shard)["storage"]
                assert storage["recovery_scan_bytes"] == 0
                assert storage["recovered_records"] == 0
            client = ClusterBroker(supervisor.bootstrap)
            try:
                for partition, values in expected.items():
                    records = client.fetch("t", partition, 0, max_records=BATCH * 2)
                    assert [bytes(r.value) for r in records] == values
            finally:
                client.close()
