"""Chaos test for the sharded broker: a shard process is SIGKILLed at a
deterministic point in the client op stream, the supervisor respawns it
on its original port, and clients refresh metadata and re-route — every
record is delivered (at-least-once) with broker-side idempotent dedup
suppressing the replays, so the consumed set is exactly the produced set.

The kill is triggered by a ``call`` fault-injector rule counted in
append ops, not a wall-clock timer, so each run replays identically. It
fires on the *first* append routed at the doomed shard: the shard dies
with an empty log, which is the loss-free scenario — in-memory state on
a killed shard is gone (replication is a roadmap item), so records that
landed before a crash are out of scope here.
"""

import threading
import time

import pytest

from repro.broker import (
    ClusterBroker,
    ClusterBrokerSupervisor,
    ClusterMetadata,
    Consumer,
    Producer,
    shard_for_partition,
)
from repro.broker.errors import RetriableError
from repro.faults import FaultInjector

pytestmark = pytest.mark.chaos

PARTITIONS = 4
BATCHES = 5
BATCH = 8


class TestShardKillMidStream:
    def test_kill_and_respawn_delivers_every_record_once(self):
        with ClusterBrokerSupervisor(
            num_shards=2, topics=[("t", PARTITIONS)], restart=True
        ) as supervisor:
            doomed = 1
            safe_parts = [
                p for p in range(PARTITIONS)
                if shard_for_partition("t", p, 2) != doomed
            ]
            doomed_parts = [
                p for p in range(PARTITIONS) if p not in safe_parts
            ]
            assert safe_parts and doomed_parts

            # Consumer first, so its fetches are in flight (some parked
            # on the doomed shard) when the kill lands.
            consumer = Consumer(bootstrap=supervisor.bootstrap)
            consumer.assign([("t", p) for p in range(PARTITIONS)])
            consumed: list[bytes] = []
            stop_polling = threading.Event()

            def poll_loop() -> None:
                while not stop_polling.is_set():
                    try:
                        records = consumer.poll(max_records=32, timeout=0.25)
                    except (RetriableError, ConnectionError, OSError):
                        # The shard died under this fetch; back off and
                        # let the client re-route after the respawn.
                        time.sleep(0.05)
                        continue
                    consumed.extend(bytes(r.value) for r in records)

            poller = threading.Thread(target=poll_loop, daemon=True)
            poller.start()

            injector = FaultInjector(seed=7)
            # The producer's client boots on a deliberately stale map
            # (shard order reversed, older epoch), so its very first
            # append is misrouted, bounced with NotOwnerError, and
            # forces the refresh-metadata + re-route round trip before
            # any chaos starts.
            stale = ClusterMetadata(
                epoch=0, shards=tuple(reversed(supervisor.addresses))
            )
            producer_broker = ClusterBroker(
                supervisor.bootstrap, metadata=stale
            )
            producer_broker.fault_injector = injector
            producer = Producer(
                producer_broker,
                client_id="chaos-producer",
                retries=20,
                retry_backoff_ms=25.0,
            )
            # The producer sends the safe shard's batches first. Wire
            # append ops: #1 is the misroute, #2 its re-routed retry,
            # then one per remaining safe batch — so op n below is the
            # first append aimed at the doomed shard, and the kill fires
            # just before it is framed. The doomed shard dies with an
            # empty log and the append itself fails over to the
            # respawned process.
            injector.call_after(
                lambda: supervisor.kill_shard(doomed),
                n=len(safe_parts) * BATCHES + 2,
                op="append_batch",
            )

            expected = set()
            try:
                for partition in safe_parts + doomed_parts:
                    for batch in range(BATCHES):
                        values = [
                            f"{partition}:{batch}:{i}".encode()
                            for i in range(BATCH)
                        ]
                        expected.update(values)
                        producer.send_many("t", values, partition=partition)

                assert injector.fired.get("call") == 1
                deadline = time.monotonic() + 30.0
                while (
                    len(consumed) < len(expected)
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
            finally:
                stop_polling.set()
                poller.join(timeout=10)
                producer_stats = producer_broker.stats()
                refreshes = producer_broker.metadata_refreshes
                producer.close()
                producer_broker.close()
                consumer.close()

            # 100% at-least-once delivery, replays deduplicated: the
            # consumed multiset is exactly the produced set.
            assert len(consumed) == len(expected), (
                f"consumed {len(consumed)}/{len(expected)} records"
            )
            assert set(consumed) == expected
            # The chaos actually happened and the clients rode it out.
            assert supervisor.restarts == 1
            assert supervisor.epoch == 2
            assert refreshes >= 1
            assert producer_stats["epoch"] >= 1
