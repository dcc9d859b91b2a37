"""Concurrency stress tests across the substrates."""

import threading

import numpy as np
import pytest

from repro.broker import Broker, Consumer, Producer
from repro.compute import Client, ComputeCluster, ResourceSpec
from repro.params import CasConflict, ParameterClient, ParameterServer


class TestBrokerUnderContention:
    def test_many_producers_many_consumers_exactly_once_per_record(self):
        broker = Broker()
        broker.create_topic("t", 8)
        n_producers, per_producer = 4, 200

        def produce(idx):
            producer = Producer(broker)
            for i in range(per_producer):
                producer.send("t", f"{idx}:{i}".encode())

        threads = [threading.Thread(target=produce, args=(k,)) for k in range(n_producers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Drain with three standalone consumers over disjoint partitions.
        seen: list = []
        lock = threading.Lock()

        def drain(partitions):
            consumer = Consumer(broker)
            consumer.assign([("t", p) for p in partitions])
            while True:
                records = consumer.poll(max_records=128)
                if not records:
                    break
                with lock:
                    seen.extend(r.value for r in records)

        drains = [
            threading.Thread(target=drain, args=(ps,))
            for ps in ([0, 1, 2], [3, 4, 5], [6, 7])
        ]
        for t in drains:
            t.start()
        for t in drains:
            t.join()
        assert len(seen) == n_producers * per_producer
        assert len(set(seen)) == n_producers * per_producer

    def test_group_rebalance_storm_loses_nothing(self):
        """Consumers join/leave while records flow; committed-offset
        semantics guarantee every record is seen at least once."""
        broker = Broker()
        broker.create_topic("t", 4)
        producer = Producer(broker)
        total = 400
        for i in range(total):
            producer.send("t", i.to_bytes(4, "big"))

        seen: set = set()
        lock = threading.Lock()
        stop = threading.Event()

        def churn_consumer(seed):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                consumer = Consumer(broker, group_id="storm")
                consumer.subscribe("t")
                for _ in range(int(rng.integers(2, 6))):
                    for record in consumer.poll(max_records=32, timeout=0.02):
                        with lock:
                            seen.add(record.value)
                    consumer.commit()
                consumer.close()
                with lock:
                    if len(seen) >= total:
                        stop.set()

        threads = [threading.Thread(target=churn_consumer, args=(k,)) for k in range(3)]
        for t in threads:
            t.start()
        stop.wait(timeout=30)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert len(seen) == total


class TestParameterServerUnderContention:
    def test_hammering_cas_counter(self):
        server = ParameterServer()
        server.set("counter", 0)
        increments_per_thread = 50

        def increment_loop():
            client = ParameterClient(server)
            done = 0
            while done < increments_per_thread:
                entry = client.get("counter")
                try:
                    client.compare_and_set("counter", entry.value + 1, entry.version)
                    done += 1
                except CasConflict:
                    continue

        threads = [threading.Thread(target=increment_loop) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert server.get("counter").value == 4 * increments_per_thread

    def test_concurrent_watchers_all_wake(self):
        server = ParameterServer()
        results: list = []
        lock = threading.Lock()

        def watcher():
            entry = server.watch("key", after_version=0, timeout=10.0)
            with lock:
                results.append(entry.value)

        threads = [threading.Thread(target=watcher) for _ in range(8)]
        for t in threads:
            t.start()
        server.set("key", "broadcast")
        for t in threads:
            t.join(timeout=10)
        assert results == ["broadcast"] * 8


class TestComputeUnderContention:
    def test_burst_of_small_tasks(self):
        with ComputeCluster(n_workers=4, worker_resources=ResourceSpec(cores=2, memory_gb=2)) as cluster:
            client = Client(cluster)
            futures = client.map(lambda x: x * 3, range(500))
            results = Client.gather(futures, timeout=60)
            assert results == [x * 3 for x in range(500)]
