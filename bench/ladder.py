"""The layer ladder: one encoded payload through each successive layer.

Every rung calls one public function of one layer from a single thread
and reports the median microseconds per call, for a 6.4 KB and a 2.56 MB
block. A rung's delta over the one before it is that layer's cost. The
in-memory rungs (``log_*``, ``broker_*``, ``producer_send``,
``consumer_poll``) pass a reference to the same ``bytes`` object: no
payload bytes move there, so their microseconds are per-call overhead,
not bandwidth.
"""

from __future__ import annotations

import contextlib
import shutil
import time

from bench.harness import Stack
from bench.metrics import SIZES
from bench.stats import median

POINTS = {"small": 25, "mid": 1_000, "large": 10_000}
TOPIC = "ladder"
clock = time.perf_counter


def timed(fn, budget_s: float, max_ops: int, before=None) -> float:
    """Median microseconds of ``fn(i)`` over up to *max_ops* calls or
    *budget_s* seconds (at least three calls), after one untimed call;
    *before* runs untimed ahead of every call."""
    samples = []
    if before is not None:
        before()
    fn(-1)
    deadline = clock() + budget_s
    for i in range(max_ops):
        if before is not None:
            before()
        t0 = clock()
        fn(i)
        t1 = clock()
        samples.append(t1 - t0)
        if t1 > deadline and len(samples) >= 3:
            break
    return median(samples) * 1e6


def _send(broker, payload: bytes, budget_s: float, max_ops: int, acks=1) -> float:
    from repro.broker import Producer

    with Producer(broker, acks=acks) as producer:
        return timed(lambda i: producer.send_many(TOPIC, [payload], partition=0),
                     budget_s, max_ops)


def _poll(broker, budget_s: float, max_ops: int) -> float:
    """``Consumer.poll`` of one record, re-reading offset 0 each time."""
    from repro.broker import Consumer

    with Consumer(broker) as consumer:
        consumer.assign([(TOPIC, 0)])

        def poll(i):
            if not consumer.poll(max_records=1, timeout=1.0):
                raise RuntimeError("ladder poll returned nothing")

        return timed(poll, budget_s, max_ops, before=lambda: consumer.seek(TOPIC, 0, 0))


def _rungs_for(size: str, scratch, budget_s: float) -> dict:
    from repro.broker import Broker, BrokerServer, ClusterBroker, ClusterBrokerSupervisor
    from repro.broker import PartitionLog, RemoteBroker, StorageConfig
    from repro.data.generator import DataBlockGenerator, GeneratorConfig
    from repro.data.serde import decode_block, encode_block

    max_ops = 400 if size == "small" else 12
    out = {}
    gen = DataBlockGenerator(GeneratorConfig(points=POINTS[size], seed=7))
    out["data_generate"] = timed(lambda i: gen.next_block(), budget_s, max_ops)
    block = gen.next_block()
    out["serde_encode"] = timed(lambda i: encode_block(block), budget_s, max_ops)
    payload = encode_block(block)
    out["serde_decode"] = timed(lambda i: decode_block(payload, verify=True), budget_s, max_ops)

    log = PartitionLog(TOPIC, 0)
    out["log_append"] = timed(lambda i: log.append_many([payload]), budget_s, max_ops)
    out["log_fetch"] = timed(lambda i: log.fetch(0, max_records=1), budget_s, max_ops)

    broker = Broker()
    broker.create_topic(TOPIC, num_partitions=1)
    out["broker_append"] = timed(
        lambda i: broker.append_many(TOPIC, 0, [payload]), budget_s, max_ops)
    out["broker_fetch"] = timed(
        lambda i: broker.fetch(TOPIC, 0, 0, max_records=1), budget_s, max_ops)

    broker = Broker()
    broker.create_topic(TOPIC, num_partitions=1)
    out["producer_send"] = _send(broker, payload, budget_s, max_ops)
    out["consumer_poll"] = _poll(broker, budget_s, max_ops)

    with BrokerServer(Broker()) as server, RemoteBroker(server.host, server.port) as remote:
        remote.create_topic(TOPIC, num_partitions=1)
        out["wire_send"] = _send(remote, payload, budget_s, max_ops)
        out["wire_poll"] = _poll(remote, budget_s, max_ops)

    @contextlib.contextmanager
    def cluster(shards, rf, durable=False, storage=None):
        log_dir = scratch.fresh("ladder") if durable else None
        supervisor = ClusterBrokerSupervisor(
            num_shards=shards, replication_factor=rf, topics=[(TOPIC, 1)],
            log_dir=log_dir, storage=storage)
        try:
            with supervisor, contextlib.closing(ClusterBroker(supervisor.bootstrap)) as client:
                yield client
        finally:
            if log_dir is not None:
                shutil.rmtree(log_dir, ignore_errors=True)

    with cluster(1, 1) as client:
        out["cluster_send"] = _send(client, payload, budget_s, max_ops)
    with cluster(2, 2) as client:
        out["rf2_send"] = _send(client, payload, budget_s, max_ops, acks="all")
    with cluster(2, 2, durable=True) as client:
        out["durable_send"] = _send(client, payload, budget_s, max_ops, acks="all")
        out["durable_poll"] = _poll(client, budget_s, max_ops)
    with cluster(2, 2, durable=True, storage=StorageConfig(fsync_acks=True)) as client:
        out["fsync_send"] = _send(client, payload, budget_s, max_ops, acks="all")
    return out


def _fixed_rungs(budget_s: float) -> dict:
    import numpy as np

    from repro import ParameterServer
    from repro.compute import ResourceSpec
    from repro.compute.task import Task
    from repro.core import make_model_processor
    from repro.data.generator import DataBlockGenerator, GeneratorConfig
    from repro.ml import AutoEncoder, IsolationForest, StreamingKMeans
    from repro.monitoring import MetricsCollector

    out = {}
    for name, size, factory in (
        ("ml_kmeans", "large", lambda: StreamingKMeans(n_clusters=25)),
        ("ml_iforest", "large", lambda: IsolationForest(n_estimators=100)),
        ("ml_autoencoder", "mid", lambda: AutoEncoder()),
    ):
        gen = DataBlockGenerator(GeneratorConfig(points=POINTS[size], seed=7))
        blocks = [gen.next_block() for _ in range(3)]
        process = make_model_processor(factory)
        # The first call only fits; score + update is the steady-state op.
        out[f"ladder.{name}.{size}_us"] = timed(
            lambda i: process(None, blocks[i % 3]), budget_s, 3)

    server = ParameterServer()
    weights = {"cluster_centers": np.zeros((25, 32)), "counts": np.zeros(25, dtype=np.int64)}
    out["ladder.params_set_us"] = timed(lambda i: server.set("model", weights), budget_s, 2000)
    out["ladder.params_get_us"] = timed(lambda i: server.get("model"), budget_s, 2000)

    collector = MetricsCollector("ladder")
    out["ladder.monitoring_stamp_us"] = timed(
        lambda i: collector.stamp(f"m{i}", "produce", 0.0, nbytes=1), budget_s, 2000)

    def acquire() -> float:
        with Stack(None, deployed=False) as stack:
            return stack.timings["pilot.acquire"]

    out["ladder.pilot_acquire_us"] = median(acquire() for _ in range(3)) * 1e6
    with Stack(None, deployed=False) as stack:
        scheduler = stack.cloud.cluster.scheduler
        out["ladder.compute_task_us"] = timed(
            lambda i: scheduler.submit(Task(
                fn=int, resources=ResourceSpec(cores=1, memory_gb=1))).result(timeout=10),
            budget_s, 500)
    return out


def run(scratch, budget_s: float = 0.12) -> dict:
    """Every ``ladder.*`` metric; *budget_s* is the time box of one rung."""
    out = _fixed_rungs(budget_s)
    for size in SIZES:
        for rung, us in _rungs_for(size, scratch, budget_s).items():
            out[f"ladder.{rung}.{size}_us"] = us
    return out
