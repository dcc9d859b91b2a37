"""Fast perf-regression guard for the broker batching fast path.

A reduced-size version of ``test_broker_micro.py`` that finishes in a
couple of seconds, so it can run on every change (CI smoke job or
``python benchmarks/bench_guard.py`` locally) without the full
pytest-benchmark machinery. It measures single-record vs batched
produce plus the consumer drain rate, writes the numbers to
``benchmarks/artifacts/BENCH_broker.json``, and fails (exit 1 / test
failure) if the batched path drops below ``MIN_SPEEDUP``x the
per-record path — the guard that keeps ``append_many`` an actual fast
path rather than a synonym.

A fourth guard covers the remote consume path: it drains a
pre-filled multi-partition topic through a :class:`RemoteBroker` over an
emulated fixed-RTT WAN link (``repro.netem``), synchronous consumer vs
prefetching consumer, writing ``benchmarks/artifacts/BENCH_prefetch.json``
— the prefetcher must beat the synchronous baseline by
``MIN_PREFETCH_WAN_SPEEDUP``x under RTT, while costing at most
``MAX_PREFETCH_INPROC_REGRESSION`` on the zero-RTT in-proc pipeline.

The storage guard (``BENCH_storage.json``) covers the durable
segment-backed partition logs: group-commit batching must hold durable
produce within ``MIN_DURABLE_RATIO`` of the in-memory deque, steady-
state mmap fetch of sealed segments within
``MAX_MMAP_FETCH_REGRESSION`` of the deque fetch, a SIGKILLed rf=1
shard must replay every fsync-acked record from its own segment files,
and boot recovery must scan only the active segment regardless of
total log size.

The reactor guard (``BENCH_reactor.json``) covers the event-loop server:
1k+ concurrent mixed-role clients on one reactor with zero extra threads
and flat per-connection memory; its drain rates (in-proc and 24 ms WAN)
are reported as absolute figures — the thread-per-connection server they
used to be paired against is gone, its last rates frozen as the first
line of ``benchmarks/history.jsonl``. The
telemetry guard gates both the disabled (<= 5%) and fully-enabled
(<= 10%) overhead of the tracing/metrics hot path.

The pytest entry point is marked ``bench`` and benchmarks/ is outside
``testpaths``, so tier-1 runs never pay for it; select it explicitly
with ``pytest -m bench benchmarks/bench_guard.py``. Set
``BENCH_GUARD_FAST=1`` for the reduced-trials CI smoke mode.
"""

import gc
import json
import multiprocessing
import os
import resource
import shutil
import socket
import sys
import tempfile
import threading
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.broker import Broker, Consumer, Producer
from repro.broker.reactor import ReactorBrokerServer
from repro.broker.remote import BrokerServer, RemoteBroker
from repro.broker.wire import encode_frame, recv_frame, sendall_vectored
from repro.compute import ResourceSpec
from repro.core import EdgeToCloudPipeline, PipelineConfig
from repro.data import encode_block
from repro.faults import FaultInjector, FaultyBroker
from repro.netem import Link, LinkProfile
from repro.pilot import PilotComputeService, PilotDescription

ARTIFACT = Path(__file__).parent / "artifacts" / "BENCH_broker.json"
ROBUSTNESS_ARTIFACT = Path(__file__).parent / "artifacts" / "BENCH_robustness.json"
REACTOR_ARTIFACT = Path(__file__).parent / "artifacts" / "BENCH_reactor.json"
PREFETCH_ARTIFACT = Path(__file__).parent / "artifacts" / "BENCH_prefetch.json"
TELEMETRY_ARTIFACT = Path(__file__).parent / "artifacts" / "BENCH_telemetry.json"
OBSERVABILITY_ARTIFACT = (
    Path(__file__).parent / "artifacts" / "BENCH_observability.json"
)
#: Sample incident artifacts from the observability guard's 4-shard
#: scrape leg, uploaded by CI next to the BENCH_*.json files.
OBSERVABILITY_EVENTS_JSONL = Path(__file__).parent / "artifacts" / "events.jsonl"
OBSERVABILITY_EXPOSITION = (
    Path(__file__).parent / "artifacts" / "cluster_metrics.prom"
)
MULTICORE_ARTIFACT = Path(__file__).parent / "artifacts" / "BENCH_multicore.json"
REPLICATION_ARTIFACT = Path(__file__).parent / "artifacts" / "BENCH_replication.json"
STORAGE_ARTIFACT = Path(__file__).parent / "artifacts" / "BENCH_storage.json"
#: Sampler time series from the fully-enabled telemetry round, uploaded
#: by CI next to the BENCH_*.json artifacts.
TELEMETRY_JSONL = Path(__file__).parent / "artifacts" / "telemetry.jsonl"

#: Reduced-trials mode for CI smoke runs (set BENCH_GUARD_FAST=1):
#: fewer best-of rounds and smaller sweeps. The gates stay the same;
#: this trades confidence intervals for wall-clock, not coverage.
FAST = bool(os.environ.get("BENCH_GUARD_FAST"))

#: Reduced size: enough work to dominate timer noise, small enough for
#: a per-change smoke run.
MESSAGES = 128
POINTS = 1000
BATCH = 32
ROUNDS = 1 if FAST else 3
#: The full micro-bench holds the batched path to 3x at 256 KB; the
#: guard runs smaller and colder, so it alerts a little below that.
MIN_SPEEDUP = 2.0

#: In-process pipeline legs' shape: a tiny 16x4 block (512 bytes), so
#: the consumer's CRC scan and decode stay small and the legs measure
#: the per-message overhead they gate (poll, stamps, dispatch,
#: completion accounting, telemetry hooks, prefetch handoff). On the
#: paper's 512 KiB block the CRC scan costs ~6x that overhead (~150 vs
#: ~22 us a message on a 2-core box) and would hide a regression in it.
PIPE_MESSAGES = 256
PIPE_POINTS = 16
PIPE_FEATURES = 4


def _payload() -> bytes:
    return encode_block(np.random.default_rng(0).normal(size=(POINTS, 32)))


def _single_rate(payload: bytes) -> float:
    broker = Broker()
    broker.create_topic("guard", 1)
    producer = Producer(broker)
    t0 = time.perf_counter()
    for _ in range(MESSAGES):
        producer.send("guard", payload, partition=0)
    return MESSAGES * len(payload) / (time.perf_counter() - t0) / 1e6


def _batched_rate(payload: bytes) -> float:
    broker = Broker()
    broker.create_topic("guard", 1)
    producer = Producer(broker)
    chunks = [
        [payload] * min(BATCH, MESSAGES - start)
        for start in range(0, MESSAGES, BATCH)
    ]
    t0 = time.perf_counter()
    for chunk in chunks:
        producer.send_many("guard", chunk, partition=0)
    return MESSAGES * len(payload) / (time.perf_counter() - t0) / 1e6


def _fetch_rate(payload: bytes) -> float:
    broker = Broker()
    broker.create_topic("guard", 1)
    Producer(broker).send_many("guard", [payload] * MESSAGES, partition=0)
    consumer = Consumer(broker)
    consumer.assign([("guard", 0)])
    t0 = time.perf_counter()
    got = 0
    while got < MESSAGES:
        got += len(consumer.poll(max_records=BATCH))
    return MESSAGES * len(payload) / (time.perf_counter() - t0) / 1e6


def run_guard() -> dict:
    """Measure, persist the artifact, and return the results."""
    payload = _payload()
    best = lambda fn: max(fn(payload) for _ in range(ROUNDS))
    single = best(_single_rate)
    batched = best(_batched_rate)
    fetch = best(_fetch_rate)
    results = {
        "messages": MESSAGES,
        "message_bytes": len(payload),
        "batch_records": BATCH,
        "produce_single_mb_s": round(single, 1),
        "produce_batched_mb_s": round(batched, 1),
        "fetch_mb_s": round(fetch, 1),
        "batched_speedup": round(batched / single, 2),
        "min_speedup": MIN_SPEEDUP,
    }
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps(results, indent=2) + "\n")
    return results


# -- end-to-end pipeline consume rate -----------------------------------------


def _guard_process(context, data):
    return {"points": int(data.shape[0])}


def _pipeline_rate(
    payload: bytes, prefetch: bool = False, telemetry: tuple | None = None
) -> float:
    """Messages/s through the pipeline's consumer for a pre-filled topic.

    The producer function yields nothing; the topic is pre-filled with
    correctly-addressed frames, so the timed region is purely the
    consume side: poll -> stamps -> decode -> process -> completion.
    The producer stays quiet until the topic has drained: a producer
    that ends at once ends the run at the zero messages it produced.
    The rate comes from the message traces (first ``dequeue`` to last
    ``process_end``), which excludes pilot/task setup time.
    """
    service = PilotComputeService(time_scale=0.0)
    edge = service.submit_pilot(
        PilotDescription(
            resource="ssh",
            site="edge-site",
            nodes=1,
            node_spec=ResourceSpec(cores=1, memory_gb=4),
        )
    )
    cloud = service.submit_pilot(
        PilotDescription(resource="cloud", site="cloud-site", instance_type="lrz.large")
    )
    service.wait_all(timeout=30)
    try:
        knobs = (
            dict(fetch_prefetch_batches=2, fetch_max_wait_ms=50.0) if prefetch else {}
        )
        config = PipelineConfig(
            num_devices=1,
            messages_per_device=PIPE_MESSAGES,
            max_duration=120.0,
            **knobs,
        )
        drained = threading.Event()

        def quiet_edge(context):
            drained.wait(config.max_duration)
            return None

        registry, tracer, sampler = telemetry if telemetry is not None else (None,) * 3
        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=quiet_edge,
            process_cloud_function_handler=_guard_process,
            config=config,
            run_id="bench",
            registry=registry,
            tracer=tracer,
            sampler=sampler,
        )
        pipeline.broker.create_topic(config.topic, num_partitions=1, exist_ok=True)
        Producer(pipeline.broker, tracer=tracer, trace_site="edge-site").send_many(
            config.topic,
            [payload] * PIPE_MESSAGES,
            partition=0,
            headers=[
                {"message_id": f"bench/d0/m{i}", "device": "device-0"}
                for i in range(PIPE_MESSAGES)
            ],
        )
        running = pipeline.run(wait=False)
        running.wait_for_processed(PIPE_MESSAGES, timeout=config.max_duration)
        drained.set()
        result = running.join()
        assert result.completed and len(result.results) == PIPE_MESSAGES, (
            result.completed,
            result.errors[:2],
        )
        rows = pipeline.collector.columns()
        start = np.nanmin(rows["dequeue"])
        end = np.nanmax(rows["process_end"])
        return PIPE_MESSAGES / (end - start)
    finally:
        service.close()


# -- prefetch guard: WAN concurrent consume + in-proc no-regression ----------

#: The WAN leg drains a pre-filled topic over an emulated fixed-RTT link
#: (paid client-side per request, so concurrent requests overlap delays).
#: The synchronous baseline pays ~one RTT per poll round; the prefetcher
#: pays RTTs concurrently across partitions and ahead of the consumer.
WAN_PARTITIONS = 4
WAN_MSGS = 24 if FAST else 48  # per partition
WAN_RTT_MS = 24.0  # >= the issue's 20 ms WAN floor
WAN_ROUNDS = 1 if FAST else 2
PREFETCH_POLL_BATCH = 16
#: RTT-bound drain should improve far more than 2x; alert below it.
MIN_PREFETCH_WAN_SPEEDUP = 2.0
#: In-proc (zero-RTT) the prefetcher only adds a thread handoff; it must
#: stay within 10% of the direct consume path.
MAX_PREFETCH_INPROC_REGRESSION = 0.10
#: The in-proc pair interleaves base/prefetch rounds and keeps the best
#: of each, so whole-run load drift hits both paths alike. Not reduced
#: in FAST mode: a single round of each is dominated by scheduler noise
#: (especially on small CI runners) and the 10% gate would be vacuous.
PREFETCH_INPROC_ROUNDS = 3


def _wan_consume_rate(server, prefetch: bool) -> float:
    """Records/s draining the pre-filled topic over an emulated WAN link."""
    link = Link(
        LinkProfile("wan-guard", WAN_RTT_MS, WAN_RTT_MS, 1_000.0, 1_000.0),
        time_scale=1.0,
    )
    knobs = (
        dict(fetch_prefetch_batches=4, fetch_max_wait_ms=100.0) if prefetch else {}
    )
    total = WAN_PARTITIONS * WAN_MSGS
    with RemoteBroker(server.host, server.port, link=link) as rb:
        consumer = Consumer(rb, **knobs)
        consumer.assign([("guard", p) for p in range(WAN_PARTITIONS)])
        try:
            t0 = time.perf_counter()
            got = 0
            while got < total:
                got += len(
                    consumer.poll(max_records=PREFETCH_POLL_BATCH, timeout=0.5)
                )
            return total / (time.perf_counter() - t0)
        finally:
            consumer.close()


def run_prefetch_guard() -> dict:
    """Measure the prefetch path, persist the artifact, return results."""
    with BrokerServer() as server:
        with RemoteBroker(server.host, server.port) as admin:
            admin.create_topic("guard", WAN_PARTITIONS)
            for p in range(WAN_PARTITIONS):
                admin.append_many("guard", p, [b"x" * 1024] * WAN_MSGS)
        sync = max(
            _wan_consume_rate(server, prefetch=False) for _ in range(WAN_ROUNDS)
        )
        prefetched = max(
            _wan_consume_rate(server, prefetch=True) for _ in range(WAN_ROUNDS)
        )

    payload = encode_block(
        np.random.default_rng(0).normal(size=(PIPE_POINTS, PIPE_FEATURES))
    )
    pairs = []
    for _ in range(PREFETCH_INPROC_ROUNDS):
        base = _pipeline_rate(payload)
        pref = _pipeline_rate(payload, prefetch=True)
        pairs.append((base, pref))
    inproc_base = max(b for b, _ in pairs)
    inproc_prefetch = max(p for _, p in pairs)
    # Gate on the cleanest adjacent pair (the robustness guard's trick):
    # each pair runs back-to-back under the same machine load, so one
    # clean pair is evidence of no regression even when other rounds
    # were preempted — single-shot pipeline rates swing well past 10%
    # on small runners.
    inproc_regression = min(max(0.0, 1.0 - p / b) for b, p in pairs)
    results = {
        "wan_rtt_ms": WAN_RTT_MS,
        "wan_partitions": WAN_PARTITIONS,
        "wan_messages": WAN_PARTITIONS * WAN_MSGS,
        "wan_sync_msgs_s": round(sync, 1),
        "wan_prefetch_msgs_s": round(prefetched, 1),
        "wan_speedup": round(prefetched / sync, 2),
        "min_wan_speedup": MIN_PREFETCH_WAN_SPEEDUP,
        "inproc_messages": PIPE_MESSAGES,
        "inproc_rounds": PREFETCH_INPROC_ROUNDS,
        "inproc_direct_msgs_s": round(inproc_base, 1),
        "inproc_prefetch_msgs_s": round(inproc_prefetch, 1),
        "inproc_pair_regressions": [
            round(max(0.0, 1.0 - p / b), 3) for b, p in pairs
        ],
        "inproc_regression": round(inproc_regression, 3),
        "max_inproc_regression": MAX_PREFETCH_INPROC_REGRESSION,
    }
    PREFETCH_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    PREFETCH_ARTIFACT.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _check_prefetch(results: dict) -> list:
    failures = []
    if results["wan_speedup"] < MIN_PREFETCH_WAN_SPEEDUP:
        failures.append(
            f"prefetch WAN consume speedup {results['wan_speedup']}x "
            f"< required {MIN_PREFETCH_WAN_SPEEDUP}x "
            f"({results['wan_prefetch_msgs_s']} vs "
            f"{results['wan_sync_msgs_s']} msgs/s at {WAN_RTT_MS} ms RTT)"
        )
    if results["inproc_regression"] > MAX_PREFETCH_INPROC_REGRESSION:
        failures.append(
            f"prefetch in-proc consume regression "
            f"{results['inproc_regression']:.1%} > allowed "
            f"{MAX_PREFETCH_INPROC_REGRESSION:.0%} "
            f"({results['inproc_prefetch_msgs_s']} vs "
            f"{results['inproc_direct_msgs_s']} msgs/s)"
        )
    return failures


@pytest.mark.bench
def test_prefetch_guard():
    results = run_prefetch_guard()
    failures = _check_prefetch(results)
    assert not failures, "; ".join(failures) + f"; see {PREFETCH_ARTIFACT}"


# -- telemetry guard: disabled-hook overhead + enabled-run artifact ----------

#: Telemetry attached but *disabled* (tracer at sample_rate=0 plus a
#: metrics registry, no sampler thread) must stay within 5% of the bare
#: pipeline: the per-record hook cost is a header check and a sampled-out
#: (no-op) span. This is the issue's "disabled-by-default overhead" gate.
MAX_TELEMETRY_OFF_OVERHEAD = 0.05
#: Fully *enabled* telemetry (tracing every message + live registry +
#: background sampler) is real per-record work, but since the hot path
#: went batch-shaped (``record_hops``/``observe_many``, lazy span attrs)
#: it must stay within 10% of the bare pipeline — down from the ~45%
#: the per-span-object path cost.
MAX_TELEMETRY_ON_OVERHEAD = 0.10
#: Interleaved bare/disabled/enabled rounds, each gate taking the
#: cleanest adjacent pair (same trick as the prefetch in-proc gate).
#: Not reduced in FAST mode: a single pair is dominated by scheduler
#: noise and the 5%/10% gates would be vacuous.
TELEMETRY_ROUNDS = 3


def _telemetry_objects(enabled: bool) -> tuple:
    """(registry, tracer, sampler) — sampler only when *enabled*."""
    from repro.monitoring import MetricsRegistry, TelemetrySampler, Tracer

    registry = MetricsRegistry()
    tracer = Tracer("bench", sample_rate=1.0 if enabled else 0.0)
    sampler = (
        TelemetrySampler(registry=registry, interval_s=0.05) if enabled else None
    )
    return registry, tracer, sampler


def run_telemetry_guard() -> dict:
    """Measure telemetry overhead, persist artifact + JSONL, return results."""
    payload = encode_block(
        np.random.default_rng(0).normal(size=(PIPE_POINTS, PIPE_FEATURES))
    )
    pairs = []
    enabled_pairs = []
    tracer = sampler = None
    for _ in range(TELEMETRY_ROUNDS):
        bare = _pipeline_rate(payload)
        off = _pipeline_rate(payload, telemetry=_telemetry_objects(enabled=False))
        # Fully-enabled round in the same interleave: every message
        # traced (producer stamp -> broker.append -> consumer.poll
        # spans), live registry histograms, background sampler thread.
        registry, tracer, sampler = _telemetry_objects(enabled=True)
        on = _pipeline_rate(payload, telemetry=(registry, tracer, sampler))
        pairs.append((bare, off))
        enabled_pairs.append((bare, on))
    off_overhead = min(max(0.0, 1.0 - o / b) for b, o in pairs)
    on_overhead = min(max(0.0, 1.0 - o / b) for b, o in enabled_pairs)

    # The last enabled round's sampler series is the CI artifact.
    TELEMETRY_JSONL.parent.mkdir(parents=True, exist_ok=True)
    sampler.write_jsonl(TELEMETRY_JSONL)
    bare_best = max(b for b, _ in pairs)
    results = {
        "messages": PIPE_MESSAGES,
        "message_bytes": len(payload),
        "rounds": TELEMETRY_ROUNDS,
        "bare_msgs_s": round(bare_best, 1),
        "disabled_msgs_s": round(max(o for _, o in pairs), 1),
        "enabled_msgs_s": round(max(o for _, o in enabled_pairs), 1),
        "pair_overheads": [round(max(0.0, 1.0 - o / b), 3) for b, o in pairs],
        "disabled_overhead": round(off_overhead, 3),
        "max_disabled_overhead": MAX_TELEMETRY_OFF_OVERHEAD,
        "enabled_pair_overheads": [
            round(max(0.0, 1.0 - o / b), 3) for b, o in enabled_pairs
        ],
        "enabled_overhead": round(on_overhead, 3),
        "max_enabled_overhead": MAX_TELEMETRY_ON_OVERHEAD,
        "enabled_spans": tracer.stats()["spans_retained"],
        "enabled_sample_rounds": sampler.sample_rounds,
        "telemetry_jsonl": str(TELEMETRY_JSONL),
    }
    TELEMETRY_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    TELEMETRY_ARTIFACT.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _check_telemetry(results: dict) -> list:
    failures = []
    if results["disabled_overhead"] > MAX_TELEMETRY_OFF_OVERHEAD:
        failures.append(
            f"disabled-telemetry consume overhead "
            f"{results['disabled_overhead']:.1%} > allowed "
            f"{MAX_TELEMETRY_OFF_OVERHEAD:.0%} "
            f"({results['disabled_msgs_s']} vs {results['bare_msgs_s']} msgs/s)"
        )
    if results["enabled_overhead"] > MAX_TELEMETRY_ON_OVERHEAD:
        failures.append(
            f"enabled-telemetry consume overhead "
            f"{results['enabled_overhead']:.1%} > allowed "
            f"{MAX_TELEMETRY_ON_OVERHEAD:.0%} "
            f"({results['enabled_msgs_s']} vs {results['bare_msgs_s']} msgs/s)"
        )
    if results["enabled_spans"] == 0:
        failures.append(
            "enabled-telemetry round recorded no spans: the overhead "
            "numbers are vacuous"
        )
    return failures


@pytest.mark.bench
def test_telemetry_guard():
    results = run_telemetry_guard()
    failures = _check_telemetry(results)
    assert not failures, "; ".join(failures) + f"; see {TELEMETRY_ARTIFACT}"


# -- reactor guard: connection scale ------------------------------------------

#: The connection-scale leg must hold 1k+ concurrent clients (mixed
#: idle / long-polling / pipelined-producing) on ONE reactor with zero
#: extra threads and flat per-connection Python-heap memory.
REACTOR_CONNECTIONS = 1000
REACTOR_PRODUCERS = 100
REACTOR_LONG_POLLERS = 200
REACTOR_APPENDS_PER_PRODUCER = 5
MAX_REACTOR_PER_CONN_BYTES = 32 * 1024
#: Throughput legs (reported, not gated): draining the prefetch-guard
#: topic through a RemoteBroker, in-proc and at the 24 ms WAN RTT.
REACTOR_INPROC_ROUNDS = 3
REACTOR_WAN_ROUNDS = 1 if FAST else 2


def _ensure_fds(needed: int) -> bool:
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= needed:
        return True
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))
    except (ValueError, OSError):
        return False
    return resource.getrlimit(resource.RLIMIT_NOFILE)[0] >= needed


def _reactor_connection_scale() -> dict:
    """1k concurrent mixed-role clients against one reactor, measured."""
    if not _ensure_fds(2 * REACTOR_CONNECTIONS + 256):
        return {"connections": 0, "error": "cannot raise RLIMIT_NOFILE"}
    server = ReactorBrokerServer(num_workers=4).start()
    server.broker.create_topic("lp", 1)
    server.broker.create_topic("prod", 1)
    socks: list = []
    try:
        baseline_threads = threading.active_count()

        def connect() -> socket.socket:
            sock = socket.create_connection((server.host, server.port), timeout=30)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(30)
            socks.append(sock)
            return sock

        producers = [connect() for _ in range(REACTOR_PRODUCERS)]
        pollers = [connect() for _ in range(REACTOR_LONG_POLLERS)]
        n_idle = REACTOR_CONNECTIONS - REACTOR_PRODUCERS - REACTOR_LONG_POLLERS
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(n_idle):
            connect()
        deadline = time.monotonic() + 30
        while (
            server.connections_active < REACTOR_CONNECTIONS
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        per_conn = (after - before) / n_idle

        for sock in pollers:
            sendall_vectored(sock, encode_frame(
                {"op": "fetch_batch", "topic": "lp", "partition": 0, "offset": 0,
                 "timeout": 60.0, "cid": 0},
            ))
        deadline = time.monotonic() + 30
        while (
            server.parked_fetches < REACTOR_LONG_POLLERS
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        threads_added = threading.active_count() - baseline_threads

        t0 = time.perf_counter()
        answered = 0
        for i, sock in enumerate(producers):
            for j in range(REACTOR_APPENDS_PER_PRODUCER):
                sendall_vectored(sock, encode_frame(
                    {"op": "append_batch", "topic": "prod", "partition": 0, "cid": j},
                    [b"m%d-%d" % (i, j)],
                ))
        for sock in producers:
            for _ in range(REACTOR_APPENDS_PER_PRODUCER):
                response, _ = recv_frame(sock)
                answered += response["ok"]
        server.broker.append("lp", 0, b"wake")
        for sock in pollers:
            response, _ = recv_frame(sock)
            answered += response["ok"] and len(response["result"]) == 1
        elapsed = time.perf_counter() - t0
        expected = (
            REACTOR_PRODUCERS * REACTOR_APPENDS_PER_PRODUCER
            + REACTOR_LONG_POLLERS
        )
        return {
            "connections": server.connections_active,
            "long_polls_parked_peak": REACTOR_LONG_POLLERS,
            "threads_added": threads_added,
            "per_conn_bytes": round(per_conn),
            "requests_expected": expected,
            "requests_answered": int(answered),
            "mixed_load_s": round(elapsed, 3),
        }
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
        server.stop()


def _server_drain_rate(rtt_ms: float) -> float:
    """Records/s draining a pre-filled topic from a fresh reactor server."""
    link = None
    if rtt_ms > 0:
        link = Link(
            LinkProfile("reactor-guard", rtt_ms, rtt_ms, 1_000.0, 1_000.0),
            time_scale=1.0,
        )
    total = WAN_PARTITIONS * WAN_MSGS
    with BrokerServer() as server:
        with RemoteBroker(server.host, server.port) as admin:
            admin.create_topic("guard", WAN_PARTITIONS)
            for p in range(WAN_PARTITIONS):
                admin.append_many("guard", p, [b"x" * 1024] * WAN_MSGS)
        with RemoteBroker(server.host, server.port, link=link) as rb:
            consumer = Consumer(
                rb, fetch_prefetch_batches=4, fetch_max_wait_ms=100.0
            )
            consumer.assign([("guard", p) for p in range(WAN_PARTITIONS)])
            try:
                t0 = time.perf_counter()
                got = 0
                while got < total:
                    got += len(
                        consumer.poll(max_records=PREFETCH_POLL_BATCH, timeout=0.5)
                    )
                return total / (time.perf_counter() - t0)
            finally:
                consumer.close()


def run_reactor_guard() -> dict:
    """Measure the reactor server, persist the artifact, return results."""
    scale = _reactor_connection_scale()
    inproc = [_server_drain_rate(0.0) for _ in range(REACTOR_INPROC_ROUNDS)]
    wan = [_server_drain_rate(WAN_RTT_MS) for _ in range(REACTOR_WAN_ROUNDS)]
    results = {
        **scale,
        "wan_rtt_ms": WAN_RTT_MS,
        "drain_messages": WAN_PARTITIONS * WAN_MSGS,
        "inproc_reactor_msgs_s": round(max(inproc), 1),
        "wan_reactor_msgs_s": round(max(wan), 1),
        "max_per_conn_bytes": MAX_REACTOR_PER_CONN_BYTES,
    }
    REACTOR_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    REACTOR_ARTIFACT.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _check_reactor(results: dict) -> list:
    failures = []
    if results["connections"] < REACTOR_CONNECTIONS:
        failures.append(
            f"connection-scale leg held {results['connections']} concurrent "
            f"connections < required {REACTOR_CONNECTIONS} "
            f"({results.get('error', 'connections dropped or not accepted')})"
        )
    else:
        if results["threads_added"] > 0:
            failures.append(
                f"{results['connections']} connections grew the thread count "
                f"by {results['threads_added']} (must be 0: O(1) threads)"
            )
        if results["per_conn_bytes"] > MAX_REACTOR_PER_CONN_BYTES:
            failures.append(
                f"per-connection heap {results['per_conn_bytes']} B > allowed "
                f"{MAX_REACTOR_PER_CONN_BYTES} B"
            )
        if results["requests_answered"] != results["requests_expected"]:
            failures.append(
                f"only {results['requests_answered']}/"
                f"{results['requests_expected']} requests answered"
            )
    return failures


@pytest.mark.bench
def test_reactor_guard():
    results = run_reactor_guard()
    failures = _check_reactor(results)
    assert not failures, "; ".join(failures) + f"; see {REACTOR_ARTIFACT}"


# -- robustness guard: idempotence overhead + lossy-path delivery ------------

#: Idempotent batched produce must stay within 10% of the plain batched
#: path on a clean (fault-free) broker — the dedup bookkeeping is O(1)
#: per batch and must not tax the fast path. Measured cost is ~6% at 32
#: records/batch (fixed ~1.5 us of sequence bookkeeping against a
#: ~25 us batch append), amortizing toward 0 at larger batches.
MAX_IDEMPOTENCE_OVERHEAD = 0.10
#: Interleaved sweeps per trial. A single 4-batch sweep finishes in
#: ~100 us, where one GC pause or scheduler preemption swamps the 10%
#: gate; taking the min over many alternating plain/idempotent sweeps
#: (GC disabled) samples both paths under the same noise and keeps the
#: cleanest pass of each.
ROBUST_REPS = 40
#: Trials whose median decides the overhead — rejects whole-trial drift
#: (measured noise floor for identical producers is ~+-6%).
ROBUST_TRIALS = 5
#: Injected drop probability for the lossy-delivery leg (the paper's
#: cellular-edge loss rate).
LOSS_PROBABILITY = 0.01
#: Per-message sends in the lossy leg: enough broker calls that a 1%
#: drop plan fires several times (expected ~5 for 512 sends).
LOSSY_MESSAGES = 512


def _produce_sweep_pair(payload: bytes) -> tuple:
    """One interleaved trial: (plain, idempotent) best sweep rates, MB/s.

    Both producers are warmed up first (registration + first-contact
    partition state happen outside the timed region), then their batch
    sweeps alternate inside a single GC-disabled loop so scheduler drift
    and allocator state hit both paths identically; the min sweep of
    each is the cleanest pass.
    """

    def setup(**producer_kwargs):
        broker = Broker()
        broker.create_topic("guard", 1)
        producer = Producer(broker, **producer_kwargs)
        chunks = [
            [payload] * min(BATCH, MESSAGES - start)
            for start in range(0, MESSAGES, BATCH)
        ]
        for chunk in chunks:  # warm-up
            producer.send_many("guard", chunk, partition=0)
        return producer, chunks

    def sweep(producer, chunks) -> float:
        t0 = time.perf_counter()
        for chunk in chunks:
            producer.send_many("guard", chunk, partition=0)
        return time.perf_counter() - t0

    plain = setup()
    idem = setup(retries=3, retry_backoff_ms=0.0)
    gc.collect()
    gc.disable()
    try:
        best_plain = best_idem = float("inf")
        for _ in range(ROBUST_REPS):
            best_plain = min(best_plain, sweep(*plain))
            best_idem = min(best_idem, sweep(*idem))
    finally:
        gc.enable()
    volume = MESSAGES * len(payload) / 1e6
    return volume / best_plain, volume / best_idem


def _lossy_delivery() -> dict:
    """Produce through a 1%-drop broker with retries; count what landed."""
    broker = Broker()
    broker.create_topic("guard", 1)
    injector = FaultInjector(seed=17)
    injector.drop_next(10**9, op="append_many", probability=LOSS_PROBABILITY)
    producer = Producer(
        FaultyBroker(broker, injector),
        client_id="guard-lossy",
        retries=20,
        retry_backoff_ms=0.0,
    )
    for i in range(LOSSY_MESSAGES):
        producer.send("guard", b"%d" % i, partition=0)
    consumer = Consumer(broker)
    consumer.assign([("guard", 0)])
    values = [r.value for r in consumer.poll(max_records=10 * LOSSY_MESSAGES)]
    return {
        "sent": LOSSY_MESSAGES,
        "delivered": len(values),
        "distinct": len(set(values)),
        "retries": producer.produce_retries,
        "faults_fired": injector.fired.get("drop", 0),
    }


def run_robustness_guard() -> dict:
    """Measure the delivery layer, persist the artifact, return results."""
    payload = _payload()
    trials = sorted(
        _produce_sweep_pair(payload) for _ in range(ROBUST_TRIALS)
    )
    overheads = sorted(max(0.0, 1.0 - idem / plain) for plain, idem in trials)
    plain, idempotent = trials[len(trials) // 2]
    lossy = _lossy_delivery()
    results = {
        "messages": MESSAGES,
        "message_bytes": len(payload),
        "batch_records": BATCH,
        "timed_reps": ROBUST_REPS,
        "trials": ROBUST_TRIALS,
        "produce_batched_mb_s": round(plain, 1),
        "produce_idempotent_mb_s": round(idempotent, 1),
        "idempotence_overhead": round(overheads[len(overheads) // 2], 3),
        "idempotence_overhead_trials": [round(o, 3) for o in overheads],
        "max_idempotence_overhead": MAX_IDEMPOTENCE_OVERHEAD,
        "loss_probability": LOSS_PROBABILITY,
        "lossy": lossy,
        "lossy_delivery_rate": round(lossy["distinct"] / lossy["sent"], 4),
    }
    ROBUSTNESS_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ROBUSTNESS_ARTIFACT.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _check_robustness(results: dict) -> list:
    failures = []
    if results["idempotence_overhead"] > MAX_IDEMPOTENCE_OVERHEAD:
        failures.append(
            f"idempotent produce overhead {results['idempotence_overhead']:.1%} "
            f"> allowed {MAX_IDEMPOTENCE_OVERHEAD:.0%} "
            f"({results['produce_idempotent_mb_s']} vs "
            f"{results['produce_batched_mb_s']} MB/s)"
        )
    lossy = results["lossy"]
    if lossy["faults_fired"] == 0:
        failures.append(
            "lossy run never fired a fault: the delivery check is vacuous"
        )
    if lossy["distinct"] != lossy["sent"]:
        failures.append(
            f"lossy run delivered {lossy['distinct']}/{lossy['sent']} "
            f"distinct messages (retries={lossy['retries']})"
        )
    if lossy["delivered"] != lossy["distinct"]:
        failures.append(
            f"lossy run duplicated offsets: {lossy['delivered']} delivered "
            f"vs {lossy['distinct']} distinct"
        )
    return failures


@pytest.mark.bench
def test_robustness_guard():
    results = run_robustness_guard()
    failures = _check_robustness(results)
    assert not failures, "; ".join(failures) + f"; see {ROBUSTNESS_ARTIFACT}"


# ---------------------------------------------------------------------------
# Multi-core shard guard
# ---------------------------------------------------------------------------
# The sharded broker exists to buy CPU parallelism: N worker processes,
# each owning a disjoint slice of the partition space. This guard drives
# a CPU-bound produce+consume workload — every record is CRC32-stamped on
# the way out and re-verified on the way back, with telemetry sampling
# running — from *client processes* (client threads would serialise
# behind the GIL and hide any server-side scaling) and checks two gates:
#
# - scaling: 4 shards sustain >= MIN_MULTICORE_SPEEDUP x the aggregate
#   throughput of 1 shard. Gated only on runners with >= 4 cores; below
#   that the kernel timeslices the shards over the same cores and the
#   ratio is noise (the artifact still records the measured value, with
#   ``gated: false``).
# - no toll on the small case: a one-shard ClusterBrokerSupervisor stays
#   within MAX_SINGLE_SHARD_REGRESSION of a plain ReactorBrokerServer on
#   the same workload — the ownership checks and metadata hop must be
#   near-free. Interleaved pairs, cleanest pair wins (same rationale as
#   the reactor guard: a one-sided scheduler hiccup should not page).

MC_PARTITIONS = 8
MC_CLIENTS = 4
MC_BATCH = 16
MC_BATCHES = 4 if FAST else 8
MC_PAYLOAD = 2048 if FAST else 8192
#: Not reduced in FAST mode: the regression metric takes the cleanest of
#: the interleaved pairs, and a single pair is dominated by scheduler
#: noise (client processes, shard processes and the sampler all compete
#: for the same cores).
MC_PAIRS = 3
MIN_MULTICORE_SPEEDUP = 2.0
MAX_SINGLE_SHARD_REGRESSION = 0.10


def _mc_client_main(index: int, bootstrap: list, out_queue) -> None:
    """One bench client (runs in its own process).

    Produces CRC-stamped batches to its own slice of the partition
    space, consumes them back, and re-verifies every checksum. Works
    unchanged against a sharded cluster or a plain single broker:
    ``Producer(bootstrap=...)`` probes the endpoint and picks the
    matching client.
    """
    mine = [p for p in range(MC_PARTITIONS) if p % MC_CLIENTS == index]
    payload = bytes(MC_PAYLOAD)
    producer = Producer(bootstrap=bootstrap, client_id=f"mc-{index}", retries=5)
    try:
        sent = dict.fromkeys(mine, 0)
        for batch in range(MC_BATCHES):
            for p in mine:
                records = [
                    payload + (f"{index}:{batch}:{i}").encode()
                    for i in range(MC_BATCH)
                ]
                sent[p] += sum(zlib.crc32(r) for r in records)
                producer.send_many("mc", records, partition=p)
        consumer = Consumer(producer.broker)
        consumer.assign([("mc", p) for p in mine])
        expect = MC_BATCHES * MC_BATCH * len(mine)
        got = dict.fromkeys(mine, 0)
        count = 0
        deadline = time.monotonic() + 60.0
        while count < expect and time.monotonic() < deadline:
            for record in consumer.poll(max_records=64, timeout=1.0):
                got[record.partition] += zlib.crc32(record.value)
                count += 1
        out_queue.put((index, count, count == expect and got == sent))
    finally:
        producer.close()


def _mc_rate(bootstrap: list) -> float:
    """Aggregate records/s across MC_CLIENTS concurrent client processes."""
    ctx = multiprocessing.get_context()
    out = ctx.Queue()
    procs = [
        ctx.Process(
            target=_mc_client_main, args=(i, bootstrap, out), daemon=True
        )
        for i in range(MC_CLIENTS)
    ]
    t0 = time.perf_counter()
    for proc in procs:
        proc.start()
    reports = [out.get(timeout=120.0) for _ in procs]
    elapsed = time.perf_counter() - t0
    for proc in procs:
        proc.join(10.0)
    bad = [index for index, _, ok in reports if not ok]
    if bad:
        raise RuntimeError(f"multicore bench clients {bad} failed CRC verification")
    return sum(count for _, count, _ in reports) / elapsed


def _mc_cluster_rate(num_shards: int) -> float:
    from repro.broker import ClusterBroker, ClusterBrokerSupervisor
    from repro.monitoring import TelemetrySampler

    with ClusterBrokerSupervisor(
        num_shards=num_shards, topics=[("mc", MC_PARTITIONS)]
    ) as supervisor:
        handle = ClusterBroker(supervisor.bootstrap)
        sampler = TelemetrySampler(interval_s=0.25)
        sampler.watch_cluster(handle)
        sampler.start()
        try:
            return _mc_rate(supervisor.bootstrap)
        finally:
            sampler.stop()
            handle.close()


def _mc_plain_rate() -> float:
    from repro.monitoring import TelemetrySampler

    broker = Broker()
    broker.create_topic("mc", MC_PARTITIONS)
    server = ReactorBrokerServer(broker)
    server.start()
    # Telemetry parity with the cluster leg: sample the lone server too
    # (its gauges are readers of the broker's registry).
    sampler = TelemetrySampler(registry=broker.registry, interval_s=0.25)
    sampler.start()
    try:
        return _mc_rate([(server.host, server.port)])
    finally:
        sampler.stop()
        server.stop()


def run_multicore_guard() -> dict:
    """Measure, persist the artifact, and return the results."""
    cores = os.cpu_count() or 1
    scale_pairs = []
    for _ in range(MC_PAIRS):
        one = _mc_cluster_rate(1)
        four = _mc_cluster_rate(4)
        scale_pairs.append((one, four))
    speedup = max(four / one for one, four in scale_pairs)
    regression_pairs = []
    for _ in range(MC_PAIRS):
        base = _mc_plain_rate()
        shard = _mc_cluster_rate(1)
        regression_pairs.append((base, shard))
    regression = min(
        max(0.0, 1.0 - shard / base) for base, shard in regression_pairs
    )
    results = {
        "cpu_count": cores,
        "gated": cores >= 4,
        "clients": MC_CLIENTS,
        "partitions": MC_PARTITIONS,
        "records_per_trial": MC_PARTITIONS * MC_BATCHES * MC_BATCH,
        "payload_bytes": MC_PAYLOAD,
        "one_shard_rates": [round(one, 1) for one, _ in scale_pairs],
        "four_shard_rates": [round(four, 1) for _, four in scale_pairs],
        "four_shard_speedup": round(speedup, 3),
        "plain_server_rates": [round(b, 1) for b, _ in regression_pairs],
        "single_shard_rates": [round(s, 1) for _, s in regression_pairs],
        "single_shard_regression": round(regression, 4),
        "fast_mode": FAST,
    }
    MULTICORE_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    MULTICORE_ARTIFACT.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _check_multicore(results: dict) -> list:
    failures = []
    if results["gated"] and results["four_shard_speedup"] < MIN_MULTICORE_SPEEDUP:
        failures.append(
            f"4-shard aggregate speedup {results['four_shard_speedup']}x < "
            f"required {MIN_MULTICORE_SPEEDUP}x on a "
            f"{results['cpu_count']}-core runner"
        )
    if results["single_shard_regression"] > MAX_SINGLE_SHARD_REGRESSION:
        failures.append(
            f"single-shard cluster throughput regressed "
            f"{results['single_shard_regression']:.1%} vs the plain reactor "
            f"server (allowed {MAX_SINGLE_SHARD_REGRESSION:.0%})"
        )
    return failures


@pytest.mark.bench
def test_multicore_guard():
    results = run_multicore_guard()
    failures = _check_multicore(results)
    assert not failures, "; ".join(failures) + f"; see {MULTICORE_ARTIFACT}"


# --------------------------------------------------------------------------
# replication guard: the acks=leader fast path stays fast, failover is fast
# --------------------------------------------------------------------------
# Replication buys durability, and its price must stay bounded on the
# path nobody asked to slow down: with acks=leader (the default), the
# leader acks before followers catch up, so the only cost is the async
# replicator stealing cycles. Two gates:
#
# - overhead: a replication_factor=2 cluster sustains acks=leader
#   produce throughput within MAX_REPLICATION_OVERHEAD of the same
#   cluster at replication_factor=1. Interleaved pairs, cleanest pair
#   wins (same rationale as the reactor guard).
# - failover MTTR: after the leader of a partition holding acks="all"
#   records is SIGKILLed, a fresh acks="all" send to that partition
#   succeeds within MAX_FAILOVER_MTTR_S — election, client re-route and
#   respawn included — and every previously acked record is still
#   readable (zero loss, recorded in the artifact as a hard boolean).

REP_PARTITIONS = 4
REP_BATCH = 16
REP_BATCHES = 4 if FAST else 8
REP_PAYLOAD = 2048 if FAST else 8192
#: Not reduced in FAST mode, same reasoning as MC_PAIRS: the overhead
#: metric takes the cleanest interleaved pair and one pair is noise.
REP_PAIRS = 3
REP_SEED_RECORDS = 16
MAX_REPLICATION_OVERHEAD = 0.25
MAX_FAILOVER_MTTR_S = 10.0


def _rep_produce_rate(replication_factor: int) -> float:
    """acks=leader produce records/s against a 2-shard cluster."""
    from repro.broker import ClusterBrokerSupervisor

    with ClusterBrokerSupervisor(
        num_shards=2,
        topics=[("rep", REP_PARTITIONS)],
        replication_factor=replication_factor,
    ) as supervisor:
        payload = bytes(REP_PAYLOAD)
        producer = Producer(
            bootstrap=supervisor.bootstrap, client_id="rep-bench", retries=5
        )
        try:
            # Warm the connections (and the replica links) out of band.
            for p in range(REP_PARTITIONS):
                producer.send_many("rep", [payload], partition=p)
            count = 0
            t0 = time.perf_counter()
            for batch in range(REP_BATCHES):
                for p in range(REP_PARTITIONS):
                    records = [
                        payload + f"{batch}:{i}".encode()
                        for i in range(REP_BATCH)
                    ]
                    producer.send_many("rep", records, partition=p)
                    count += REP_BATCH
            elapsed = time.perf_counter() - t0
        finally:
            producer.close()
        return count / elapsed


def _rep_failover_mttr() -> tuple:
    """(mttr_s, zero_loss) for a leader SIGKILL under acks="all" load."""
    from repro.broker import (
        ClusterBroker,
        ClusterBrokerSupervisor,
        shard_for_partition,
    )
    from repro.broker.errors import BrokerError

    with ClusterBrokerSupervisor(
        num_shards=2,
        topics=[("rep", 2)],
        restart=True,
        replication_factor=2,
    ) as supervisor:
        doomed = shard_for_partition("rep", 0, 2)
        broker = ClusterBroker(supervisor.bootstrap)
        producer = Producer(
            broker,
            client_id="rep-mttr",
            acks="all",
            retries=30,
            retry_backoff_ms=25.0,
        )
        try:
            seed = [f"seed:{i}".encode() for i in range(REP_SEED_RECORDS)]
            # Fully replicated before the kill — acks="all" guarantees it.
            producer.send_many("rep", seed, partition=0)

            supervisor.kill_shard(doomed)
            t0 = time.perf_counter()
            deadline = t0 + 3 * MAX_FAILOVER_MTTR_S
            while True:
                try:
                    producer.send("rep", b"post-failover", partition=0)
                    break
                except (BrokerError, ConnectionError, OSError):
                    if time.perf_counter() >= deadline:
                        raise
                    time.sleep(0.02)
            mttr = time.perf_counter() - t0

            consumer = Consumer(broker)
            consumer.assign([("rep", 0)])
            got: list[bytes] = []
            fetch_deadline = time.monotonic() + 30.0
            while (
                len(got) < REP_SEED_RECORDS + 1
                and time.monotonic() < fetch_deadline
            ):
                try:
                    got.extend(
                        r.value
                        for r in consumer.poll(max_records=64, timeout=0.5)
                    )
                except (BrokerError, ConnectionError, OSError):
                    time.sleep(0.05)
            zero_loss = got[:REP_SEED_RECORDS] == seed and len(got) == (
                REP_SEED_RECORDS + 1
            )
        finally:
            producer.close()
            broker.close()
        return mttr, zero_loss


def run_replication_guard() -> dict:
    """Measure, persist the artifact, and return the results."""
    pairs = []
    for _ in range(REP_PAIRS):
        base = _rep_produce_rate(1)
        replicated = _rep_produce_rate(2)
        pairs.append((base, replicated))
    overhead = min(
        max(0.0, 1.0 - replicated / base) for base, replicated in pairs
    )
    mttr, zero_loss = _rep_failover_mttr()
    results = {
        "partitions": REP_PARTITIONS,
        "records_per_trial": REP_PARTITIONS * REP_BATCHES * REP_BATCH,
        "payload_bytes": REP_PAYLOAD,
        "unreplicated_rates": [round(b, 1) for b, _ in pairs],
        "replicated_rates": [round(r, 1) for _, r in pairs],
        "replication_overhead": round(overhead, 4),
        "failover_mttr_s": round(mttr, 4),
        "failover_zero_loss": zero_loss,
        "fast_mode": FAST,
    }
    REPLICATION_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    REPLICATION_ARTIFACT.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _check_replication(results: dict) -> list:
    failures = []
    if results["replication_overhead"] > MAX_REPLICATION_OVERHEAD:
        failures.append(
            f"replication_factor=2 cut acks=leader produce throughput by "
            f"{results['replication_overhead']:.1%} (allowed "
            f"{MAX_REPLICATION_OVERHEAD:.0%})"
        )
    if results["failover_mttr_s"] > MAX_FAILOVER_MTTR_S:
        failures.append(
            f"leader failover took {results['failover_mttr_s']}s before "
            f"acks=all sends resumed (allowed {MAX_FAILOVER_MTTR_S}s)"
        )
    if not results["failover_zero_loss"]:
        failures.append(
            "acknowledged records went missing across the leader failover"
        )
    return failures


@pytest.mark.bench
def test_replication_guard():
    results = run_replication_guard()
    failures = _check_replication(results)
    assert not failures, "; ".join(failures) + f"; see {REPLICATION_ARTIFACT}"


# -- durable segment-backed log guard (BENCH_storage.json) -------------------
#
# Four legs for the storage engine under ``repro/broker/storage/``:
#
# 1. Durable produce: group-commit batching must keep the default
#    durable mode (background write+fsync on the flush window) within
#    ``MIN_DURABLE_RATIO`` of the in-memory deque on the cleanest of
#    interleaved pairs. The opt-in ``fsync_acks`` rate (every ack waits
#    for its fsync) is reported alongside for context, ungated — it is
#    disk-latency-bound by design.
# 2. mmap fetch: steady-state reads of sealed segments (zero-copy
#    ``memoryview`` values off the page cache, decode-cached batches)
#    must stay within ``MAX_MMAP_FETCH_REGRESSION`` of the in-memory
#    deque fetch on the cleanest pair.
# 3. SIGKILL recovery: a 1-shard, rf=1 cluster (no peer to resync from)
#    is killed holding fsync-acked records; the respawned worker must
#    serve every acked record back *from its own segment files* —
#    proven by the storage recovery counters, not just the fetch.
# 4. Recovery linearity: boot scans only the active segment. A log
#    with many sealed segments must reopen scanning exactly the active
#    file's bytes, independent of total log size.

STORAGE_VALUE_BYTES = 1024
STORAGE_BATCH = 64
STORAGE_BATCHES = 96 if FAST else 192
STORAGE_PAIRS = 4 if FAST else 6
STORAGE_FETCH_TOTAL = 2048 if FAST else 4096
STORAGE_FETCH_MAX_RECORDS = 512
STORAGE_FETCH_SEGMENT_BYTES = 256 * 1024
STORAGE_KILL_ROUNDS = 4 if FAST else 6
STORAGE_KILL_BATCH = 16
STORAGE_LINEAR_SEGMENTS = 8
MIN_DURABLE_RATIO = 0.5
MAX_MMAP_FETCH_REGRESSION = 0.10


def _storage_produce_pair() -> tuple:
    """(in_memory_rate, durable_rate, counters) for one interleaved pair."""
    from repro.broker.partition import PartitionLog
    from repro.broker.storage import StorageConfig

    payload = b"\xa5" * STORAGE_VALUE_BYTES
    batch = [payload] * STORAGE_BATCH

    def sweep(log):
        t0 = time.perf_counter()
        for _ in range(STORAGE_BATCHES):
            log.append_many(batch)
        return STORAGE_BATCHES * STORAGE_BATCH / (time.perf_counter() - t0)

    mem = PartitionLog("bench", 0)
    tmp = tempfile.mkdtemp(prefix="bench-storage-")
    durable = PartitionLog(
        "bench",
        0,
        log_dir=tmp,
        storage=StorageConfig(flush_ms=5.0, segment_bytes=1 << 30),
    )
    try:
        # Warm both paths (allocator, flusher thread spin-up).
        for log in (mem, durable):
            for _ in range(8):
                log.append_many(batch)
        mem_rate = sweep(mem)
        durable_rate = sweep(durable)
        store = durable.storage
        store.wait_durable(store.next_offset, timeout=30.0)
        counters = dict(store.counters)
    finally:
        durable.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return mem_rate, durable_rate, counters


def _storage_fsync_acks_rate() -> float:
    """records/s when every produce ack waits for its group-commit fsync."""
    from repro.broker.partition import PartitionLog
    from repro.broker.storage import StorageConfig

    payload = b"\xa5" * STORAGE_VALUE_BYTES
    batch = [payload] * STORAGE_BATCH
    tmp = tempfile.mkdtemp(prefix="bench-storage-sync-")
    log = PartitionLog(
        "bench",
        0,
        log_dir=tmp,
        storage=StorageConfig(
            fsync_acks=True, flush_ms=2.0, segment_bytes=1 << 30
        ),
    )
    try:
        for _ in range(4):
            log.append_many(batch)
        batches = max(8, STORAGE_BATCHES // 8)
        t0 = time.perf_counter()
        for _ in range(batches):
            log.append_many(batch)
        elapsed = time.perf_counter() - t0
        return batches * STORAGE_BATCH / elapsed
    finally:
        log.close()
        shutil.rmtree(tmp, ignore_errors=True)


def _storage_fetch_rates() -> dict:
    """Steady-state sealed-mmap fetch vs deque fetch, interleaved pairs."""
    from repro.broker.partition import PartitionLog
    from repro.broker.storage import StorageConfig

    payload = b"\xa5" * STORAGE_VALUE_BYTES
    batch = [payload] * STORAGE_BATCH
    tmp = tempfile.mkdtemp(prefix="bench-storage-fetch-")
    durable = PartitionLog(
        "bench",
        0,
        log_dir=tmp,
        storage=StorageConfig(
            flush_ms=5.0, segment_bytes=STORAGE_FETCH_SEGMENT_BYTES
        ),
    )
    mem = PartitionLog("bench", 0)
    try:
        for _ in range(STORAGE_FETCH_TOTAL // STORAGE_BATCH):
            durable.append_many(batch)
            mem.append_many(batch)
        durable.storage.flush()
        # One more append so the deque evicts everything just sealed —
        # the sweep below must be served off the mmap, not the tail.
        durable.append_many([payload] * 4)
        limit = STORAGE_FETCH_TOTAL - STORAGE_FETCH_MAX_RECORDS

        def sweep(log):
            t0 = time.perf_counter()
            count = 0
            offset = 0
            while offset < limit:
                records = log.fetch(
                    offset, max_records=STORAGE_FETCH_MAX_RECORDS
                )
                count += len(records)
                offset += len(records)
            return count / (time.perf_counter() - t0)

        probe = durable.fetch(0, max_records=1)
        zero_copy = isinstance(probe[0].value, memoryview)
        sweep(durable)  # warm: decode once, fill the batch cache
        sweep(mem)
        pairs = []
        for _ in range(STORAGE_PAIRS):
            deque_rate = sweep(mem)
            mmap_rate = sweep(durable)
            pairs.append((deque_rate, mmap_rate))
        regression = min(
            max(0.0, 1.0 - mmap_rate / deque_rate)
            for deque_rate, mmap_rate in pairs
        )
        counters = durable.storage.counters
        lookups = (
            counters["decode_cache_hits"] + counters["decode_cache_misses"]
        )
        return {
            "deque_fetch_rates": [round(d, 1) for d, _ in pairs],
            "mmap_fetch_rates": [round(m, 1) for _, m in pairs],
            "mmap_fetch_regression": round(regression, 4),
            "mmap_zero_copy": zero_copy,
            "decode_cache_hit_rate": round(
                counters["decode_cache_hits"] / lookups, 4
            )
            if lookups
            else 0.0,
        }
    finally:
        durable.close()
        shutil.rmtree(tmp, ignore_errors=True)


def _storage_kill_recovery() -> dict:
    """SIGKILL a 1-shard durable cluster; acked records must come back
    from its segment files (rf=1: there is no peer to copy from)."""
    from repro.broker import ClusterBroker, ClusterBrokerSupervisor
    from repro.broker.errors import RetriableError
    from repro.broker.storage import StorageConfig

    total = STORAGE_KILL_ROUNDS * STORAGE_KILL_BATCH
    tmp = tempfile.mkdtemp(prefix="bench-storage-kill-")
    try:
        with ClusterBrokerSupervisor(
            num_shards=1,
            topics=[("t", 1)],
            restart=True,
            log_dir=tmp,
            storage=StorageConfig(fsync_acks=True, flush_ms=5.0),
        ) as supervisor:
            client = ClusterBroker(supervisor.bootstrap)
            producer = Producer(client, client_id="bench-storage-kill")

            def shard_stats() -> dict:
                host, port = supervisor.addresses[0]
                remote = RemoteBroker(host, port)
                try:
                    return remote.stats()
                finally:
                    remote.close()

            expected = []
            try:
                for round_no in range(STORAGE_KILL_ROUNDS):
                    values = [
                        f"{round_no}:{i}".encode()
                        for i in range(STORAGE_KILL_BATCH)
                    ]
                    producer.send_many("t", values, partition=0)
                    expected.extend(values)

                supervisor.kill_shard(0)
                deadline = time.monotonic() + 60.0
                while supervisor.restarts < 1 and time.monotonic() < deadline:
                    time.sleep(0.05)
                while time.monotonic() < deadline:
                    try:
                        if shard_stats()["topics"]["t"]["records_in"] >= total:
                            break
                    except (RetriableError, ConnectionError, OSError):
                        pass
                    time.sleep(0.05)
                stats = shard_stats()
                records = client.fetch("t", 0, 0, max_records=total * 2)
                intact = [bytes(r.value) for r in records] == expected
                recovered = stats["storage"]["recovered_records"]
                return {
                    "acked_records": total,
                    "recovered_records": recovered,
                    "recovery_scan_bytes": stats["storage"][
                        "recovery_scan_bytes"
                    ],
                    "zero_acked_loss_from_disk": bool(
                        intact and recovered >= total
                    ),
                }
            finally:
                producer.close()
                client.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _storage_recovery_linearity() -> dict:
    """Reopen a many-segment log; boot must scan only the active file."""
    from repro.broker.message import Record
    from repro.broker.storage import SegmentStore, StorageConfig

    config = StorageConfig(segment_bytes=64 * 1024, flush_ms=60_000.0)
    payload = b"\xa5" * STORAGE_VALUE_BYTES
    tmp = tempfile.mkdtemp(prefix="bench-storage-linear-")
    directory = os.path.join(tmp, "t-0")

    def records_at(offset: int, count: int) -> list:
        return [
            Record("t", 0, offset + i, payload, None, {}, 0.0, 0.0)
            for i in range(count)
        ]

    store = SegmentStore(directory, "t", 0, config=config)
    offset = 0
    # Each flushed batch overflows segment_bytes, so every flush
    # seals a segment — the log ends up dominated by sealed files.
    for _ in range(STORAGE_LINEAR_SEGMENTS):
        store.append_batch(records_at(offset, STORAGE_BATCH))
        offset += STORAGE_BATCH
        store.flush()
    # A small flushed tail, then the store is abandoned as a crash would
    # leave it: close() would seal the tail and the boot would scan nothing.
    store.append_batch(records_at(offset, 8))
    store.flush()
    os.close(store._active_fd)

    reopened = SegmentStore(directory, "t", 0, config=config)
    try:
        stats = reopened.stats()
        return {
            "sealed_segments": stats["sealed_segments"],
            "log_bytes": reopened.size_bytes,
            "active_bytes": stats["active_bytes"],
            "recovery_scan_bytes": reopened.recovered.scan_bytes,
            "recovery_truncated_bytes": reopened.recovered.truncated_bytes,
        }
    finally:
        reopened.close()
        shutil.rmtree(tmp, ignore_errors=True)


def run_storage_guard() -> dict:
    """Measure, persist the artifact, and return the results."""
    pairs = []
    counters: dict = {}
    for _ in range(STORAGE_PAIRS):
        mem_rate, durable_rate, counters = _storage_produce_pair()
        pairs.append((mem_rate, durable_rate))
    produce_regression = min(
        max(0.0, 1.0 - durable / mem) for mem, durable in pairs
    )
    fsync_acks_rate = _storage_fsync_acks_rate()
    fetch = _storage_fetch_rates()
    recovery = _storage_kill_recovery()
    linearity = _storage_recovery_linearity()
    results = {
        "value_bytes": STORAGE_VALUE_BYTES,
        "batch_records": STORAGE_BATCH,
        "in_memory_produce_rates": [round(m, 1) for m, _ in pairs],
        "durable_produce_rates": [round(d, 1) for _, d in pairs],
        "durable_produce_regression": round(produce_regression, 4),
        "durable_fsyncs": counters.get("fsyncs", 0),
        "durable_appended_batches": counters.get("appended_batches", 0),
        "fsync_acks_produce_rate": round(fsync_acks_rate, 1),
        **fetch,
        **recovery,
        **linearity,
        "fast_mode": FAST,
    }
    STORAGE_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    STORAGE_ARTIFACT.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _check_storage(results: dict) -> list:
    failures = []
    if results["durable_produce_regression"] > 1.0 - MIN_DURABLE_RATIO:
        failures.append(
            f"durable produce fell to "
            f"{1.0 - results['durable_produce_regression']:.2f}x the "
            f"in-memory log (required >= {MIN_DURABLE_RATIO}x on the "
            f"cleanest pair)"
        )
    if not results["mmap_zero_copy"]:
        failures.append(
            "sealed-segment fetch returned materialized bytes instead of "
            "zero-copy memoryview slices"
        )
    if results["mmap_fetch_regression"] > MAX_MMAP_FETCH_REGRESSION:
        failures.append(
            f"mmap fetch of sealed segments ran "
            f"{results['mmap_fetch_regression']:.1%} behind the deque "
            f"fetch (allowed {MAX_MMAP_FETCH_REGRESSION:.0%})"
        )
    if not results["zero_acked_loss_from_disk"]:
        failures.append(
            "fsync-acked records did not all come back from the killed "
            "shard's segment files"
        )
    if results["recovered_records"] < results["acked_records"]:
        failures.append(
            f"disk recovery replayed {results['recovered_records']} of "
            f"{results['acked_records']} acked records"
        )
    if not results["recovery_scan_bytes"]:
        failures.append(
            "boot scanned nothing: the linearity check needs the crashed "
            "store's non-empty active segment"
        )
    if results["recovery_scan_bytes"] > results["active_bytes"]:
        failures.append(
            f"boot scanned {results['recovery_scan_bytes']} bytes for a "
            f"{results['active_bytes']}-byte active segment — recovery is "
            f"no longer linear in the active segment"
        )
    if (
        results["sealed_segments"] >= 4
        and results["recovery_scan_bytes"] * 2 > results["log_bytes"]
    ):
        failures.append(
            f"boot scan covered {results['recovery_scan_bytes']} of "
            f"{results['log_bytes']} log bytes — recovery cost is "
            f"tracking total log size"
        )
    return failures


@pytest.mark.bench
def test_storage_guard():
    results = run_storage_guard()
    failures = _check_storage(results)
    assert not failures, "; ".join(failures) + f"; see {STORAGE_ARTIFACT}"


@pytest.mark.bench
def test_batched_fast_path_guard():
    results = run_guard()
    assert results["batched_speedup"] >= MIN_SPEEDUP, (
        f"batched produce regressed to {results['batched_speedup']}x the "
        f"single-record path ({results['produce_batched_mb_s']} vs "
        f"{results['produce_single_mb_s']} MB/s); see {ARTIFACT}"
    )


# -- cluster observability guard (BENCH_observability.json) ------------------
#
# Two legs for the cluster-wide observability plane:
#
# - enabled-plane overhead: durable acks="all" produce throughput with
#   the tracers on (shard tracers with a sampled traced producer, plus
#   a live sampler scraping the federated aggregator) must stay within
#   MAX_OBSERVABILITY_OVERHEAD of the same cluster with telemetry off.
#   The shard registries and journals are on in BOTH legs — they are
#   not optional — so the gate prices tracing and scraping, not the
#   metrics system. Interleaved pairs, cleanest pair wins (same
#   rationale as the in-proc telemetry guard above).
# - scrape latency: ONE aggregator scrape of a 4-shard cluster — four
#   wire round-trips plus the registry reads and histogram merges — must
#   complete within MAX_SCRAPE_MS, so scraping on the sampler tick can
#   never stall the sampler. The same cluster exports the sample
#   incident artifacts CI uploads (events.jsonl, merged exposition).

OBS_PARTITIONS = 4
OBS_BATCH = 16
OBS_BATCHES = 4 if FAST else 8
OBS_PAYLOAD = 2048
#: Not reduced in FAST mode: the overhead metric takes the cleanest of
#: the interleaved pairs, and a single pair is scheduler noise.
OBS_PAIRS = 3
OBS_SCRAPE_SHARDS = 4
OBS_SCRAPE_ROUNDS = 5
#: Production tracing is sampled; tracing 100% of records is a client
#: decision with a client cost, not cluster instrumentation overhead.
#: The shard-side plane (hop spans for sampled contexts, aggregator
#: scrapes) stays fully enabled under this rate.
OBS_TRACE_SAMPLE = 0.1
MAX_OBSERVABILITY_OVERHEAD = 0.10
MAX_SCRAPE_MS = 50.0


def _obs_produce_rate(telemetry: bool) -> float:
    """Durable acks="all" records/s on a 2-shard rf=2 cluster.

    Both rounds run the shard registries and journals. The enabled
    round adds the shard tracers, a sampled traced producer (so sampled
    records carry a context and the leader/follower hop spans are
    recorded for them), and a background sampler scraping the federated
    aggregator on its tick.
    """
    from repro.broker import ClusterBroker, ClusterBrokerSupervisor
    from repro.monitoring import TelemetrySampler, Tracer
    from repro.monitoring.cluster import ClusterMetricsAggregator

    tmp = tempfile.mkdtemp(prefix="bench-obs-")
    try:
        with ClusterBrokerSupervisor(
            num_shards=2,
            topics=[("obs", OBS_PARTITIONS)],
            replication_factor=2,
            log_dir=tmp,
            telemetry=telemetry,
            trace_sample=OBS_TRACE_SAMPLE if telemetry else 1.0,
        ) as supervisor:
            broker = ClusterBroker(supervisor.bootstrap)
            producer = Producer(
                broker,
                client_id="obs-bench",
                acks="all",
                retries=5,
                tracer=(
                    Tracer("obs-bench", sample_rate=OBS_TRACE_SAMPLE)
                    if telemetry
                    else None
                ),
            )
            sampler = None
            try:
                if telemetry:
                    sampler = TelemetrySampler(interval_s=0.1)
                    sampler.watch_cluster(broker)
                    ClusterMetricsAggregator(broker).attach(sampler)
                    sampler.start()
                payload = bytes(OBS_PAYLOAD)
                # Warm the connections and the replica links out of band.
                for p in range(OBS_PARTITIONS):
                    producer.send_many("obs", [payload], partition=p)
                count = 0
                t0 = time.perf_counter()
                for batch in range(OBS_BATCHES):
                    for p in range(OBS_PARTITIONS):
                        records = [
                            payload + f"{batch}:{i}".encode()
                            for i in range(OBS_BATCH)
                        ]
                        producer.send_many("obs", records, partition=p)
                        count += OBS_BATCH
                elapsed = time.perf_counter() - t0
            finally:
                if sampler is not None:
                    sampler.stop(final_sample=False)
                producer.close()
                broker.close()
            return count / elapsed
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _obs_scrape_and_artifacts() -> dict:
    """Scrape latency on a 4-shard cluster + the exported sample artifacts."""
    from repro.broker import ClusterBroker, ClusterBrokerSupervisor
    from repro.monitoring.cluster import (
        ClusterEventCollector,
        ClusterMetricsAggregator,
    )

    tmp = tempfile.mkdtemp(prefix="bench-obs-scrape-")
    try:
        with ClusterBrokerSupervisor(
            num_shards=OBS_SCRAPE_SHARDS,
            topics=[("obs", OBS_SCRAPE_SHARDS * 2)],
            replication_factor=2,
            log_dir=tmp,
            telemetry=True,
        ) as supervisor:
            broker = ClusterBroker(supervisor.bootstrap)
            producer = Producer(broker, client_id="obs-scrape", acks="all")
            try:
                payload = bytes(OBS_PAYLOAD)
                for p in range(OBS_SCRAPE_SHARDS * 2):
                    producer.send_many("obs", [payload] * OBS_BATCH, partition=p)

                aggregator = ClusterMetricsAggregator(broker)
                collector = ClusterEventCollector(
                    cluster=broker, journals=[supervisor.events]
                )
                aggregator.scrape()  # warm the scrape connections
                times = []
                for _ in range(OBS_SCRAPE_ROUNDS):
                    t0 = time.perf_counter()
                    merged = aggregator.scrape()
                    times.append(time.perf_counter() - t0)
                collector.poll()

                OBSERVABILITY_EVENTS_JSONL.parent.mkdir(
                    parents=True, exist_ok=True
                )
                journal_events = collector.write_jsonl(
                    OBSERVABILITY_EVENTS_JSONL
                )
                OBSERVABILITY_EXPOSITION.write_text(aggregator.to_prometheus())
                return {
                    "scrape_shards": len(merged["shards"]),
                    "scrape_ms": round(min(times) * 1e3, 3),
                    "scrape_ms_all": [round(t * 1e3, 3) for t in times],
                    "journal_events": journal_events,
                    "merged_counters": len(merged["counters"]),
                    "merged_histograms": len(merged["histograms"]),
                }
            finally:
                producer.close()
                broker.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_observability_guard() -> dict:
    """Measure, persist the artifact, and return the results."""
    pairs = []
    for _ in range(OBS_PAIRS):
        disabled = _obs_produce_rate(telemetry=False)
        enabled = _obs_produce_rate(telemetry=True)
        pairs.append((disabled, enabled))
    overhead = min(
        max(0.0, 1.0 - enabled / disabled) for disabled, enabled in pairs
    )
    scrape = _obs_scrape_and_artifacts()
    results = {
        "partitions": OBS_PARTITIONS,
        "records_per_trial": OBS_PARTITIONS * OBS_BATCHES * OBS_BATCH,
        "payload_bytes": OBS_PAYLOAD,
        "disabled_rates": [round(d, 1) for d, _ in pairs],
        "enabled_rates": [round(e, 1) for _, e in pairs],
        "observability_overhead": round(overhead, 4),
        **scrape,
        "fast_mode": FAST,
    }
    OBSERVABILITY_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    OBSERVABILITY_ARTIFACT.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _check_observability(results: dict) -> list:
    failures = []
    if results["observability_overhead"] > MAX_OBSERVABILITY_OVERHEAD:
        failures.append(
            f"full instrumentation cut durable acks=all produce "
            f"throughput by {results['observability_overhead']:.1%} "
            f"(allowed {MAX_OBSERVABILITY_OVERHEAD:.0%} on the cleanest "
            f"pair)"
        )
    if results["scrape_shards"] < OBS_SCRAPE_SHARDS:
        failures.append(
            f"aggregator scraped {results['scrape_shards']} of "
            f"{OBS_SCRAPE_SHARDS} shards"
        )
    if results["scrape_ms"] > MAX_SCRAPE_MS:
        failures.append(
            f"one {OBS_SCRAPE_SHARDS}-shard aggregator scrape took "
            f"{results['scrape_ms']}ms (allowed {MAX_SCRAPE_MS}ms)"
        )
    if results["journal_events"] <= 0:
        failures.append("the exported events.jsonl artifact is empty")
    return failures


@pytest.mark.bench
def test_observability_guard():
    results = run_observability_guard()
    failures = _check_observability(results)
    assert not failures, "; ".join(failures) + f"; see {OBSERVABILITY_ARTIFACT}"


def main() -> int:
    status = 0
    results = run_guard()
    for key, value in results.items():
        print(f"{key:>24}: {value}")
    print(f"[artifact: {ARTIFACT}]")
    if results["batched_speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: batched produce speedup {results['batched_speedup']}x "
            f"< required {MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        status = 1
    else:
        print(f"OK: batched speedup {results['batched_speedup']}x >= {MIN_SPEEDUP}x")

    robust = run_robustness_guard()
    for key, value in robust.items():
        print(f"{key:>24}: {value}")
    print(f"[artifact: {ROBUSTNESS_ARTIFACT}]")
    robust_failures = _check_robustness(robust)
    for failure in robust_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
        status = 1
    if not robust_failures:
        print(
            f"OK: idempotence overhead {robust['idempotence_overhead']:.1%} "
            f"<= {MAX_IDEMPOTENCE_OVERHEAD:.0%}, lossy delivery "
            f"{robust['lossy_delivery_rate']:.2%}"
        )

    prefetch = run_prefetch_guard()
    for key, value in prefetch.items():
        print(f"{key:>24}: {value}")
    print(f"[artifact: {PREFETCH_ARTIFACT}]")
    prefetch_failures = _check_prefetch(prefetch)
    for failure in prefetch_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
        status = 1
    if not prefetch_failures:
        print(
            f"OK: prefetch WAN speedup {prefetch['wan_speedup']}x "
            f">= {MIN_PREFETCH_WAN_SPEEDUP}x, in-proc regression "
            f"{prefetch['inproc_regression']:.1%} "
            f"<= {MAX_PREFETCH_INPROC_REGRESSION:.0%}"
        )

    telemetry = run_telemetry_guard()
    for key, value in telemetry.items():
        print(f"{key:>24}: {value}")
    print(f"[artifact: {TELEMETRY_ARTIFACT}]")
    telemetry_failures = _check_telemetry(telemetry)
    for failure in telemetry_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
        status = 1
    if not telemetry_failures:
        print(
            f"OK: disabled-telemetry overhead "
            f"{telemetry['disabled_overhead']:.1%} <= "
            f"{MAX_TELEMETRY_OFF_OVERHEAD:.0%}, enabled "
            f"{telemetry['enabled_overhead']:.1%} <= "
            f"{MAX_TELEMETRY_ON_OVERHEAD:.0%}"
        )

    reactor = run_reactor_guard()
    for key, value in reactor.items():
        print(f"{key:>24}: {value}")
    print(f"[artifact: {REACTOR_ARTIFACT}]")
    reactor_failures = _check_reactor(reactor)
    for failure in reactor_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
        status = 1
    if not reactor_failures:
        print(
            f"OK: reactor served {reactor['connections']} connections with "
            f"{reactor['threads_added']} extra threads; drains "
            f"{reactor['inproc_reactor_msgs_s']} msgs/s in-proc, "
            f"{reactor['wan_reactor_msgs_s']} msgs/s at {WAN_RTT_MS} ms RTT"
        )

    multicore = run_multicore_guard()
    for key, value in multicore.items():
        print(f"{key:>24}: {value}")
    print(f"[artifact: {MULTICORE_ARTIFACT}]")
    multicore_failures = _check_multicore(multicore)
    for failure in multicore_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
        status = 1
    if not multicore_failures:
        gate = "gated" if multicore["gated"] else "ungated (<4 cores)"
        print(
            f"OK: 4-shard speedup {multicore['four_shard_speedup']}x "
            f"({gate}), single-shard regression "
            f"{multicore['single_shard_regression']:.1%} <= "
            f"{MAX_SINGLE_SHARD_REGRESSION:.0%}"
        )

    replication = run_replication_guard()
    for key, value in replication.items():
        print(f"{key:>24}: {value}")
    print(f"[artifact: {REPLICATION_ARTIFACT}]")
    replication_failures = _check_replication(replication)
    for failure in replication_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
        status = 1
    if not replication_failures:
        print(
            f"OK: replication overhead "
            f"{replication['replication_overhead']:.1%} <= "
            f"{MAX_REPLICATION_OVERHEAD:.0%}, failover MTTR "
            f"{replication['failover_mttr_s']}s <= {MAX_FAILOVER_MTTR_S}s, "
            f"zero acked loss"
        )

    storage = run_storage_guard()
    for key, value in storage.items():
        print(f"{key:>24}: {value}")
    print(f"[artifact: {STORAGE_ARTIFACT}]")
    storage_failures = _check_storage(storage)
    for failure in storage_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
        status = 1
    if not storage_failures:
        print(
            f"OK: durable produce at "
            f"{1.0 - storage['durable_produce_regression']:.2f}x in-memory "
            f"(>= {MIN_DURABLE_RATIO}x), mmap fetch regression "
            f"{storage['mmap_fetch_regression']:.1%} <= "
            f"{MAX_MMAP_FETCH_REGRESSION:.0%}, SIGKILL recovery replayed "
            f"{storage['recovered_records']} acked records from disk, "
            f"boot scanned {storage['recovery_scan_bytes']} bytes of a "
            f"{storage['log_bytes']}-byte log"
        )

    observability = run_observability_guard()
    for key, value in observability.items():
        print(f"{key:>24}: {value}")
    print(f"[artifact: {OBSERVABILITY_ARTIFACT}]")
    observability_failures = _check_observability(observability)
    for failure in observability_failures:
        print(f"FAIL: {failure}", file=sys.stderr)
        status = 1
    if not observability_failures:
        print(
            f"OK: full instrumentation overhead "
            f"{observability['observability_overhead']:.1%} <= "
            f"{MAX_OBSERVABILITY_OVERHEAD:.0%}, {OBS_SCRAPE_SHARDS}-shard "
            f"scrape {observability['scrape_ms']}ms <= {MAX_SCRAPE_MS}ms"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
