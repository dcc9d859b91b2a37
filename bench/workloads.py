"""The five continuum workloads and the code that runs one pass of each.

A *pass* is one fresh stack (pilots, cluster, log dir), one timed run and
one output check. The benchmark supplies its own ``produce_edge`` and
``process_cloud``: the first hands out pre-generated blocks stamped with
``(device, seq)`` and the due time, the second wraps the real processing
function and records what arrived, so the program sees only generated
inputs and every number is taken at a public call boundary.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from bench.check import (
    Ledger, Verdict, merge, payload_checksum, read_stamp, stamp_block, stamped_checksum)
from bench.harness import DEVICES, TOPIC, HostSpeed, Stack, cpu_seconds
from bench.stats import windows
from bench.trace import MessageStamps, TimingProxy, Trace, parse_message_id

FEATURES = 32
#: Closed loops cap the messages in flight; the paper's unbounded default makes
#: 2.6 MB runs swing twofold and turns latency into backlog length. The open
#: loop is never throttled.
MAX_INFLIGHT = 8
PARTITION_KEY = "pilot_edge.partition"  # FunctionContext.PARTITION
#: Rates are taken over windows about this long (see ``steady_state``).
WINDOW_S = 1.0
clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    points: int  # rows per block; a block is points x 32 float64
    pool_blocks: int  # distinct blocks per device, cycled
    deployed: bool = True  # 2-shard rf=2 durable cluster, else in-process Broker
    devices: int = DEVICES  # = partitions = consumers
    model: str | None = None  # "kmeans" | "iforest"; None = pass-through
    nominal_rate: float = 0.0  # msgs/s (all devices) that sizes a pass; the offered rate if open loop
    open_loop: bool = False
    passes: int = 3  # measured passes; a warm-up pass a third of the run long precedes them
    ml_check_prefix: int | None = None  # reference-replay this many msgs per partition
    deadline_s: float | None = None
    prefill: int = 0  # replay only: records per partition written at set-up
    #: The processor bounds the rate (no timer, no schedule does): rates and
    #: latencies are stated at the host's reference speed (harness.HostSpeed).
    host_bound: bool = False

    @property
    def block_bytes(self) -> int:
        return self.points * FEATURES * 8


#: A closed loop is one device with MAX_INFLIGHT messages in flight: two
#: devices share the cap unevenly (on ``small_stream`` one streamed at 300
#: msgs/s and was done at two fifths of the pass, the other at 100 and then,
#: alone, at 145), so a pass mixed two regimes, and on the workload that
#: computes, two busy consumers on two cores measure the scheduler. The open
#: loop and the replay have no cap to share and keep two.
WORKLOADS = {w.name: w for w in (
    Workload(
        "small_stream",
        "6.4 KB blocks, pass-through, deployed stack, closed loop of one device: per-message "
        "overheads (stubs, framing, dispatch, replication tick, commits) dominate",
        points=25, pool_blocks=64, nominal_rate=150.0, devices=1),
    Workload(
        "large_stream",
        "2.56 MB blocks, pass-through, deployed stack, closed loop of one device: per-byte "
        "costs (encode+CRC, socket copies, follower streaming, segment writes) dominate",
        # Not host_bound: the disk has its say, and stating the rate at the
        # reference speed did not steady it (ten runs: 9.8 % as measured,
        # 13.9 % at the reference speed).
        points=10_000, pool_blocks=4, nominal_rate=70.0, devices=1),
    Workload(
        "paced_kmeans",
        "256 KB blocks, streaming k-means with weights shared through repro.params, "
        "deployed stack, open loop at 58 msgs/s: the workload where latency is meaningful",
        # 29 msgs/s per device: a 34.5 ms period does not alias with the broker's
        # 20 ms replication tick the way 30 msgs/s (33.3 ms = 5/3 tick) does.
        points=1_000, pool_blocks=32, model="kmeans", nominal_rate=58.0, open_loop=True,
        deadline_s=1.0),
    Workload(
        "replay_sealed",
        "the same layers read instead of written: a pre-filled durable cluster is "
        "restarted and its sealed mmap segments replayed by fresh consumer groups",
        points=1_000, pool_blocks=32, prefill=260, host_bound=True),
    Workload(
        "model_iforest",
        "2.56 MB blocks, isolation forest, in-process Broker (no TCP, cluster or disk), one "
        "device: repro.ml does nearly all the work, so every broker optimisation is bypassed",
        # One long pass: the in-flight cap and the poll batch make the
        # latencies step by whole service times, and a short pass's median
        # hops between two steps.
        points=10_000, pool_blocks=4, deployed=False, model="iforest", nominal_rate=3.0,
        devices=1, passes=1, ml_check_prefix=2, host_bound=True),
)}


class Pool:
    """Blocks generated once from the seed and cycled by ``seq``.

    Both stamp slots are zeroed before the checksum is taken, so the
    checksum a stamped block must arrive with follows without a second
    pass over the payload.
    """

    def __init__(self, seed: int, points: int, per_device: int, devices: int = DEVICES) -> None:
        from repro.data.generator import DataBlockGenerator, GeneratorConfig

        self.blocks = []
        self._checksums = []
        self.references: dict = {}  # see reference_results()
        for device in range(devices):
            gen = DataBlockGenerator(GeneratorConfig(
                points=points, features=FEATURES, seed=seed * 1000 + device))
            blocks = [gen.next_block() for _ in range(per_device)]
            for block in blocks:
                block[0, 0:2] = 0.0
            self.blocks.append(blocks)
            self._checksums.append([payload_checksum(b) for b in blocks])

    def block(self, device: int, seq: int) -> np.ndarray:
        """The stamped block for ``(device, seq)``; the pool block is reused,
        which is safe because the pipeline encodes it before asking for the next."""
        blocks = self.blocks[device]
        return stamp_block(blocks[seq % len(blocks)], device, seq)

    def checksum(self, device: int, seq: int) -> int:
        sums = self._checksums[device]
        return stamped_checksum(sums[seq % len(sums)], device, seq)


class OpenLoop:
    """Fixed-rate schedule: message ``seq`` is due at ``origin + seq / rate``
    whether or not the system kept up, so a stall shows as latency of the
    messages behind it, not as a slower generator."""

    def __init__(self, rate: float, clock=clock, sleep=time.sleep) -> None:
        self.rate = rate
        self.origin: float | None = None
        self._clock = clock
        self._sleep = sleep

    def wait(self, seq: int) -> tuple[float, float]:
        """Sleep until *seq* is due; returns ``(due, lateness)``."""
        due = self.origin + seq / self.rate
        delay = due - self._clock()
        if delay > 0:
            self._sleep(delay)
        return due, max(0.0, self._clock() - due)


@dataclass
class PassResult:
    messages: int
    payload_bytes: int
    wall_s: float
    setup_s: float
    host_speed: float  # the host's speed during the pass over the reference; 0.0 if not sampled
    cpu_s: float
    latencies: list
    verdict: Verdict
    #: Messages per second in each ~1 s window of the pass's steady state (on
    #: the replay, in each replay) and the latencies of that state's messages.
    rates: list = field(default_factory=list)
    steady_latencies: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)  # stage -> seconds
    shard_peak_rss_mb: float = 0.0
    late: list = field(default_factory=list)  # open-loop generator lateness, s
    counts: dict = field(default_factory=dict)  # traced pass only
    stamps: MessageStamps | None = None  # traced pass only

    @property
    def msgs_per_s(self) -> float:
        return self.messages / self.wall_s



def model_factory(name: str):
    from repro.ml import IsolationForest, StreamingKMeans

    return {
        "kmeans": lambda: StreamingKMeans(n_clusters=25),
        "iforest": lambda: IsolationForest(n_estimators=100),
    }[name]


def make_processor(wl: Workload):
    from repro.core import make_model_processor, passthrough_processor

    if wl.model is None:
        return passthrough_processor
    share_key = "model" if wl.model == "kmeans" else None
    return make_model_processor(model_factory(wl.model), share_key=share_key)


class Functions:
    """The benchmark's ``produce_edge`` / ``process_cloud`` for one pass."""

    def __init__(self, wl: Workload, pool: Pool, ledger: Ledger, trace: Trace | None = None,
                 slowdown: float = 0.0) -> None:
        self.pool = pool
        self.ledger = ledger
        self.trace = trace
        self.stamps = MessageStamps() if trace is not None else None
        self.slowdown = slowdown
        self.speed = HostSpeed() if wl.host_bound else None
        self.inner = make_processor(wl)
        self.pacer = OpenLoop(wl.nominal_rate / wl.devices) if wl.open_loop else None
        self.first_produce: float | None = None
        self.last_done = 0.0
        self.late: list[float] = []
        self._seq = [0] * wl.devices
        self._origin_lock = threading.Lock()

    def produce_edge(self, context):
        now = clock()
        if self.first_produce is None:
            with self._origin_lock:
                if self.first_produce is None:
                    # The origin first: the other device's thread skips this
                    # block as soon as it sees first_produce set.
                    if self.pacer is not None:
                        self.pacer.origin = now
                    self.first_produce = now
        device = context[PARTITION_KEY]
        seq = self._seq[device]
        self._seq[device] = seq + 1
        if self.pacer is not None:
            due, late = self.pacer.wait(seq)
            self.late.append(late)
        else:
            due = now
        block = self.pool.block(device, seq)
        self.ledger.produced(device, seq, due)
        if self.trace is not None:
            msg = (device, seq)
            stamps = self.stamps.get(msg)
            stamps["root"] = self.trace.begin("message", due, None, list(msg))
            stamps["due"] = due
            stamps["produced"] = clock()
        return block

    def process_cloud(self, context, data):
        if self.speed is not None:
            self.speed.sample()
        start = clock()
        msg = read_stamp(data) if self.trace is not None else None
        trace = self.trace if msg is not None else None  # an unreadable stamp is not traced
        if trace is not None:
            stamps = self.stamps.get(msg)
            stamps.setdefault("process_start", start)
            sid = trace.begin("ml.process", start, stamps.get("root"), list(msg))
            trace.enter(sid)
        result = self.inner(context, data)
        if self.slowdown:
            # Gate self-test only: stretch this message's processing time
            # (asleep, so the other consumer thread is not slowed with it).
            time.sleep((clock() - start) * self.slowdown)
        done = clock()
        if trace is not None:
            trace.enter(None)
            trace.finish(sid, done)
            if "process_end" not in stamps:
                stamps["process_end"] = done
                if "root" in stamps:
                    trace.finish(stamps["root"], done)
        self.last_done = done
        self.ledger.arrived(data, done, threading.get_ident(), result)
        return result


def steady_state(ledger: Ledger, speed: HostSpeed | None = None) -> tuple[list, list]:
    """``(rates, latencies)`` of the part of a pass in which every consumer
    was at work: from the moment the last partition saw its first message
    complete (the pipeline is full from then on) to the moment the first
    partition ran dry. The ramp before and the drain after depend on how
    the threads happened to start and on which partition finished first,
    not on the program's speed, and a pass is short enough for them to show.

    ``rates`` holds the messages per second of each ~1 s window of that
    stretch, all partitions together (their consumers share an in-flight
    cap, so one's burst is the other's lull); the latencies are those of
    the messages that became due once the pipeline was full. With *speed*,
    both are stated at the host's reference speed.
    """
    done: dict[int, list] = {}
    seen = set()
    for device, seq, _, at, _, _ in ledger.arrivals:
        if (device, seq) not in seen:
            seen.add((device, seq))
            done.setdefault(device, []).append((at, ledger.due.get((device, seq))))
    if not done:
        return [], []
    start = max(lane[0][0] for lane in done.values())
    end = min(lane[-1][0] for lane in done.values())

    def factor(a, b):
        return speed.factor(a, b) if speed is not None else 1.0

    steady = sorted(at for lane in done.values() for at, _ in lane if start <= at <= end)
    rates = [count / (b - a) * factor(a, b) for a, b, count in windows(steady, WINDOW_S)]
    latencies = [(at - due) / factor(due, at)
                 for lane in done.values() for at, due in lane if due is not None and due >= start]
    return rates, latencies


def reference_results(wl: Workload, pool: Pool, expected: dict) -> dict | None:
    """(device, seq) -> what a fresh, single-threaded model returns when fed
    that partition's blocks in order (a prefix of it when the model is slow).

    Passes of one run replay the same blocks, so the pool keeps the answer.
    """
    if wl.model is None:
        return None
    limits = tuple(
        count if wl.ml_check_prefix is None else min(count, wl.ml_check_prefix)
        for count in expected.values())
    if limits not in pool.references:
        out = pool.references[limits] = {}
        for device, limit in zip(expected, limits):
            fn = make_processor(wl)
            for seq in range(limit):
                # No parameter client in the context: publishing weights does
                # not change what the model returns.
                out[(device, seq)] = fn(None, pool.block(device, seq))
    return pool.references[limits]


def broker_proxy(broker, trace: Trace, stamps: MessageStamps, counts: dict):
    """Timing proxy for the injected broker; ``append_many`` and ``fetch``
    also attribute their time to the messages they carried."""

    def on_append(args, kwargs, result, start, end):
        trace.span("broker.append_many", start, end)
        for headers in kwargs.get("headers") or ():
            msg = parse_message_id(headers.get("message_id"))
            if msg is not None:
                stamps.stamp(msg, "append_start", start)
                stamps.stamp(msg, "append_end", end)

    def on_fetch(args, kwargs, result, start, end):
        trace.span("broker.fetch", start, end)
        counts["fetches"] += 1
        counts["fetched_records"] += len(result)
        if not result:
            counts["fetches_empty"] += 1
        for record in result:
            msg = parse_message_id((record.headers or {}).get("message_id"))
            if msg is not None:
                stamps.stamp(msg, "fetched", end)

    return TimingProxy(broker, trace, "broker",
                       hooks={"append_many": on_append, "fetch": on_fetch},
                       children={"coordinator": "group"})


def run_pipeline_pass(wl: Workload, pool: Pool, scratch, per_device: int,
                      trace: Trace | None = None, slowdown: float = 0.0,
                      wrap_broker=None, max_duration: float = 120.0) -> PassResult:
    """One closed- or open-loop pass of the Mini-App pipeline."""
    from repro import EdgeToCloudPipeline, ParameterServer, PipelineConfig

    expected = {device: per_device for device in range(wl.devices)}
    ledger = Ledger(expected, pool.checksum, deadline_s=wl.deadline_s)
    fns = Functions(wl, pool, ledger, trace, slowdown)
    counts = {"fetches": 0, "fetched_records": 0, "fetches_empty": 0}
    log_dir = scratch.fresh("log") if wl.deployed else None
    setup_start = clock()
    stack = Stack(log_dir, wl.deployed, telemetry=trace is not None, devices=wl.devices).start()
    try:
        broker, params = stack.broker, None
        if trace is not None:
            broker = broker_proxy(broker, trace, fns.stamps, counts)
            params = TimingProxy(ParameterServer(), trace, "params")
        if wrap_broker is not None:
            broker = wrap_broker(broker)
        pipeline = EdgeToCloudPipeline(
            pilot_edge=stack.edge,
            pilot_cloud_processing=stack.cloud,
            produce_function_handler=fns.produce_edge,
            process_cloud_function_handler=fns.process_cloud,
            config=PipelineConfig(
                num_devices=wl.devices, messages_per_device=per_device, topic=TOPIC,
                max_inflight=0 if wl.open_loop else MAX_INFLIGHT, max_duration=max_duration),
            broker=broker,
            parameter_server=params,
        )
        cpu_start = cpu_seconds()
        run_start = clock()
        result = pipeline.run()
        run_end = clock()
        if trace is not None:
            counts.update(cluster_counts(stack))
            counts["duplicates_dropped"] = result.broker_stats.get("duplicates_dropped", 0)
    finally:
        stack.stop()
        scratch.discard(log_dir)
    cpu = cpu_seconds() - cpu_start
    first = fns.first_produce if fns.first_produce is not None else run_start
    errors = list(result.errors)
    if not result.completed and not errors:
        errors.append("run did not complete before max_duration")
    verdict = ledger.verify(
        reference=reference_results(wl, pool, expected), errors=errors,
        one_worker_per_device=wl.model is not None)
    timings = dict(stack.timings)
    timings["compute.startup"] = first - run_start
    if trace is not None:
        counts["complete"] = fns.stamps.emit(trace)
    messages = len({a[:2] for a in ledger.arrivals})
    rates, steady_latencies = steady_state(ledger, fns.speed)
    return PassResult(
        messages=messages,
        payload_bytes=messages * wl.block_bytes,
        wall_s=(fns.last_done or run_end) - first,
        setup_s=first - setup_start,
        host_speed=1.0 / fns.speed.factor(first, run_end) if fns.speed else 0.0,
        cpu_s=cpu,
        latencies=ledger.latencies(),
        verdict=verdict,
        rates=rates,
        steady_latencies=steady_latencies,
        timings=timings,
        shard_peak_rss_mb=stack.shard_peak_rss_mb,
        late=fns.late,
        counts=counts,
        stamps=fns.stamps,
    )


def cluster_counts(stack: Stack) -> dict:
    """Counters read from the cluster's public stats while it is still up."""
    broker = stack.broker
    out = {"requests_sent": getattr(broker, "requests_sent", 0)}
    if not stack.deployed:
        return out
    out["snapshots"] = broker.metrics_snapshots()
    out["replication"] = broker.replication_status()
    out["long_polls_parked"] = broker.stats().get("long_polls_parked", 0)
    return out


# -- replay_sealed -------------------------------------------------------------


def prefill(wl: Workload, pool: Pool, stack: Stack, speed: HostSpeed | None = None) -> None:
    """Write ``wl.prefill`` records per partition with ``acks="all"``,
    one producer thread per partition, ids in the pipeline's format."""
    from repro.broker import Producer
    from repro.data.serde import encode_block

    failures = []

    def fill(device: int) -> None:
        try:
            with Producer(stack.broker, acks="all", client_id=f"prefill-{device}") as producer:
                for seq in range(wl.prefill):
                    if speed is not None:
                        speed.sample()
                    producer.send_many(
                        TOPIC, [encode_block(pool.block(device, seq))], partition=device,
                        headers=[{"message_id": f"prefill/d{device}/m{seq}"}])
        except Exception as exc:  # surfaced below, on the main thread
            failures.append(exc)

    threads = [threading.Thread(target=fill, args=(d,)) for d in range(wl.devices)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


def replay_once(wl: Workload, pool: Pool, stack: Stack, group: str, trace: Trace | None,
                counts: dict, speed: HostSpeed | None = None) -> tuple[Ledger, list, float, float]:
    """One full replay from ``earliest`` by a fresh two-member group.

    Returns the ledger, the per-poll latencies, the wall time from before
    the consumers connect to the last record decoded, and the host's speed
    factor over that time (1.0 without *speed*).
    """
    from repro.broker import ClusterBroker, Consumer
    from repro.data.serde import decode_block

    expected = {device: wl.prefill for device in range(wl.devices)}
    ledger = Ledger(expected, pool.checksum)
    poll_latencies: list[float] = []
    # Members wait for each other before the first poll (so no record is
    # read under the one-member assignment) and before leaving (a leave
    # hands the partition, from its earliest offset, to whoever still reads).
    in_step = threading.Barrier(wl.devices)
    failures = []
    stamps = MessageStamps() if trace is not None else None

    def consume() -> None:
        client = None
        try:
            if trace is None:
                consumer = Consumer(bootstrap=stack.supervisor.bootstrap, group_id=group)
            else:
                client = ClusterBroker(stack.supervisor.bootstrap)
                consumer = Consumer(broker_proxy(client, trace, stamps, counts), group_id=group)
            with consumer:
                consumer.subscribe(TOPIC)
                in_step.wait(timeout=30)
                mine, last_progress = 0, clock()
                while True:
                    if speed is not None:
                        speed.sample()
                    start = clock()
                    records = consumer.poll(max_records=8, timeout=0.2)
                    for record in records:
                        t0 = clock()
                        block = decode_block(record.value, verify=True)
                        done = clock()
                        if trace is not None:
                            trace.span("serde.decode", t0, done)
                        ledger.arrived(block, done, threading.get_ident())
                    now = clock()
                    if records:
                        poll_latencies.append(now - start)
                        mine, last_progress = mine + len(records), now
                    # The assignment is final once the first poll after the
                    # barrier has seen the two-member generation.
                    if mine >= len(consumer.assignment) * wl.prefill:
                        break
                    if now - last_progress > 10.0:
                        raise TimeoutError("replay made no progress for 10 s")
                finished.append(clock())
                in_step.wait(timeout=30)
            if client is not None:
                requests.append(client.requests_sent)
        except Exception as exc:  # re-raised below, on the main thread
            failures.append(exc)
            in_step.abort()
        finally:
            if client is not None:
                client.close()

    requests: list[int] = []
    finished: list[float] = []
    start = clock()
    threads = [threading.Thread(target=consume) for _ in range(wl.devices)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    wall = max(finished) - start
    counts["requests_sent"] += sum(requests)
    factor = speed.factor(start, start + wall) if speed is not None else 1.0
    return ledger, poll_latencies, wall, factor


def run_replay_pass(wl: Workload, pool: Pool, scratch, seconds: float,
                    trace: Trace | None = None) -> PassResult:
    """Set-up (pre-fill, stop, restart on the same log dir), then full
    replays back to back until *seconds* of replay time have been measured."""
    counts = {"fetches": 0, "fetched_records": 0, "fetches_empty": 0, "requests_sent": 0}
    log_dir = scratch.fresh("log")
    setup_start = clock()
    stack = Stack(log_dir, telemetry=trace is not None, devices=wl.devices).start()
    try:
        # The pre-fill is most of the set-up and the client's threads are busy
        # in it: the set-up is stated at the speed the host had then.
        setup_speed = HostSpeed() if wl.host_bound else None
        prefill(wl, pool, stack, setup_speed)
        stack.restart()
        setup_s = clock() - setup_start
        if setup_speed is not None:
            setup_s /= setup_speed.factor(setup_start, setup_start + setup_s)
        # Untimed: the first replay after a restart pays the mmap faults and
        # index loads that later replays of the same segments do not.
        replay_once(wl, pool, stack, "replay-warm", None, counts)
        speed = HostSpeed() if wl.host_bound else None
        cpu_start, cpu_start_at = cpu_seconds(), clock()
        verdicts, latencies, rates, wall, replays = [], [], [], 0.0, 0
        while wall < seconds or replays < 2:
            ledger, polls, took, factor = replay_once(
                wl, pool, stack, f"replay-{replays}", trace, counts, speed)
            verdicts.append(ledger.verify())
            latencies.extend(x / factor for x in polls)
            rates.append(len(ledger.arrivals) / took * factor)
            wall += took
            replays += 1
        if trace is not None:
            counts.update({k: v for k, v in cluster_counts(stack).items()
                           if k != "requests_sent"})
    finally:
        stack.stop()
        scratch.discard(log_dir)
    verdict = merge(verdicts)
    messages = verdict.attempted - verdict.failed
    return PassResult(
        messages=messages,
        payload_bytes=messages * wl.block_bytes,
        wall_s=wall,
        setup_s=setup_s,
        host_speed=1.0 / speed.factor(cpu_start_at, clock()) if speed else 0.0,
        cpu_s=cpu_seconds() - cpu_start,
        latencies=latencies,
        verdict=verdict,
        # One replay is one window: connect, join, read everything, leave.
        rates=rates,
        steady_latencies=latencies,
        timings=dict(stack.timings),
        shard_peak_rss_mb=stack.shard_peak_rss_mb,
        counts=counts,
    )
