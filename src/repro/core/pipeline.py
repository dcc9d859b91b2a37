"""The EdgeToCloudPipeline: Pilot-Edge's execution engine.

Wires the application's FaaS functions across the acquired pilots
(paper Listing 2 / Fig. 1 step 2):

1. A topic with one partition per edge device is created on the
   pilot-managed broker.
2. One long-running *producer task* per device is placed on the edge
   pilot's compute cluster. It repeatedly calls ``produce_edge``,
   optionally applies ``process_edge`` (hybrid/edge placements), frames
   the block in the wire format and publishes it to the device's
   partition — paying the edge→broker link cost when a topology is
   configured.
3. *Consumer tasks* (one per partition by default) are placed on the
   processing pilot's cluster. Each joins the run's consumer group,
   polls its partitions, pays the broker→processing link cost, decodes
   and runs ``process_cloud`` — whose reference can be swapped at
   runtime (:meth:`replace_cloud_function`), the paper's low/high
   fidelity model exchange.
4. Every message is stamped at produce / broker_in / consume /
   process_start / process_end, linked by a run-scoped message id, so
   the result's report can attribute the bottleneck.

The pipeline is synchronous from the caller's perspective: ``run()``
blocks until every expected message is processed (or the deadline
passes) and returns a :class:`PipelineResult`.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.broker.broker import Broker
from repro.broker.consumer import Consumer
from repro.broker.errors import RebalanceInProgressError
from repro.broker.producer import Producer
from repro.compute.task import ResourceSpec, Task
from repro.core.config import PipelineConfig
from repro.core.context import FunctionContext
from repro.core.events import (
    FUNCTION_REPLACED,
    SCALED,
    EventBus,
)
from repro.core.placement import CloudCentricPlacement, PlacementDecision, PlacementPolicy
from repro.data.serde import decode_block, encode_block
from repro.monitoring.collector import MetricsCollector
from repro.monitoring.report import ThroughputReport, analyze_bottleneck
from repro.netem.link import Link
from repro.params.client import ParameterClient
from repro.params.server import ParameterServer
from repro.pilot.compute import PilotCompute
from repro.pilot.states import PilotState
from repro.util.ids import new_run_id
from repro.util.ringbuffer import RingBuffer
from repro.util.validation import ValidationError, check_positive

#: Consumer tasks commit their offsets every this many processed records.
_COMMIT_INTERVAL = 32
#: Max records per consumer poll, and how long (seconds) one poll blocks.
_POLL_BATCH = 8
_POLL_TIMEOUT_S = 0.2
#: A run keeps the last this many processing results for inspection.
_KEEP_RESULTS = 1024
#: A producer's batch closes once its payloads reach this many bytes: the
#: store's urgent-flush mark (``_FLUSH_BYTES`` in
#: ``repro.broker.storage.store``, also 1 MiB), past which an append is
#: flushed at once anyway. So a 2.56 MB block always goes alone.
_BATCH_BYTES = 1024 * 1024
#: What ``_make_message`` returns for a message the edge function absorbed.
_ABSORBED = object()


@dataclass
class PipelineResult:
    """Everything a run produced."""

    run_id: str
    completed: bool
    report: ThroughputReport
    bottleneck: dict
    results: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    broker_stats: dict = field(default_factory=dict)
    placement: PlacementDecision | None = None

    @property
    def throughput_mb_s(self) -> float:
        return self.report.throughput_mb_s

    @property
    def latency_mean_s(self) -> float:
        return self.report.latency_mean_s


class EdgeToCloudPipeline:
    """Deploys an edge-to-cloud application across pilots (Listing 2)."""

    def __init__(
        self,
        pilot_edge: PilotCompute,
        pilot_cloud_processing: PilotCompute,
        produce_function_handler: Callable,
        process_cloud_function_handler: Callable,
        pilot_cloud_broker: PilotCompute | None = None,
        process_edge_function_handler: Callable | None = None,
        function_context: dict | None = None,
        config: PipelineConfig | None = None,
        topology=None,
        parameter_server: ParameterServer | None = None,
        placement: PlacementPolicy | None = None,
        event_bus: EventBus | None = None,
        run_id: str | None = None,
        broker: Broker | None = None,
        registry=None,
        tracer=None,
        sampler=None,
    ) -> None:
        for name, pilot in (("pilot_edge", pilot_edge), ("pilot_cloud_processing", pilot_cloud_processing)):
            if not isinstance(pilot, PilotCompute):
                raise ValidationError(f"{name} must be a PilotCompute, got {type(pilot).__name__}")
        if not callable(produce_function_handler):
            raise ValidationError("produce_function_handler must be callable")
        if not callable(process_cloud_function_handler):
            raise ValidationError("process_cloud_function_handler must be callable")

        self.pilot_edge = pilot_edge
        self.pilot_cloud_processing = pilot_cloud_processing
        self.pilot_cloud_broker = pilot_cloud_broker or pilot_cloud_processing
        self.config = config or PipelineConfig()
        self.topology = topology
        self.run_id = run_id or new_run_id()
        self.events = event_bus or EventBus()
        self.placement_policy = placement or CloudCentricPlacement()

        self._produce_fn = produce_function_handler
        self._edge_fn = process_edge_function_handler
        self._cloud_fn = process_cloud_function_handler
        self._fn_lock = threading.Lock()

        self._param_server = parameter_server or ParameterServer(name=f"{self.run_id}-params")
        # Tracing and sampling are opt-in: left as None the data path has
        # no per-message tracing hooks and no background sampling.
        self._tracer = tracer
        self._sampler = sampler
        self._owns_sampler = False
        # The broker may be injected (e.g. a pilot-managed broker from
        # repro.pilot.frameworks.ManagedBroker); otherwise the pipeline
        # manages a private one — durable (segment-backed, with crash
        # recovery) when the config names a log_dir.
        self._owns_broker = broker is None
        if broker is not None:
            self._broker = broker
        else:
            cfg = self.config
            storage = None
            if cfg.log_dir is not None:
                from repro.broker.storage import StorageConfig

                storage = StorageConfig(fsync_acks=cfg.log_fsync_acks)
            self._broker = Broker(
                name=f"{self.run_id}-broker",
                tracer=tracer,
                log_dir=cfg.log_dir,
                storage=storage,
            )
        self._collector = MetricsCollector(self.run_id, registry=registry)
        # Consumer-side numbers stay plain fields of the consumers; the
        # run's registry reads them through these two callbacks.
        self._consumers: list[Consumer] = []
        self._collector.registry.add_reader("counters", self._consumer_counters)
        self._collector.registry.add_reader("gauges", self._consumer_gauges)
        self._results = RingBuffer(_KEEP_RESULTS)
        self._errors: list[str] = []
        self._errors_lock = threading.Lock()

        self._user_context = dict(function_context or {})
        # Distinct message ids processed: consumer-group rebalances give
        # at-least-once delivery, so completion must count unique ids,
        # not deliveries. Per device, the count the in-flight window reads.
        self._processed_ids: set = set()
        self._processed_per_device: Counter = Counter()
        self._processed_lock = threading.Lock()
        # Producers park here under backpressure; consumers signal it
        # from _count_processed_many as messages drain.
        self._backpressure = threading.Condition()
        self._produced = 0  # messages made, all devices (``_processed_lock``)
        # Completion target: the configured total until every producer
        # task has ended, then what they actually produced (guarded by
        # ``_processed_lock``, like the count it is compared with).
        self._expected = self.config.total_messages
        self._producers_left = self.config.num_devices
        self._done = threading.Event()
        self._abort = threading.Event()
        self._started = False
        self._consumer_stops: list[threading.Event] = []
        self._extra_consumer_futures: list = []
        self._decision: PlacementDecision | None = None

    # -- public accessors -----------------------------------------------------

    @property
    def broker(self) -> Broker:
        return self._broker

    @property
    def parameter_server(self) -> ParameterServer:
        return self._param_server

    @property
    def collector(self) -> MetricsCollector:
        return self._collector

    @property
    def registry(self):
        return self._collector.registry

    @property
    def tracer(self):
        return self._tracer

    @property
    def sampler(self):
        return self._sampler

    @property
    def processed_count(self) -> int:
        with self._processed_lock:
            return len(self._processed_ids)

    def _count_processed_many(self, message_ids, devices) -> list[bool]:
        """Record a batch of processed messages, each with its device (=
        partition), under one lock acquisition; returns, per id, whether it
        was new (first delivery). Signals backpressured producers after the
        lock is released: they read the counts (which take that lock) while
        holding the backpressure condition."""
        flags = []
        with self._processed_lock:
            for message_id, device in zip(message_ids, devices):
                if message_id in self._processed_ids:
                    flags.append(False)
                else:
                    self._processed_ids.add(message_id)
                    self._processed_per_device[device] += 1
                    flags.append(True)
            if len(self._processed_ids) >= self._expected:
                self._done.set()
        # Always notify: besides backpressured producers, outside callers
        # (RunningPipeline.wait_for_processed) wait on this condition for
        # progress.
        if any(flags):
            with self._backpressure:
                self._backpressure.notify_all()
        return flags

    @property
    def produced_count(self) -> int:
        with self._processed_lock:
            return self._produced

    # -- runtime reconfiguration -------------------------------------------------

    def replace_cloud_function(self, fn: Callable) -> None:
        """Swap the processing function at runtime (no new pilot needed)."""
        if not callable(fn):
            raise ValidationError("replacement function must be callable")
        with self._fn_lock:
            old = self._cloud_fn
            self._cloud_fn = fn
        self.events.publish(
            FUNCTION_REPLACED,
            stage="cloud",
            old=getattr(old, "__name__", "?"),
            new=getattr(fn, "__name__", "?"),
        )

    def replace_edge_function(self, fn: Callable | None) -> None:
        """Swap (or remove) the edge pre-processing function at runtime."""
        with self._fn_lock:
            old = self._edge_fn
            self._edge_fn = fn
        self.events.publish(
            FUNCTION_REPLACED,
            stage="edge",
            old=getattr(old, "__name__", None),
            new=getattr(fn, "__name__", None),
        )

    def _current_cloud_fn(self) -> Callable:
        with self._fn_lock:
            return self._cloud_fn

    def _current_edge_fn(self) -> Callable | None:
        with self._fn_lock:
            return self._edge_fn

    def scale_consumers(self, additional: int) -> None:
        """Add consumer tasks at runtime (responds to load peaks)."""
        check_positive("additional", additional)
        if not self._started:
            raise ValidationError("scale_consumers() requires a running pipeline")
        cluster = self._processing_cluster()
        start = len(self._consumer_stops)
        for i in range(int(additional)):
            consumer = self._make_consumer()
            stop = threading.Event()
            self._consumer_stops.append(stop)
            future = cluster.scheduler.submit(
                Task(
                    fn=self._consumer_loop,
                    args=(consumer, start + i, stop),
                    resources=ResourceSpec(cores=1, memory_gb=1),
                )
            )
            self._extra_consumer_futures.append(future)
        self.events.publish(SCALED, component="consumers", added=int(additional))

    # -- wiring helpers --------------------------------------------------------------

    def _require_running(self, pilot: PilotCompute, role: str) -> None:
        if pilot.state is not PilotState.RUNNING:
            raise ValidationError(
                f"{role} pilot {pilot.pilot_id} is {pilot.state.value}; "
                "wait for RUNNING before starting the pipeline"
            )

    def _link(self, a_site: str, b_site: str) -> Link | None:
        if self.topology is None or a_site == b_site:
            return None
        return self.topology.link(a_site, b_site)

    def _processing_cluster(self):
        # Consumers always run on the processing pilot. In edge-centric
        # placement the heavy function executes inline on the device
        # (inside the producer task) and the consumers are mere sinks —
        # running them on the edge would steal the devices' single cores.
        return self.pilot_cloud_processing.cluster

    def _base_context(self, site: str, link: Link | None = None) -> FunctionContext:
        params = ParameterClient(self._param_server, link=link, namespace=self.run_id)
        return FunctionContext.build(
            run_id=self.run_id,
            user_context=self._user_context,
            params=params,
            topology=self.topology,
            site=site,
        )

    def _record_error(self, where: str, exc: BaseException) -> None:
        with self._errors_lock:
            self._errors.append(f"{where}: {exc!r}")
        self.events.publish("pipeline.error", where=where, error=repr(exc))

    def _make_consumer(self) -> Consumer:
        cfg = self.config
        consumer = Consumer(
            self._broker,
            group_id=f"{self.run_id}-processors",
            session_timeout_ms=(
                cfg.session_timeout_ms if cfg.session_timeout_ms > 0 else None
            ),
            fetch_prefetch_batches=cfg.fetch_prefetch_batches,
            fetch_max_buffer_bytes=cfg.fetch_max_buffer_bytes,
            fetch_min_bytes=cfg.fetch_min_bytes,
            fetch_max_wait_ms=cfg.fetch_max_wait_ms,
            tracer=self._tracer,
            trace_site=self.pilot_cloud_processing.site,
        )
        consumer.subscribe(cfg.topic)
        self._consumers.append(consumer)
        return consumer

    # -- the two task bodies -------------------------------------------------------

    def _producer_loop(self, device_index: int) -> int:
        """Body of one edge producer task; returns messages sent.

        Each round waits for room in the device's in-flight window, makes
        every message that room admits and sends them as one append (one
        request, one idempotent ``base_sequence``). A round closes early
        once it holds ``_BATCH_BYTES``; without a window, or when paced,
        it is one message.
        """
        cfg = self.config
        edge_site = self.pilot_edge.site
        uplink = self._link(edge_site, self.pilot_cloud_broker.site)
        device_id = f"device-{device_index}"
        context = self._base_context(edge_site).for_device(device_id, device_index, edge_site)
        producer = Producer(
            self._broker,
            client_id=f"{self.run_id}-{device_id}",
            retries=cfg.producer_retries,
            retry_backoff_ms=cfg.retry_backoff_ms,
            tracer=self._tracer,
            trace_site=edge_site,
        )
        seq = 0  # messages made so far: sent, dropped or absorbed
        sent = 0
        ended = False
        while not ended and seq < cfg.messages_per_device and not self._abort.is_set():
            room = self._wait_for_room(device_index, seq) if cfg.max_inflight > 0 else 1
            if cfg.produce_interval > 0:
                room = 1  # paced: one message per append
            first, batch, nbytes = seq, [], 0
            while len(batch) < room and nbytes < _BATCH_BYTES and seq < cfg.messages_per_device:
                message = self._make_message(context, device_index, seq)
                if message is None:
                    ended = True
                    break
                seq += 1
                if message is not _ABSORBED:
                    batch.append(message)
                    nbytes += len(message[1])
            if batch:
                sent += self._send_batch(producer, uplink, device_index, batch)
            with self._processed_lock:
                self._produced += seq - first
            if batch and cfg.produce_interval > 0:
                time.sleep(cfg.produce_interval)
        producer.close()
        if producer.produce_retries:
            self._collector.incr("produce_retries", producer.produce_retries)
        return sent

    def _wait_for_room(self, device_index: int, made: int) -> int:
        """Park until the device has fewer than ``max_inflight`` messages
        made and not yet processed; returns the free room (at least 1).
        _count_processed_many signals the drain; the short wait timeout
        only covers abort/deadline. One stall = one counted wait."""
        stalled = False
        with self._backpressure:
            while True:
                with self._processed_lock:
                    room = self.config.max_inflight - (
                        made - self._processed_per_device[device_index]
                    )
                if room > 0 or self._abort.is_set() or self._done.is_set():
                    return max(room, 1)
                if not stalled:
                    stalled = True
                    self._collector.incr("backpressure_waits")
                self._backpressure.wait(0.05)

    def _make_message(self, context, device_index: int, seq: int):
        """Make message *seq* of a device: ``(message_id, payload,
        headers)``, ``_ABSORBED`` when the edge function took it, or None
        when the produce function has no more."""
        edge_site = self.pilot_edge.site
        block = self._produce_fn(context)
        if block is None:
            return None
        message_id = f"{self.run_id}/d{device_index}/m{seq}"
        produce_ts = time.monotonic()
        headers = {"message_id": message_id, "device": f"device-{device_index}"}
        edge_fn = self._current_edge_fn()
        if edge_fn is not None and (self._decision is None or self._decision.edge_preprocess):
            block = edge_fn(context, block)
            if block is None:
                # Windowing/filtering edge functions absorb messages
                # (nothing to forward yet). Account the message so
                # the run's completion target is still reachable.
                self._collector.incr("messages_absorbed_at_edge")
                self._count_processed_many((message_id,), (device_index,))
                return _ABSORBED
        if self._decision is not None and self._decision.processing_tier == "edge":
            # Edge-centric placement: the heavy function runs on the
            # device; only its (small) result block crosses the link.
            self._collector.stamp(message_id, "process_start", time.monotonic(), site=edge_site)
            result = self._current_cloud_fn()(context, block)
            self._collector.stamp(message_id, "process_end", time.monotonic(), site=edge_site)
            self._results.append(result)
            block = _result_block(result)
            headers["processed"] = True
        payload = encode_block(block, compress=self.config.compress_wire)
        self._collector.stamp(
            message_id,
            "produce",
            produce_ts,
            nbytes=len(payload),
            site=edge_site,
            partition=device_index,
        )
        return message_id, payload, headers

    def _send_batch(self, producer: Producer, uplink, device_index: int, batch) -> int:
        """Send *batch* ``[(message_id, payload, headers)]`` as one append
        (one uplink transfer, one request); returns the messages sent."""
        cfg = self.config
        ids = [message_id for message_id, _, _ in batch]
        payloads = [payload for _, payload, _ in batch]
        self._collector.stamp_many(ids, "uplink_start", time.monotonic(), site=self.pilot_edge.site)
        for attempt in range(cfg.producer_retries + 1):
            if attempt:
                # At-least-once mode: the uplink dropped the batch — resend
                # it. Only the uplink is retried here: the producer cannot
                # see it, and it retries a broker failure itself.
                self._collector.incr("produce_retries")
            try:
                if uplink is not None:
                    uplink.transfer(sum(len(payload) for payload in payloads))
            except ConnectionError:
                continue
            try:
                producer.send_many(
                    cfg.topic,
                    payloads,
                    partition=device_index,
                    headers=[headers for _, _, headers in batch],
                )
            except ConnectionError:
                break  # the producer spent its retries: drop the batch
            broker_site = self.pilot_cloud_broker.site
            self._collector.stamp_many(ids, "broker_in", time.monotonic(), site=broker_site)
            return len(batch)
        # Lossy-link drop: account for the messages (QoS-0 semantics) so
        # the run can still complete.
        self._collector.incr("messages_dropped", len(batch))
        self._count_processed_many(ids, [device_index] * len(ids))
        return 0

    def _consumer_loop(self, consumer: Consumer, index: int, stop: threading.Event) -> int:
        """Body of one processing consumer task; returns records handled."""
        broker_site = self.pilot_cloud_broker.site
        proc_site = self.pilot_cloud_processing.site
        downlink = self._link(broker_site, proc_site)
        context = self._base_context(proc_site).for_device(
            f"consumer-{index}", -1, proc_site
        )
        handled = 0
        since_commit = 0
        try:
            while not (self._done.is_set() or self._abort.is_set() or stop.is_set()):
                records = consumer.poll(
                    max_records=_POLL_BATCH, timeout=_POLL_TIMEOUT_S
                )
                if not records:
                    continue
                handled += self._handle_records(
                    records, context, downlink, broker_site, proc_site
                )
                since_commit += len(records)
                if since_commit >= _COMMIT_INTERVAL:
                    try:
                        consumer.commit()
                    except RebalanceInProgressError:
                        # Evicted mid-batch: positions are stale, the next
                        # poll re-fetches the post-rebalance assignment.
                        # At-least-once delivery + the pipeline's dedup
                        # absorb the redelivered records.
                        self._collector.incr("commits_refused")
                    since_commit = 0
        finally:
            try:
                consumer.commit()
            except Exception as exc:  # noqa: BLE001 — teardown goes on;
                # the uncommitted tail is redelivered, and counted.
                self._collector.incr(f"final_commit_errors.{type(exc).__name__}")
            consumer.close()
        return handled

    def _consumer_counters(self) -> dict:
        """Totals over this run's consumers, read from their own fields
        (names that stayed at zero are left out)."""
        totals = {"heartbeats_missed": 0, "prefetch_hits": 0, "prefetch_evictions": 0}
        for consumer in list(self._consumers):
            # Each eviction is a missed session deadline observed by
            # the consumer when its next heartbeat bounced.
            totals["heartbeats_missed"] += consumer.evictions
            stats = consumer.stats()
            totals["prefetch_hits"] += stats.get("prefetch_hits", 0)
            totals["prefetch_evictions"] += stats.get("prefetch_evictions", 0)
        return {name: value for name, value in totals.items() if value}

    def _consumer_gauges(self) -> dict:
        peaks = [
            stats["max_fetches_in_flight"]
            for stats in (consumer.stats() for consumer in list(self._consumers))
            if "max_fetches_in_flight" in stats
        ]
        return {"fetches_in_flight": max(peaks)} if peaks else {}

    def _handle_records(
        self, records, context, downlink, broker_site: str, proc_site: str
    ) -> int:
        """Consume one polled record batch: stamp, dedupe, decode, score.

        Every per-record stamp loop runs through ``stamp_many`` (one
        collector lock acquisition per batch per stage); each fresh
        record then reaches the user function in its own
        ``process_cloud(context, block)`` call.
        """
        # Normalize the message id to str ONCE: the record.offset
        # fallback is an int, and int-keyed stamps would file the same
        # message under two keys (trace vs processed-set).
        ids = [str(r.headers.get("message_id", r.offset)) for r in records]
        # Queue exit: the records left the broker; downlink transfers
        # happen next.
        self._collector.stamp_many(ids, "dequeue", time.monotonic(), site=broker_site)
        if downlink is not None:
            alive = []
            dropped = []
            for message_id, record in zip(ids, records):
                try:
                    downlink.transfer(record.size)
                except ConnectionError:
                    dropped.append((message_id, record.partition))
                else:
                    alive.append((message_id, record))
            if dropped:
                self._collector.incr("messages_dropped", len(dropped))
                self._count_processed_many(*zip(*dropped))
            if not alive:
                return len(records)
        else:
            alive = list(zip(ids, records))
        now = time.monotonic()
        self._collector.stamp_many(
            [m for m, _ in alive],
            "consume",
            now,
            nbytes=[r.size for _, r in alive],
            site=proc_site,
            partition=[r.partition for _, r in alive],
        )
        new_flags = self._count_processed_many(
            [m for m, _ in alive], [r.partition for _, r in alive]
        )
        fresh = []
        sink = []
        duplicates = 0
        for (message_id, record), is_new in zip(alive, new_flags):
            if record.headers.get("processed"):
                # Edge-centric mode: already processed on-device.
                sink.append(message_id)
            elif is_new:
                fresh.append((message_id, record))
            else:
                duplicates += 1
        if sink:
            self._collector.stamp_many(sink, "consume_sink", now)
        if duplicates:
            self._collector.incr("duplicate_deliveries", duplicates)
        if fresh:
            fn = self._current_cloud_fn()
            for message_id, record in fresh:
                self._process_record(message_id, record, fn, context, proc_site)
        return len(records)

    def _process_record(
        self, message_id: str, record, fn: Callable, context, proc_site: str
    ) -> None:
        """Per-message processing: decode, score, stamp — one user call."""
        block = decode_block(record.value)
        self._collector.stamp(
            message_id, "process_start", time.monotonic(), site=proc_site
        )
        try:
            result = fn(context, block)
        except Exception as exc:
            # A failing user function poisons one message,
            # not the consumer: record and keep consuming.
            self._collector.incr("processing_errors")
            self._record_error(f"process[{message_id}]", exc)
        else:
            self._collector.stamp(
                message_id,
                "process_end",
                time.monotonic(),
                nbytes=record.size,
                site=proc_site,
            )
            self._results.append(result)

    def _producer_ended(self, _future) -> None:
        """Done-callback of every producer task (returned, went quiet
        early or raised). After the last one nothing more will arrive, so
        the run ends when what was produced is processed instead of
        waiting out ``max_duration`` for messages that never existed."""
        with self._processed_lock:
            self._producers_left -= 1
            if self._producers_left:
                return
            self._expected = self._produced
            if len(self._processed_ids) >= self._expected:
                self._done.set()

    # -- the run -----------------------------------------------------------------------

    def run(self, wait: bool = True) -> PipelineResult | "RunningPipeline":
        """Execute the pipeline; blocks until completion unless ``wait=False``.

        With ``wait=False`` a :class:`RunningPipeline` handle is returned
        so the caller can reconfigure the pipeline mid-flight (function
        replacement, consumer scaling) and then ``join()``.
        """
        if self._started:
            raise ValidationError("pipeline already started")
        self._started = True
        cfg = self.config

        self._require_running(self.pilot_edge, "edge")
        self._require_running(self.pilot_cloud_processing, "processing")
        self._require_running(self.pilot_cloud_broker, "broker")

        # Placement decision (step 2.1): which tier processes, and
        # whether the edge pre-processing stage is active. Only
        # cost-driven policies need the message-size probe.
        sample_bytes = (
            self._estimate_message_bytes()
            if getattr(self.placement_policy, "requires_probe", False)
            else 0
        )
        self._decision = self.placement_policy.decide(
            message_bytes=sample_bytes,
            edge_site=self.pilot_edge.site,
            cloud_site=self.pilot_cloud_processing.site,
            topology=self.topology,
            compression_ratio=getattr(self._edge_fn, "compression_ratio", 1.0),
        )

        self._broker.create_topic(
            cfg.topic, num_partitions=cfg.num_devices, exist_ok=True
        )

        if self._sampler is not None:
            # Watch the run's broker (log depth, end offsets, group size,
            # consumer lag). A sampler the caller already started keeps
            # its cadence; otherwise the pipeline owns its lifecycle and
            # stops it (with a final sample) at the end of the run.
            self._sampler.watch_broker(self._broker)
            if not self._sampler.running:
                self._sampler.start()
                self._owns_sampler = True

        # Consumers join the group before producers start so the initial
        # partition assignment is stable for the whole run.
        consumers = [self._make_consumer() for _ in range(cfg.effective_consumers)]
        processing_cluster = self._processing_cluster()
        consumer_futures = []
        for i, consumer in enumerate(consumers):
            stop = threading.Event()
            self._consumer_stops.append(stop)
            consumer_futures.append(
                processing_cluster.scheduler.submit(
                    Task(
                        fn=self._consumer_loop,
                        args=(consumer, i, stop),
                        resources=ResourceSpec(cores=1, memory_gb=1),
                    )
                )
            )

        producer_futures = [
            self.pilot_edge.cluster.scheduler.submit(
                Task(
                    fn=self._producer_loop,
                    args=(device,),
                    resources=ResourceSpec(cores=1, memory_gb=1),
                )
            )
            for device in range(cfg.num_devices)
        ]
        for future in producer_futures:
            future.add_done_callback(self._producer_ended)

        handle = RunningPipeline(self, producer_futures, consumer_futures)
        if wait:
            return handle.join()
        return handle

    def _estimate_message_bytes(self) -> int:
        """Probe one block from the producer to size placement estimates."""
        probe_ctx = self._base_context(self.pilot_edge.site).for_device(
            "device-probe", -1, self.pilot_edge.site
        )
        try:
            block = self._produce_fn(probe_ctx)
            if block is None:
                return 0
            return len(encode_block(block))
        except Exception:
            return 0

    def _finalize(self, producer_futures, consumer_futures) -> PipelineResult:
        cfg = self.config
        deadline = time.monotonic() + cfg.max_duration
        completed = self._done.wait(timeout=cfg.max_duration)
        if not completed:
            self._abort.set()
        self._done.set()  # release consumer loops

        for future in producer_futures:
            try:
                future.result(timeout=max(1.0, deadline - time.monotonic()))
            except Exception as exc:
                self._record_error("producer", exc)
        for future in consumer_futures + self._extra_consumer_futures:
            try:
                future.result(timeout=max(1.0, deadline - time.monotonic()))
            except Exception as exc:
                self._record_error("consumer", exc)

        broker_stats = self._broker.stats()

        if self._sampler is not None and self._owns_sampler:
            # Consumers have committed and left by now, so the final
            # sample records the drained state: lag back to 0.
            self._sampler.stop(final_sample=True)

        if self._owns_broker:
            # Flush durable logs and write final producer snapshots; a
            # no-op for in-memory brokers.
            self._broker.close()

        report = ThroughputReport.from_collector(
            self._collector, sampler=self._sampler, tracer=self._tracer
        )
        return PipelineResult(
            run_id=self.run_id,
            completed=(
                completed
                and self.processed_count >= cfg.total_messages
                and not self._errors
            ),
            report=report,
            bottleneck=analyze_bottleneck(self._collector),
            results=self._results.to_list(),
            errors=list(self._errors),
            broker_stats=broker_stats,
            placement=self._decision,
        )


def _result_block(result: Any):
    """Encode a processing result as a tiny 1-row block for transport."""
    import numpy as np

    if isinstance(result, np.ndarray) and result.ndim == 2:
        return result
    if isinstance(result, dict):
        numeric = [float(v) for v in result.values() if isinstance(v, (int, float))]
        if numeric:
            return np.asarray([numeric], dtype=np.float64)
    return np.zeros((1, 1), dtype=np.float64)


class RunningPipeline:
    """Handle to an in-flight pipeline run (``run(wait=False)``)."""

    def __init__(self, pipeline: EdgeToCloudPipeline, producer_futures, consumer_futures) -> None:
        self.pipeline = pipeline
        self._producer_futures = producer_futures
        self._consumer_futures = consumer_futures

    @property
    def done(self) -> bool:
        return self.pipeline._done.is_set()

    def wait_for_processed(self, count: int, timeout: float = 30.0) -> bool:
        """Block until at least *count* messages have been processed.

        Waits on the pipeline's progress condition (consumers notify it
        as messages drain) instead of sleep-polling; the wait is capped
        so done/abort transitions — which can fire without a final
        progress notification — are still observed promptly.
        """
        pipeline = self.pipeline
        deadline = time.monotonic() + timeout
        while True:
            if pipeline.processed_count >= count:
                return True
            if self.done:
                return pipeline.processed_count >= count
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            with pipeline._backpressure:
                # Re-check under the lock so a notify racing the checks
                # above is not lost.
                if pipeline.processed_count >= count or self.done:
                    continue
                pipeline._backpressure.wait(min(remaining, 0.25))

    def abort(self) -> None:
        self.pipeline._abort.set()
        self.pipeline._done.set()
        with self.pipeline._backpressure:
            self.pipeline._backpressure.notify_all()

    def join(self) -> PipelineResult:
        return self.pipeline._finalize(self._producer_futures, self._consumer_futures)
