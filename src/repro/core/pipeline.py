"""The EdgeToCloudPipeline: Pilot-Edge's execution engine.

Wires the application's FaaS functions across the acquired pilots (paper
Listing 2 / Fig. 1 step 2): it creates a topic with one partition per edge
device on the pilot-managed broker, places one producer task per device
on the edge pilot (an :class:`~repro.core.edge.EdgeDevice`) and consumer
tasks on the processing pilot (each a
:class:`~repro.core.cloud.CloudConsumer`). The two halves share the
broker, the metrics collector, the result ring, a getter for the current
functions and one :class:`~repro.core.edge.Progress`. ``run()`` blocks
until every expected message is processed (or the deadline passes) and
returns a :class:`PipelineResult`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.broker.broker import Broker
from repro.broker.consumer import Consumer
from repro.broker.producer import Producer
from repro.compute.task import ResourceSpec, Task
from repro.core.cloud import CloudConsumer, consumer_counters, consumer_gauges
from repro.core.config import PipelineConfig
from repro.core.context import FunctionContext
from repro.core.edge import EdgeDevice, Progress
from repro.core.placement import CloudCentricPlacement, PlacementDecision, PlacementPolicy
from repro.data.serde import encode_block
from repro.monitoring.collector import MetricsCollector
from repro.monitoring.events import EventJournal
from repro.monitoring.report import ThroughputReport, analyze_bottleneck
from repro.netem.link import Link
from repro.params.client import ParameterClient
from repro.params.server import ParameterServer
from repro.pilot.compute import PilotCompute
from repro.pilot.states import PilotState
from repro.util.ids import new_run_id
from repro.util.ringbuffer import RingBuffer
from repro.util.validation import ValidationError, check_positive

#: A run keeps the last this many processing results for inspection.
_KEEP_RESULTS = 1024
#: A run keeps the first this many error texts (and journals each); it
#: counts the rest in ``PipelineResult.errors_left_out``.
_KEEP_ERRORS = 100


@dataclass
class PipelineResult:
    """Everything a run produced."""

    run_id: str
    completed: bool
    report: ThroughputReport
    bottleneck: dict
    results: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    errors_left_out: int = 0
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
        self.events = EventJournal(origin=self.run_id)
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
        self._collector.registry.add_reader("counters", partial(consumer_counters, self._consumers))
        self._collector.registry.add_reader("gauges", partial(consumer_gauges, self._consumers))
        self._results = RingBuffer(_KEEP_RESULTS)
        self._errors: list[str] = []
        self._errors_left_out = 0
        self._errors_lock = threading.Lock()

        self._user_context = dict(function_context or {})
        self._progress = Progress(self.config.total_messages, self.config.num_devices)
        self._started = False
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
        return self._progress.processed_count

    @property
    def produced_count(self) -> int:
        return self._progress.produced_count

    # -- runtime reconfiguration -------------------------------------------------

    def replace_cloud_function(self, fn: Callable) -> None:
        """Swap the processing function at runtime (no new pilot needed)."""
        if not callable(fn):
            raise ValidationError("replacement function must be callable")
        with self._fn_lock:
            old = self._cloud_fn
            self._cloud_fn = fn
        self.events.emit(
            "function_replaced",
            stage="cloud",
            old=getattr(old, "__name__", "?"),
            new=getattr(fn, "__name__", "?"),
        )

    def _functions(self) -> tuple:
        """The current ``(process_edge, process_cloud)``."""
        with self._fn_lock:
            return self._edge_fn, self._cloud_fn

    def scale_consumers(self, additional: int) -> None:
        """Add consumer tasks at runtime (responds to load peaks)."""
        check_positive("additional", additional)
        if not self._started:
            raise ValidationError("scale_consumers() requires a running pipeline")
        for _ in range(int(additional)):
            self._extra_consumer_futures.append(self._submit_consumer(self._make_consumer()))
        self.events.emit("consumers_scaled", added=int(additional), consumers=len(self._consumers))

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
            if len(self._errors) >= _KEEP_ERRORS:
                self._errors_left_out += 1
                return
            self._errors.append(f"{where}: {exc!r}")
        self.events.emit("processing_error", where=where, error=repr(exc))

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

    def _edge_task(self, index: int) -> int:
        """Body of one edge producer task; returns messages sent."""
        cfg, run_id = self.config, self.run_id
        edge_site, broker_site = self.pilot_edge.site, self.pilot_cloud_broker.site
        producer = Producer(self._broker, client_id=f"{run_id}-device-{index}",
                            retries=cfg.producer_retries, retry_backoff_ms=cfg.retry_backoff_ms,
                            tracer=self._tracer, trace_site=edge_site)
        context = self._base_context(edge_site).for_device(f"device-{index}", index, edge_site)
        return EdgeDevice(
            index, cfg, producer, self._progress, self._collector, self._produce_fn,
            self._functions, run_id=run_id, context=context, results=self._results,
            decision=self._decision, uplink=self._link(edge_site, broker_site),
        ).run()

    def _submit_consumer(self, consumer: Consumer):
        """Place one consumer task, a :class:`CloudConsumer`, on the
        processing pilot. In edge-centric placement the heavy function runs
        on the device and the consumers are mere sinks — running them on
        the edge would steal the devices' single cores."""
        broker_site, proc_site = self.pilot_cloud_broker.site, self.pilot_cloud_processing.site
        name = f"consumer-{self._consumers.index(consumer)}"
        cloud = CloudConsumer(
            consumer, self._progress, self._collector, self._results, self._functions,
            self._record_error, context=self._base_context(proc_site).for_device(name, -1, proc_site),
            downlink=self._link(broker_site, proc_site),
        )
        return self.pilot_cloud_processing.cluster.scheduler.submit(
            Task(fn=cloud.run, resources=ResourceSpec(cores=1, memory_gb=1))
        )

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
        if self._sampler is not None:
            # A remote group is seen only while it has members: sample it
            # now, so a run shorter than one tick still records its lag.
            self._sampler.sample_now()
        consumer_futures = [self._submit_consumer(consumer) for consumer in consumers]
        producer_futures = [
            self.pilot_edge.cluster.scheduler.submit(
                Task(
                    fn=self._edge_task,
                    args=(device,),
                    resources=ResourceSpec(cores=1, memory_gb=1),
                )
            )
            for device in range(cfg.num_devices)
        ]
        for future in producer_futures:
            future.add_done_callback(self._progress.device_ended)

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
        completed = self._progress.done.wait(timeout=cfg.max_duration)
        # Release the task loops (aborting the devices after a timeout).
        self._progress.finish(abort=not completed)

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
            errors_left_out=self._errors_left_out,
            broker_stats=broker_stats,
            placement=self._decision,
        )


class RunningPipeline:
    """Handle to an in-flight pipeline run (``run(wait=False)``)."""

    def __init__(self, pipeline: EdgeToCloudPipeline, producer_futures, consumer_futures) -> None:
        self.pipeline = pipeline
        self._producer_futures = producer_futures
        self._consumer_futures = consumer_futures

    @property
    def done(self) -> bool:
        return self.pipeline._progress.done.is_set()

    def wait_for_processed(self, count: int, timeout: float = 30.0) -> bool:
        """Block until at least *count* messages have been processed, the
        run has ended or *timeout* has passed; True when *count* was
        reached. Waits on the progress condition, which consumers notify
        as messages drain and which done and abort notify too."""
        progress = self.pipeline._progress
        with progress.changed:
            progress.changed.wait_for(
                lambda: progress.processed_count >= count or progress.done.is_set(), timeout
            )
        return progress.processed_count >= count

    def abort(self) -> None:
        self.pipeline._progress.finish(abort=True)

    def join(self) -> PipelineResult:
        return self.pipeline._finalize(self._producer_futures, self._consumer_futures)
