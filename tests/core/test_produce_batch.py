"""The edge producer sends its in-flight window as one append.

Every test counts the ``append_many`` calls reaching an in-process
``Broker``: a device that gets room in its window sends every message that
room admits in one call, up to 1 MiB; without a window or when paced, one
message per call. The batch-size tests step one device by hand and count
its messages processed themselves; the rest run the whole pipeline.
"""

import sys
import threading

import pytest

from repro.broker import Broker
from repro.core import (
    EdgeToCloudPipeline,
    HybridPlacement,
    PipelineConfig,
    make_block_producer,
    passthrough_processor,
)
from repro.faults import FaultInjector, FaultyBroker
from repro.netem import ContinuumTopology, LinkProfile

MIB = 1024 * 1024


class CountingBroker(Broker):
    """An in-process broker that logs every ``append_many`` call as
    ``(partition, record sizes)``, and may run a hook before it."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.appends: list[tuple[int, list[int]]] = []
        self.before_append = None
        self._calls_lock = threading.Lock()

    def append_many(self, topic, partition, values, *args, **kwargs):
        with self._calls_lock:
            if self.before_append is not None:
                self.before_append(partition, len(values))
            self.appends.append((partition, [len(v) for v in values]))
        return super().append_many(topic, partition, values, *args, **kwargs)

    def records_per_append(self) -> list[int]:
        return [len(sizes) for _, sizes in self.appends]

    def message_ids(self, topic: str, partition: int) -> list[str]:
        records = self.fetch(topic, partition, 0, max_records=100_000)
        return [r.headers["message_id"] for r in records]


def step_until_done(run, device, in_flight: int) -> list[int]:
    """Step *device* to the end, counting all but *in_flight* of its
    messages processed after each round; returns the batch sizes."""
    sizes = []
    while (size := device.step()) is not None:
        sizes.append(size)
        run.process(device.index, max(device.made - in_flight, 0))
    return sizes


def run_pipeline(running_pilots, broker, *, producer=None, processor=None, **config):
    edge, cloud = running_pilots
    kwargs = dict(num_devices=1, messages_per_device=24, max_duration=60.0)
    kwargs.update(config)
    topology = kwargs.pop("topology", None)
    edge_fn = kwargs.pop("edge_fn", None)
    placement = HybridPlacement() if edge_fn is not None else None
    pipeline = EdgeToCloudPipeline(
        pilot_edge=edge,
        pilot_cloud_processing=cloud,
        produce_function_handler=producer or make_block_producer(points=20, features=4, clusters=2),
        process_cloud_function_handler=processor or passthrough_processor,
        process_edge_function_handler=edge_fn,
        config=PipelineConfig(**kwargs),
        topology=topology,
        placement=placement,
        broker=broker,
    )
    return pipeline, pipeline.run()


class TestBatchSize:
    def test_a_window_is_one_append(self, halves):
        broker = CountingBroker()
        run = halves(broker, max_inflight=4)
        # Two of the window's four stay in flight after every round: the
        # first round has the whole window, every later one the two freed.
        sizes = step_until_done(run, run.device(), in_flight=2)
        assert sizes == [4] + [2] * 10
        assert broker.records_per_append() == sizes

    def test_open_loop_sends_one_record_per_append(self, halves):
        broker = CountingBroker()
        run = halves(broker, max_inflight=0, messages_per_device=12)
        assert step_until_done(run, run.device(), in_flight=12) == [1] * 12
        assert broker.records_per_append() == [1] * 12

    def test_paced_producer_sends_one_record_per_append(self, halves):
        broker = CountingBroker()
        run = halves(broker, max_inflight=4, produce_interval=0.002, messages_per_device=12)
        # The whole window is free before every round.
        assert step_until_done(run, run.device(), in_flight=0) == [1] * 12
        assert broker.records_per_append() == [1] * 12

    def test_a_block_of_a_mebibyte_rides_alone(self, running_pilots):
        broker = CountingBroker()
        _, result = run_pipeline(
            running_pilots,
            broker,
            producer=make_block_producer(points=4_200, features=32, clusters=2),
            max_inflight=4,
            messages_per_device=6,
        )
        assert result.completed, result.errors
        assert all(size >= MIB for _, sizes in broker.appends for size in sizes)
        assert broker.records_per_append() == [1] * 6

    def test_a_batch_closes_at_a_mebibyte(self, halves):
        broker = CountingBroker()
        run = halves(broker, max_inflight=8, messages_per_device=16)
        device = run.device(produce=make_block_producer(points=1_200, features=32, clusters=2))
        # ~300 KB blocks with the whole window of eight free every round.
        assert step_until_done(run, device, in_flight=0) == [4] * 4
        # Every block but the last of a batch went in below the mark.
        assert all(sum(sizes[:-1]) < MIB for _, sizes in broker.appends)


class TestBatchAccounting:
    def test_absorbed_and_dropped_messages_inside_a_batch(self, running_pilots):
        # Every third message is absorbed at the edge; the first two uplink
        # transfers drop, so the first batch fails its one retry and is
        # dropped whole. The first round has the whole window (4) free:
        # m0, m1, m3 and m4 ride it, m2 is absorbed.
        def absorb_every_third(context, block):
            absorb_every_third.calls += 1
            return None if absorb_every_third.calls % 3 == 0 else block

        absorb_every_third.calls = 0
        clean = LinkProfile("clean", 0.0, 0.0, 10_000.0, 10_000.0, loss_probability=0.0)
        topology = ContinuumTopology(time_scale=0.0)
        topology.add_site("edge-site", tier="edge")
        topology.add_site("cloud-site", tier="cloud")
        topology.connect("edge-site", "cloud-site", clean)
        link = topology.direct_link("edge-site", "cloud-site")
        link.injector = FaultInjector(seed=1).drop_next(2, op="transfer")
        broker = CountingBroker()
        pipeline, result = run_pipeline(
            running_pilots,
            broker,
            topology=topology,
            edge_fn=absorb_every_third,
            max_inflight=4,
            producer_retries=1,
            retry_backoff_ms=0.0,
            messages_per_device=24,
        )
        assert result.completed, result.errors
        counters = pipeline.collector.counters()
        assert counters["messages_absorbed_at_edge"] == 8
        assert counters["messages_dropped"] == 4
        assert counters["produce_retries"] == 1
        assert link.losses == 2
        assert pipeline.processed_count == 24
        assert pipeline.produced_count == 24
        logged = broker.message_ids(pipeline.config.topic, 0)
        assert len(logged) == 24 - 8 - 4
        assert result.report.messages == len(logged)
        dropped = {f"{pipeline.run_id}/d0/m{seq}" for seq in (0, 1, 3, 4)}
        assert not dropped & set(logged)


    def test_a_failing_broker_is_retried_by_the_producer_alone(self, running_pilots):
        # Every append fails. The producer retries it (producer_retries=2:
        # three attempts a batch); the pipeline retries only the uplink,
        # which here never drops, so nothing multiplies the attempts.
        injector = FaultInjector().drop_next(10**6, op="append_many")
        broker = CountingBroker()
        pipeline, result = run_pipeline(
            running_pilots,
            FaultyBroker(broker, injector),
            max_inflight=0,  # open loop: one message per batch
            producer_retries=2,
            retry_backoff_ms=0.0,
            messages_per_device=2,
        )
        assert result.completed, result.errors
        assert injector.fired["drop"] == 2 * 3
        assert broker.appends == []
        counters = pipeline.collector.counters()
        assert counters["messages_dropped"] == 2
        assert counters["produce_retries"] == 2 * 2


class TestPerDeviceWindow:
    def test_order_holds_without_duplicates(self, running_pilots):
        broker = CountingBroker()
        pipeline, result = run_pipeline(
            running_pilots, broker, num_devices=2, max_inflight=3, messages_per_device=20
        )
        assert result.completed, result.errors
        for device in range(2):
            logged = broker.message_ids(pipeline.config.topic, device)
            assert logged == [f"{pipeline.run_id}/d{device}/m{seq}" for seq in range(20)]

    @pytest.mark.parametrize(
        "devices, consumers, switch_interval",
        [(2, 0, None), (4, 2, 1e-5)],
        ids=["two-devices", "four-devices-short-switch-interval"],
    )
    def test_each_device_keeps_its_own_window(
        self, running_pilots, park_signal, devices, consumers, switch_interval
    ):
        window, messages = 3, 30
        broker = CountingBroker()
        parking = park_signal()

        def process_once_a_device_parks(context, data):
            # Nothing is processed before a device has filled its window
            # and parked; after that the consumers drain freely.
            parking.parked.wait(10)
            return passthrough_processor(context, data)

        appended = [0] * devices
        peaks = [0] * devices
        holder = {}

        def before_append(partition, count):
            # The highest a device's in-flight count gets: right as its
            # batch is appended, before any of it is processed.
            appended[partition] += count
            processed = holder["pipeline"]._progress.processed_by(partition)
            peaks[partition] = max(peaks[partition], appended[partition] - processed)

        broker.before_append = before_append
        edge, cloud = running_pilots
        pipeline = EdgeToCloudPipeline(
            pilot_edge=edge,
            pilot_cloud_processing=cloud,
            produce_function_handler=make_block_producer(points=20, features=4, clusters=2),
            process_cloud_function_handler=process_once_a_device_parks,
            config=PipelineConfig(
                num_devices=devices,
                messages_per_device=messages,
                num_consumers=consumers,
                max_inflight=window,
                max_duration=60.0,
            ),
            broker=broker,
        )
        holder["pipeline"] = pipeline
        pipeline._progress.changed = parking
        previous = sys.getswitchinterval()
        if switch_interval is not None:
            sys.setswitchinterval(switch_interval)
        try:
            result = pipeline.run()
        finally:
            sys.setswitchinterval(previous)
        assert result.completed, result.errors
        assert appended == [messages] * devices
        assert all(0 < peak <= window for peak in peaks), peaks
        assert pipeline.collector.counter("backpressure_waits") > 0
        assert max(broker.records_per_append()) <= window
        assert pipeline.produced_count == pipeline.processed_count == devices * messages
