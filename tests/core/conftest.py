"""The pipeline's two halves, stepped by hand.

``halves(...)`` builds a run's shared state — config, progress, metrics
collector, result ring — against an in-process ``Broker`` on a clock that
moves only when the test advances it. There is no pilot, no task and no
thread: a test steps an ``EdgeDevice`` or a ``CloudConsumer`` one round at
a time and may count messages processed itself.
"""

import threading

import pytest

from repro.broker import Broker, Consumer, Producer
from repro.core import PipelineConfig, make_block_producer, passthrough_processor
from repro.core.cloud import CloudConsumer
from repro.core.edge import EdgeDevice, Progress
from repro.monitoring import MetricsCollector
from repro.util import RingBuffer


class Clock:
    """A monotonic clock that moves only when told to."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class ParkSignal(threading.Condition):
    """A run's progress condition that tells the test when a device parks."""

    def __init__(self) -> None:
        super().__init__()
        self.parked = threading.Event()

    def wait(self, timeout=None):
        self.parked.set()
        return super().wait(timeout)


class Halves:
    RUN_ID = "run"

    def __init__(self, broker=None, *, edge_fn=None, cloud_fn=passthrough_processor, **config):
        settings = dict(num_devices=1, messages_per_device=24, topic="sensors")
        settings.update(config)
        self.config = PipelineConfig(**settings)
        self.broker = broker if broker is not None else Broker()
        self.broker.create_topic(self.config.topic, num_partitions=self.config.num_devices)
        self.clock = Clock()
        self.progress = Progress(self.config.total_messages, self.config.num_devices)
        self.collector = MetricsCollector(self.RUN_ID)
        self.results = RingBuffer(64)
        self.errors: list = []
        self.functions = (edge_fn, cloud_fn)

    def device(self, index: int = 0, produce=None) -> EdgeDevice:
        cfg = self.config
        producer = Producer(
            self.broker, retries=cfg.producer_retries, retry_backoff_ms=cfg.retry_backoff_ms
        )
        return EdgeDevice(
            index,
            cfg,
            producer,
            self.progress,
            self.collector,
            produce or make_block_producer(points=20, features=4, clusters=2),
            lambda: self.functions,
            run_id=self.RUN_ID,
            context={},
            results=self.results,
            decision=None,
            uplink=None,
            now=self.clock,
        )

    def consumer(self) -> CloudConsumer:
        consumer = Consumer(self.broker, group_id=f"{self.RUN_ID}-processors")
        consumer.subscribe(self.config.topic)
        return CloudConsumer(
            consumer,
            self.progress,
            self.collector,
            self.results,
            lambda: self.functions,
            lambda where, exc: self.errors.append((where, exc)),
            context={},
            downlink=None,
            now=self.clock,
        )

    def process(self, device: int, count: int) -> None:
        """Count the first *count* messages of *device* processed: the
        consumers' part of the window, done by the test."""
        ids = [f"{self.RUN_ID}/d{device}/m{seq}" for seq in range(count)]
        self.progress.count_at_once(ids, [device] * count)


@pytest.fixture
def halves():
    return Halves


@pytest.fixture
def park_signal():
    return ParkSignal
