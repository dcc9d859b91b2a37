"""Simulated edge-to-cloud pipeline.

Replays the live pipeline's structure in virtual time on the DES engine:

- one *producer process* per device emits messages back-to-back (each
  paying the calibrated produce cost),
- the edge->broker **uplink** is a capacity-1 FIFO server whose service
  time is the message's serialization delay at the link's sampled
  bandwidth; one-way propagation latency is added after service (latency
  does not occupy the pipe),
- the broker appends instantly (the paper's Fig. 2 shows the broker is
  never the bottleneck at these scales) and the broker->processing
  **downlink** mirrors the uplink,
- a pool of *consumer servers* (capacity = number of consumers) executes
  the calibrated processing cost per message.

Message traces are stamped exactly like the live pipeline's
(:mod:`repro.monitoring`), so the same :class:`ThroughputReport` and
bottleneck analysis apply. Energy per station is accumulated for the
energy ablation (a paper future-work item).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.serde import encoded_size
from repro.monitoring.collector import MetricsCollector
from repro.monitoring.report import ThroughputReport, analyze_bottleneck
from repro.netem.link import LOOPBACK, LinkProfile
from repro.sim.costmodel import StageCostModel
from repro.sim.engine import FifoServer, Simulator
from repro.util.ids import new_run_id
from repro.util.validation import check_positive


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulated run.

    Defaults mirror the paper's experiment shape: one partition per
    device, consumers matched to partitions, 512 messages total.
    """

    num_devices: int = 1
    messages_per_device: int = 512
    points: int = 1000
    features: int = 32
    num_consumers: int = 0           # 0 = one per device
    uplink: LinkProfile = LOOPBACK
    downlink: LinkProfile = LOOPBACK
    produce_cost: StageCostModel = field(
        default_factory=lambda: StageCostModel("produce", 1e-4)
    )
    process_cost: StageCostModel = field(
        default_factory=lambda: StageCostModel("process", 1e-3)
    )
    seed: int = 0
    #: Power ratings for the energy ablation (watts while busy).
    edge_power_watts: float = 4.0     # RasPi-class device
    cloud_power_watts: float = 95.0   # one busy cloud core set

    def __post_init__(self) -> None:
        check_positive("num_devices", self.num_devices)
        check_positive("messages_per_device", self.messages_per_device)
        check_positive("points", self.points)
        check_positive("features", self.features)

    @property
    def message_bytes(self) -> int:
        return encoded_size(self.points, self.features)

    @property
    def effective_consumers(self) -> int:
        return self.num_consumers if self.num_consumers > 0 else self.num_devices

    @property
    def total_messages(self) -> int:
        return self.num_devices * self.messages_per_device


@dataclass
class SimResult:
    """Outcome of a simulated run."""

    run_id: str
    report: ThroughputReport
    bottleneck: dict
    virtual_duration_s: float
    station_stats: dict = field(default_factory=dict)
    energy_joules: dict = field(default_factory=dict)

    @property
    def throughput_mb_s(self) -> float:
        return self.report.throughput_mb_s


class SimulatedPipeline:
    """Runs one :class:`SimConfig` through the DES engine."""

    def __init__(self, config: SimConfig, registry=None) -> None:
        self.config = config
        self.run_id = new_run_id()
        self._rng = np.random.default_rng(config.seed)
        self._sim = Simulator()
        # An attached MetricsRegistry receives the simulated run's
        # counters and end-to-end latency histogram, so simulated and
        # live runs share one exposition surface.
        self._collector = MetricsCollector(self.run_id, registry=registry)
        # Stations.
        self._uplink = FifoServer(self._sim, capacity=1, name="uplink")
        self._downlink = FifoServer(self._sim, capacity=1, name="downlink")
        self._consumers = FifoServer(
            self._sim,
            capacity=config.effective_consumers,
            name="consumers",
            power_watts=config.cloud_power_watts,
        )
        self._producers = FifoServer(
            self._sim,
            capacity=config.num_devices,
            name="producers",
            power_watts=config.edge_power_watts,
        )

    # -- link-time sampling ------------------------------------------------------

    def _link_times(self, profile: LinkProfile, nbytes: int) -> tuple:
        """(serialization_seconds, one_way_latency_seconds) for a transfer."""
        bw = self._rng.uniform(profile.bandwidth_mbps_min, profile.bandwidth_mbps_max)
        rtt = self._rng.uniform(profile.rtt_ms_min, profile.rtt_ms_max)
        return (nbytes * 8.0) / (bw * 1e6), rtt / 2000.0

    # -- message lifecycle --------------------------------------------------------

    def _start_producer(self, device: int) -> None:
        self._emit(device, 0)

    def _emit(self, device: int, seq: int) -> None:
        if seq >= self.config.messages_per_device:
            return
        cost = self.config.produce_cost.sample(self._rng)
        self._producers.submit(cost, lambda: self._produced(device, seq))

    def _produced(self, device: int, seq: int) -> None:
        cfg = self.config
        message_id = f"{self.run_id}/d{device}/m{seq}"
        now = self._sim.now
        nbytes = cfg.message_bytes
        self._collector.stamp(message_id, "produce", now, nbytes=nbytes, partition=device)
        ser, lat = self._link_times(cfg.uplink, nbytes)

        # The serialization occupies the uplink; propagation happens after.
        def sent() -> None:
            # Uplink service started when the message reached the head of
            # the link's queue.
            self._collector.stamp(message_id, "uplink_start", self._sim.now - ser)
            self._sim.schedule(lat, self._broker_in, message_id, nbytes)

        self._uplink.submit(ser, sent)
        # Device produces its next message immediately (back-to-back), as
        # in the live pipeline's producer loop.
        self._emit(device, seq + 1)

    def _broker_in(self, message_id: str, nbytes: int) -> None:
        self._collector.stamp(message_id, "broker_in", self._sim.now)
        ser, lat = self._link_times(self.config.downlink, nbytes)

        def sent() -> None:
            # Queue exit happened when the downlink started serializing.
            self._collector.stamp(message_id, "dequeue", self._sim.now - ser)
            self._sim.schedule(lat, self._consume, message_id, nbytes)

        self._downlink.submit(ser, sent)

    def _consume(self, message_id: str, nbytes: int) -> None:
        self._collector.stamp(message_id, "consume", self._sim.now, nbytes=nbytes)
        # The consumer pool starts processing when a server frees up;
        # stamp process_start at actual service start via a zero-cost
        # pre-job ordering trick: FifoServer is FIFO, so we enqueue one
        # job whose completion marks start+end around the service time.
        cost = self.config.process_cost.sample(self._rng)
        enqueue_time = self._sim.now

        def done() -> None:
            end = self._sim.now
            self._collector.stamp(message_id, "process_start", end - cost)
            self._collector.stamp(message_id, "process_end", end, nbytes=nbytes)

        self._consumers.submit(cost, done)

    # -- run -------------------------------------------------------------------------

    def run(self) -> SimResult:
        for device in range(self.config.num_devices):
            self._sim.schedule(0.0, self._start_producer, device)
        duration = self._sim.run()
        report = ThroughputReport.from_collector(self._collector)
        stations = {
            s.name: s.stats()
            for s in (self._producers, self._uplink, self._downlink, self._consumers)
        }
        energy = {
            "edge_joules": self._producers.energy_joules,
            "cloud_joules": self._consumers.energy_joules,
            "total_joules": self._producers.energy_joules + self._consumers.energy_joules,
        }
        return SimResult(
            run_id=self.run_id,
            report=report,
            bottleneck=analyze_bottleneck(self._collector),
            virtual_duration_s=duration,
            station_stats=stations,
            energy_joules=energy,
        )
