"""Point-to-point link model.

A link samples per-transfer conditions from configured ranges, exactly as
the paper characterises the LRZ–Jetstream path: "latency between both
locations varied between 140 and 160 msec; bandwidth fluctuated between
60 to 100 MBits/sec". Transfer time for a payload is::

    one_way_latency + payload_bits / sampled_bandwidth

Links can *apply* the delay in two ways:

- :meth:`transfer_time` returns the seconds a transfer takes (used by the
  discrete-event simulator and by the analysis code),
- :meth:`transfer` actually sleeps (scaled by ``time_scale``) for the
  live pipeline's emulated geo runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.util.validation import (
    ValidationError,
    check_in_range,
    check_non_negative,
    check_positive,
)


@dataclass(frozen=True)
class LinkProfile:
    """Static description of a link's behaviour.

    Latencies are **round-trip** milliseconds (matching how the paper
    reports them); bandwidth is in Mbit/s. Ranges are sampled uniformly
    per transfer.
    """

    name: str
    rtt_ms_min: float
    rtt_ms_max: float
    bandwidth_mbps_min: float
    bandwidth_mbps_max: float
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative("rtt_ms_min", self.rtt_ms_min)
        check_non_negative("rtt_ms_max", self.rtt_ms_max)
        check_positive("bandwidth_mbps_min", self.bandwidth_mbps_min)
        check_positive("bandwidth_mbps_max", self.bandwidth_mbps_max)
        check_in_range("loss_probability", self.loss_probability, 0.0, 1.0)
        if self.rtt_ms_min > self.rtt_ms_max:
            raise ValidationError("rtt_ms_min must be <= rtt_ms_max")
        if self.bandwidth_mbps_min > self.bandwidth_mbps_max:
            raise ValidationError("bandwidth_mbps_min must be <= bandwidth_mbps_max")

    @property
    def mean_rtt_ms(self) -> float:
        return (self.rtt_ms_min + self.rtt_ms_max) / 2.0

    @property
    def mean_bandwidth_mbps(self) -> float:
        return (self.bandwidth_mbps_min + self.bandwidth_mbps_max) / 2.0


#: In-process / co-located components — effectively free.
LOOPBACK = LinkProfile("loopback", 0.0, 0.0, 100_000.0, 100_000.0)
#: Same-datacenter LAN (the paper's baseline deployment on LRZ).
LAN = LinkProfile("lan", 0.2, 0.6, 9_000.0, 10_000.0)
#: Same-continent WAN between cloud regions.
REGIONAL_WAN = LinkProfile("regional-wan", 15.0, 30.0, 800.0, 1_000.0)
#: Jetstream (US) <-> LRZ (Germany), per the paper's iPerf measurements.
TRANSATLANTIC = LinkProfile("transatlantic", 140.0, 160.0, 60.0, 100.0)
#: Constrained last-mile edge uplink (LTE-class).
CELLULAR_EDGE = LinkProfile("cellular-edge", 40.0, 120.0, 10.0, 50.0, loss_probability=0.01)


class Link:
    """A stateful link instance: samples conditions, applies delays."""

    def __init__(
        self,
        profile: LinkProfile,
        seed: int = 0,
        time_scale: float = 1.0,
    ) -> None:
        check_non_negative("time_scale", time_scale)
        self.profile = profile
        self._rng = np.random.default_rng(seed)
        #: Factor applied to real sleeps in :meth:`transfer`; 0 disables
        #: sleeping entirely (delays still *reported*). Lets integration
        #: tests run geo scenarios quickly while exercising the code path.
        self.time_scale = float(time_scale)
        self.transfers = 0
        self.bytes_moved = 0
        self.seconds_accumulated = 0.0
        self.losses = 0
        #: Optional :class:`~repro.faults.FaultInjector` consulted per
        #: transfer (chaos tests); scripted faults count as losses too.
        self.injector = None
        # rtt_delay() is called concurrently from requesting threads; the
        # numpy Generator and the stats counters need a lock there
        # (transfer()/transfer_time() stay single-caller).
        self._rtt_lock = threading.Lock()
        self.rtt_delays = 0

    def sample_rtt_s(self) -> float:
        p = self.profile
        return float(self._rng.uniform(p.rtt_ms_min, p.rtt_ms_max)) / 1000.0

    def sample_bandwidth_bps(self) -> float:
        p = self.profile
        return float(self._rng.uniform(p.bandwidth_mbps_min, p.bandwidth_mbps_max)) * 1e6

    def is_lost(self) -> bool:
        p = self.profile
        return p.loss_probability > 0 and self._rng.random() < p.loss_probability

    def transfer_time(self, payload_bytes: int) -> float:
        """Seconds one transfer of *payload_bytes* takes (one-way latency
        + serialization at the sampled bandwidth)."""
        check_non_negative("payload_bytes", payload_bytes)
        latency = self.sample_rtt_s() / 2.0
        serialization = (payload_bytes * 8.0) / self.sample_bandwidth_bps()
        duration = latency + serialization
        self.transfers += 1
        self.bytes_moved += int(payload_bytes)
        self.seconds_accumulated += duration
        return duration

    def transfer(self, payload_bytes: int) -> float:
        """Emulate a transfer in real time (sleep scaled by time_scale).

        Returns the *modelled* duration in seconds (unscaled). Raises
        :class:`ConnectionError` when the loss model drops the transfer.
        """
        if self.injector is not None:
            try:
                self.injector.on_transfer(self)
            except ConnectionError:
                self.losses += 1
                raise
        if self.is_lost():
            self.losses += 1
            raise ConnectionError(
                f"transfer dropped on link {self.profile.name!r}"
            )
        duration = self.transfer_time(payload_bytes)
        if self.time_scale > 0 and duration > 0:
            time.sleep(duration * self.time_scale)
        return duration

    def rtt_delay(self, since: float | None = None) -> float:
        """Emulate one request/response round trip (sleep in the caller).

        This is the wire-protocol counterpart of :meth:`transfer`: a
        :class:`~repro.broker.remote.RemoteBroker` with ``link`` set
        calls it once per request *in the requesting thread*, so
        requests from several threads overlap their RTTs the way real
        in-flight packets share a wire, while a serial client pays one
        full RTT per request. A request sent ahead of need passes its
        send time as *since* (``time.monotonic()``): the round trip runs
        from then, and only what is left of it is slept when the answer
        is read. Returns the modelled (unscaled) RTT.
        """
        with self._rtt_lock:
            rtt = self.sample_rtt_s()
            self.rtt_delays += 1
            self.seconds_accumulated += rtt
        if self.time_scale > 0 and rtt > 0:
            left = rtt * self.time_scale
            if since is not None:
                left -= time.monotonic() - since
            if left > 0:
                time.sleep(left)
        return rtt

    def stats(self) -> dict:
        return {
            "profile": self.profile.name,
            "transfers": self.transfers,
            "bytes_moved": self.bytes_moved,
            "seconds_accumulated": self.seconds_accumulated,
            "losses": self.losses,
            "rtt_delays": self.rtt_delays,
        }

    def __repr__(self) -> str:
        return f"Link({self.profile.name}, time_scale={self.time_scale})"
