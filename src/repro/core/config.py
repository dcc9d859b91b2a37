"""Pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.validation import (
    ValidationError,
    check_non_negative,
    check_positive,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable knobs of an edge-to-cloud pipeline run.

    Defaults mirror the paper's baseline experiment: one partition per
    edge device, 512 messages per run, consumers matched 1:1 with
    partitions ("we keep the ratio of partitions constant between Kafka
    and Dask").
    """

    #: Number of simulated edge devices; each gets a dedicated partition.
    num_devices: int = 1
    #: Messages each device produces in one run (paper: 512 per run total
    #: for single-device runs).
    messages_per_device: int = 512
    #: Consumer tasks on the processing tier; defaults to one per
    #: partition when 0.
    num_consumers: int = 0
    #: Broker topic name.
    topic: str = "pilot-edge-data"
    #: Hard cap on run duration (seconds); the run fails if exceeded.
    max_duration: float = 600.0
    #: Seconds between produced messages per device (0 = as fast as possible).
    produce_interval: float = 0.0
    #: Backpressure, per device: a device's producer pauses while this
    #: many of its messages are in flight (produced but not yet
    #: processed), and sends the room it gets back as one append. 0 =
    #: unbounded — the paper's configuration, where the broker absorbs
    #: the backlog — and one message per append.
    max_inflight: int = 0
    #: Lossless wire compression (zlib) of blocks before the uplink —
    #: the "data compression step before the data transfer" the paper
    #: recommends for bandwidth-bound geographic deployments.
    compress_wire: bool = False
    #: Producer delivery retries. 0 (default) keeps QoS-0 semantics:
    #: lossy-link drops are counted in ``messages_dropped`` and the run
    #: proceeds. >0 turns on at-least-once publishing: a lost uplink
    #: transfer or transient broker failure is retried (with broker-side
    #: idempotent dedup, so retries never duplicate log offsets).
    producer_retries: int = 0
    #: Initial backoff (ms) between producer delivery retries; grows
    #: exponentially with jitter, capped at 2 s.
    retry_backoff_ms: float = 100.0
    #: Consumer-group failure-detection window (ms): consumers that stop
    #: polling for longer are evicted and their partitions rebalanced to
    #: the survivors. 0 (default) disables eviction.
    session_timeout_ms: float = 0.0
    #: Long-poll fetch: the broker holds a fetch until this many payload
    #: bytes are available (or the wait expires) instead of returning
    #: empty for the consumer to re-poll across the WAN.
    fetch_min_bytes: int = 1
    #: Upper bound (ms) on how long the broker parks a long-poll fetch.
    fetch_max_wait_ms: float = 500.0
    #: Consumer prefetch depth, in poll batches per assigned partition.
    #: 0 (default) disables the background fetcher and polls
    #: synchronously.
    fetch_prefetch_batches: int = 0
    #: Byte budget shared by all of one consumer's prefetch buffers;
    #: fetchers park (backpressure) when it is reached.
    fetch_max_buffer_bytes: int = 64 * 1024 * 1024
    #: Durable partition logs: when set, the pipeline's broker persists
    #: every partition as segment files under this directory and
    #: recovers them on restart. None (default) keeps the in-memory
    #: deque logs — the paper's configuration.
    log_dir: str | None = None
    #: Make appends block until their batch is fsynced (single-node
    #: durability before the ack). Off by default: the ack is in-memory
    #: and the flush timer bounds the loss window, which `acks="all"`
    #: replication covers.
    log_fsync_acks: bool = False

    def __post_init__(self) -> None:
        check_positive("num_devices", self.num_devices)
        check_positive("messages_per_device", self.messages_per_device)
        check_non_negative("num_consumers", self.num_consumers)
        check_positive("max_duration", self.max_duration)
        check_non_negative("produce_interval", self.produce_interval)
        check_non_negative("max_inflight", self.max_inflight)
        check_non_negative("producer_retries", self.producer_retries)
        check_non_negative("retry_backoff_ms", self.retry_backoff_ms)
        check_non_negative("session_timeout_ms", self.session_timeout_ms)
        check_positive("fetch_min_bytes", self.fetch_min_bytes)
        check_non_negative("fetch_max_wait_ms", self.fetch_max_wait_ms)
        check_non_negative("fetch_prefetch_batches", self.fetch_prefetch_batches)
        check_positive("fetch_max_buffer_bytes", self.fetch_max_buffer_bytes)
        if self.log_fsync_acks and not self.log_dir:
            raise ValidationError("log_fsync_acks requires log_dir")
        if not self.topic:
            raise ValidationError("topic must be non-empty")

    @property
    def total_messages(self) -> int:
        return self.num_devices * self.messages_per_device

    @property
    def effective_consumers(self) -> int:
        return self.num_consumers if self.num_consumers > 0 else self.num_devices
