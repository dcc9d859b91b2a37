"""The cluster-aware client: routing by the ownership rule the shards enforce.

One broker process time-slices one core (the GIL), so the cluster scales
the way Kafka does — by *ownership*: partitions are hashed across N shard
processes (:mod:`repro.broker.supervisor` runs them,
:mod:`repro.broker.shard` guards what each owns,
:mod:`repro.broker.replicator` copies it to followers) and clients route
per partition. :class:`ClusterBroker` bootstraps metadata from any shard
(``describe_cluster``), keeps one
:class:`~repro.broker.remote.RemoteBroker` per shard (each with one
socket per calling thread, and a second for a thread's follow-on
fetch), sends every
partition-affine op to its leader and every group-affine op to its
coordinator, and on ``NotOwnerError`` or connection loss refreshes
metadata with capped backoff — replaying only idempotent ops, the rule
the single-connection client already follows. Ownership is a *rule*
(:mod:`repro.broker.metadata`), so the metadata payload is O(shards) and
new topics need no epoch bump; with one shard a plain
:class:`RemoteBroker` pointed at it works unchanged.
"""

from __future__ import annotations

import threading

from repro.broker.broker import Broker
from repro.broker.errors import BrokerError, BrokerTimeoutError, DisconnectedError
from repro.broker.metadata import ClusterMetadata
from repro.broker.ops import OPS, CoordinatorClient, Op, install_stubs
from repro.broker.remote import (
    RemoteBroker,
    RemoteBrokerError,
    RemoteRetriableError,
)
from repro.util.validation import ValidationError


class ClusterBroker:
    """Cluster-aware client: one :class:`RemoteBroker` per shard, ops
    routed by the same ownership rule the shards enforce.

    Presents the same broker surface as :class:`RemoteBroker`, so
    :class:`~repro.broker.producer.Producer` and
    :class:`~repro.broker.consumer.Consumer` work against it unchanged.
    On :class:`NotOwnerError` (always raised before the op applied —
    safe for every op) or connection loss (safe only for idempotent
    ops), the client refreshes metadata with capped exponential backoff
    and re-routes; the per-shard clients' socket per calling thread,
    deadlines and replay rule are :class:`RemoteBroker`'s, reused
    unchanged.
    """

    def __init__(
        self,
        bootstrap,
        connect_timeout: float = 5.0,
        op_timeout: float = 10.0,
        max_attempts: int = 3,
        reconnect_backoff_ms: float = 50.0,
        link=None,
        tracer=None,
        metadata: ClusterMetadata | None = None,
    ) -> None:
        bootstrap = [(str(h), int(p)) for h, p in bootstrap]
        if not bootstrap:
            raise ValidationError("bootstrap needs at least one (host, port) address")
        self._bootstrap = bootstrap
        self.connect_timeout = float(connect_timeout)
        self.op_timeout = float(op_timeout)
        self.max_attempts = max(1, int(max_attempts))
        self.reconnect_backoff_ms = float(reconnect_backoff_ms)
        self._max_backoff_s = 2.0
        self.link = link
        self._tracer = tracer
        self.name = f"cluster://{bootstrap[0][0]}:{bootstrap[0][1]}"
        self.coordinator = CoordinatorClient(self)
        #: Successful metadata refreshes (bootstrap + re-routes).
        self.metadata_refreshes = 0
        self._fault_injector = None
        self._remotes: dict[tuple, RemoteBroker] = {}
        self._remotes_lock = threading.Lock()
        self._closed = False
        self._meta: ClusterMetadata | None = metadata
        if self._meta is None:
            self.refresh_metadata()

    # -- metadata ------------------------------------------------------------

    @property
    def metadata(self) -> ClusterMetadata:
        return self._meta

    @property
    def num_shards(self) -> int:
        return self._meta.num_shards

    @property
    def epoch(self) -> int:
        return self._meta.epoch

    def describe_cluster(self) -> dict:
        return self._meta.to_wire()

    def find_coordinator(self, group: str) -> dict:
        meta = self._meta
        idx = meta.coordinator_index(group)
        host, port = meta.shards[idx]
        return {"shard": idx, "host": host, "port": port, "epoch": meta.epoch}

    def refresh_metadata(self) -> ClusterMetadata:
        """Re-fetch the shard map from any responsive shard.

        Walks current shards first, then the bootstrap list; accepts only
        maps at least as new as the one held (epochs never go backwards).
        When nobody answers, the stale map is kept — the bounded retry
        loops above this decide when to give up.
        """
        candidates: list[tuple] = []
        meta = self._meta
        if meta is not None:
            candidates.extend(meta.shards)
        for addr in self._bootstrap:
            if addr not in candidates:
                candidates.append(addr)
        last_exc: Exception | None = None
        for addr in candidates:
            try:
                fresh = ClusterMetadata.from_wire(
                    self._remote(addr).describe_cluster()
                )
            except (BrokerError, ConnectionError, OSError) as exc:
                last_exc = exc
                continue
            if meta is None or fresh.epoch >= meta.epoch:
                self._meta = fresh
                self.metadata_refreshes += 1
                return fresh
        if meta is not None:
            return meta
        raise DisconnectedError(
            f"could not bootstrap cluster metadata from {candidates}: {last_exc}"
        ) from last_exc

    # -- connections ---------------------------------------------------------

    def _remote(self, address: tuple) -> RemoteBroker:
        with self._remotes_lock:
            if self._closed:
                raise DisconnectedError(f"{self.name} is closed")
            remote = self._remotes.get(address)
        if remote is not None:
            return remote
        host, port = address
        remote = RemoteBroker(
            host,
            port,
            connect_timeout=self.connect_timeout,
            op_timeout=self.op_timeout,
            max_attempts=self.max_attempts,
            reconnect_backoff_ms=self.reconnect_backoff_ms,
            link=self.link,
            tracer=self._tracer,
        )
        remote.fault_injector = self._fault_injector
        with self._remotes_lock:
            if self._closed:
                remote.close()
                raise DisconnectedError(f"{self.name} is closed")
            existing = self._remotes.setdefault(address, remote)
        if existing is not remote:
            remote.close()
        return existing

    @property
    def fault_injector(self):
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        self._fault_injector = injector
        with self._remotes_lock:
            remotes = list(self._remotes.values())
        for remote in remotes:
            remote.fault_injector = injector

    def close(self) -> None:
        with self._remotes_lock:
            self._closed = True
            remotes, self._remotes = list(self._remotes.values()), {}
        for remote in remotes:
            remote.close()

    def __enter__(self) -> "ClusterBroker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- routing core --------------------------------------------------------

    _backoff = RemoteBroker._backoff  # same capped schedule as one connection

    def _invoke(self, pick, fn, replayable: bool = True):
        """Route one op: pick a shard from the current map, run it, and
        on NotOwner / connection loss refresh metadata and re-route.

        A ``NotOwnerError`` is always retried (the shard rejected the op
        before applying it); transport failures are retried only for
        replayable ops — the same rule :class:`RemoteBroker` applies to
        its own reconnects.
        """
        last_exc: Exception | None = None
        for attempt in range(self.max_attempts):
            self._backoff(attempt)
            try:
                remote = self._remote(pick(self._meta))
            except (ConnectionError, OSError) as exc:
                last_exc = exc
                self.refresh_metadata()
                continue
            try:
                return fn(remote)
            except RemoteRetriableError as exc:
                if exc.error_name != "NotOwnerError":
                    raise
                last_exc = exc
                self.refresh_metadata()
                continue
            except (DisconnectedError, BrokerTimeoutError) as exc:
                last_exc = exc
                if not replayable:
                    raise
                self.refresh_metadata()
                continue
        if isinstance(last_exc, BrokerError):
            raise last_exc
        raise DisconnectedError(
            f"op failed after {self.max_attempts} routed attempts on "
            f"{self.name}: {last_exc}"
        ) from last_exc

    def _any_invoke(self, fn):
        """Run *fn* against any responsive shard (topic metadata, etc.)."""
        last_exc: Exception | None = None
        for attempt in range(self.max_attempts):
            self._backoff(attempt)
            for addr in self._meta.shards:
                try:
                    return fn(self._remote(addr))
                except (
                    RemoteRetriableError,
                    DisconnectedError,
                    BrokerTimeoutError,
                    ConnectionError,
                    OSError,
                ) as exc:
                    last_exc = exc
                    continue
            self.refresh_metadata()
        raise DisconnectedError(
            f"no shard answered after {self.max_attempts} sweeps on "
            f"{self.name}: {last_exc}"
        ) from last_exc

    def _ask_shard(self, index: int, fn):
        """``fn(remote)`` on the shard at *index*; ``None`` when it is out
        of range or does not answer."""
        shards = self._meta.shards
        if not 0 <= index < len(shards):
            return None
        try:
            return fn(self._remote(shards[index]))
        except (BrokerError, ConnectionError, OSError):
            return None

    def _call_op(self, spec: Op, bound: dict):
        """Send one table op where its routing key says it goes.

        The request is encoded once; each routed attempt re-sends the
        same frame through the chosen shard's :class:`RemoteBroker`
        (whose deadlines and replay rule apply unchanged).
        """
        fields, blobs = spec.request(bound)

        def send(remote):
            return remote._roundtrip(spec, fields, blobs)

        if spec.route == "every-shard":
            # Shards that do not answer are left out of the fold.
            answers = {
                index: spec.response(*raw, fields)
                for index in range(self.num_shards)
                if (raw := self._ask_shard(index, send)) is not None
            }
            return spec.merge(self, answers)
        if spec.route == "partition":
            raw = self._invoke(
                lambda m: m.owner(fields["topic"], fields["partition"]),
                send,
                spec.replayable(fields),
            )
        elif spec.route == "group":
            key = fields[spec.fields[0].name]
            raw = self._invoke(lambda m: m.coordinator(key), send, spec.replayable(fields))
        else:
            raw = self._any_invoke(send)
        return spec.response(*raw, fields)

    # -- hand-routed ops (see _HAND_ROUTED) ------------------------------------

    def create_topic(self, name: str, num_partitions: int = 1, exist_ok: bool = False):
        """Create the topic on *every* shard (full partition set each —
        ownership is enforced per op, not per log). Unlike the folded
        every-shard reads, every shard must succeed."""
        out = None
        for index, addr in enumerate(self._meta.shards):
            topic = self._remote(addr).create_topic(
                name,
                num_partitions=num_partitions,
                # Only the first shard honours the caller's exist_ok so a
                # duplicate create fails exactly once, like one broker.
                exist_ok=exist_ok if index == 0 else True,
            )
            out = out if out is not None else topic
        return out

    def consumer_lag(self, group) -> dict:
        """Cluster-wide lag: committed offsets from the group's
        coordinator shard merged with every shard's partition depths
        (no single shard sees both sides for foreign partitions)."""
        committed = self.committed_offsets(group)
        topics = self.coordinator.group_topics(group)
        depths = self.partition_depths()
        partitions = set(committed)
        for tp in depths:
            if tp[0] in topics:
                partitions.add(tp)
        lag: dict[tuple, int] = {}
        for tp in partitions:
            depth = depths.get(tp)
            if depth is None:
                continue
            base = committed.get(tp)
            if base is None:
                base = depth["end_offset"] - depth["depth"]
            lag[tp] = max(0, depth["end_offset"] - base)
        return lag

    append = Broker.append  # a single record is a batch of one

    def committed_offsets(self, group):
        return self.coordinator.committed_offsets(group)

    # -- telemetry ------------------------------------------------------------

    @property
    def requests_sent(self) -> int:
        with self._remotes_lock:
            remotes = list(self._remotes.values())
        return sum(r.requests_sent for r in remotes)

    # -- per-shard views of the shard-index ops ---------------------------------

    def _ask_every_shard(self, fn) -> dict:
        return {index: self._ask_shard(index, fn) for index in range(self.num_shards)}

    def metrics_snapshots(self) -> dict:
        """``{shard_index: metrics_snapshot | None}`` across the cluster.

        Unreachable shards map to ``None`` (not absent) so the
        aggregator can tell "shard down" from "shard never existed".
        """
        return self._ask_every_shard(lambda r: r.metrics_snapshot())

    def shard_events(self, index: int, since: int = 0) -> dict | None:
        """One shard's ``events_since`` payload (``None`` if unreachable)."""
        return self._ask_shard(index, lambda r: r.events_since(since))

    def events_snapshots(self, cursors: dict | None = None) -> dict:
        """``{shard_index: events_since payload | None}`` for the whole
        cluster, each shard drained past its cursor in *cursors*."""
        cursors = cursors or {}
        return {
            index: self.shard_events(index, int(cursors.get(index, 0)))
            for index in range(self.num_shards)
        }

    def shard_spans(self, index: int, since: int = 0) -> dict | None:
        """One shard's ``trace_spans`` payload (``None`` if unreachable)."""
        return self._ask_shard(index, lambda r: r.trace_spans(since))

    def span_snapshots(self, cursors: dict | None = None) -> dict:
        """``{shard_index: trace_spans payload | None}`` across the cluster."""
        cursors = cursors or {}
        return {
            index: self.shard_spans(index, int(cursors.get(index, 0)))
            for index in range(self.num_shards)
        }

    def __repr__(self) -> str:
        return f"ClusterBroker({self.name!r}, shards={self.num_shards})"


#: Table ops :class:`ClusterBroker` answers by hand instead of by routing
#: key: ``create_topic`` is every-shard but strict (no fold — every shard
#: must succeed), ``consumer_lag`` is composed from other ops because no
#: single shard sees both offsets and depths, and the two metadata ops
#: are answered from the client's cached shard map.
_HAND_ROUTED = ("create_topic", "consumer_lag", "describe_cluster", "find_coordinator")

# shard-index ops name their shard; they surface as the per-shard views
# above, not as routed methods.
install_stubs(
    ClusterBroker,
    unless=_HAND_ROUTED
    + tuple(op.method for op in OPS.values() if op.route == "shard-index"),
)


# -- bootstrap ---------------------------------------------------------------


def connect_bootstrap(addresses, **kwargs):
    """Connect to whatever is listening at *addresses*.

    Tries each address in order, skipping ones that are down (the
    fall-through producers/consumers use for their ``bootstrap=`` lists).
    If the responder speaks ``describe_cluster`` the result is a
    :class:`ClusterBroker` over the full shard map; a plain single
    broker (which answers ``unknown op``) yields an ordinary
    :class:`RemoteBroker`. That downgrade is kept on purpose: a plain
    ``BrokerServer(Broker())`` is a shape the benchmark ladder and the
    tests deploy, not a legacy peer. *kwargs* are forwarded to the
    client constructor.
    """
    addresses = [(str(h), int(p)) for h, p in addresses]
    if not addresses:
        raise ValidationError("bootstrap needs at least one (host, port) address")
    last_exc: Exception | None = None
    for host, port in addresses:
        try:
            probe = RemoteBroker(host, port, **kwargs)
        except (ConnectionError, OSError) as exc:
            last_exc = exc
            continue
        try:
            described = probe.describe_cluster()
        except RemoteBrokerError as exc:
            if exc.error_name == "ValidationError":
                # A plain broker: no cluster ops, use it directly.
                return probe
            probe.close()
            last_exc = exc
            continue
        except (DisconnectedError, BrokerTimeoutError, ConnectionError, OSError) as exc:
            probe.close()
            last_exc = exc
            continue
        probe.close()
        return ClusterBroker(
            addresses,
            metadata=ClusterMetadata.from_wire(described),
            **kwargs,
        )
    raise DisconnectedError(
        f"no broker reachable at any of {addresses}: {last_exc}"
    ) from last_exc
