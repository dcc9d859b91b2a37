"""TCP transport for the broker: cross-process producers/consumers.

Everything else in this package runs in-process; this module puts the
broker behind a socket so pilots in *separate processes* (or separate
machines, in a real deployment) can share one broker — the shape of the
paper's actual Kafka deployment.

The frame format is :mod:`repro.broker.wire`'s; the ops inside a frame
are :mod:`repro.broker.ops`'s. A single record is a batch of one: there
are no per-record wire ops. Client and server ship in one package, so
the wire schema carries no compatibility shims.

The protocol is *pipelined*: every request carries a correlation id
(``"cid"``) that the server echoes in the response, so one connection
can have many requests in flight and responses may return out of order
(a parked long-poll fetch does not block the appends queued behind it).
On high-RTT links this is the difference between one round-trip per
request and one round-trip per *window* of requests.

Server side: :class:`BrokerServer` is the ``selectors``-based reactor
of :mod:`repro.broker.reactor`.

Client side: :class:`RemoteBroker` exposes the same data-path surface as
:class:`~repro.broker.broker.Broker` (`append`, `append_many`, `fetch`,
offsets, commits, coordinator operations), so the existing
:class:`~repro.broker.producer.Producer` and
:class:`~repro.broker.consumer.Consumer` work against it unchanged.
Its methods are not written out: each is a stub generated from the op
table in :mod:`repro.broker.ops`, which also decides what may be
replayed. A dedicated reader thread dispatches responses to per-request
futures; concurrency is bounded by ``max_in_flight_requests``, and ops
that are not replay-safe cap in-flight at 1 (Kafka-style) so a reconnect
can never replay or reorder them.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from repro.broker.broker import Broker
from repro.broker.errors import (
    BrokerError,
    BrokerTimeoutError,
    DisconnectedError,
    FatalError,
    RetriableError,
)
from repro.broker.ops import CoordinatorClient, Op, install_stubs
from repro.broker.reactor import ReactorBrokerServer
from repro.broker.wire import recv_frame as _recv_frame, send_frame as _send_frame

BrokerServer = ReactorBrokerServer


class RemoteBrokerError(BrokerError):
    """A server-side error propagated over the wire."""

    def __init__(self, message: str, error_name: str = "") -> None:
        super().__init__(message)
        #: Exception class name raised on the server (error taxonomy key).
        self.error_name = error_name


class RemoteRetriableError(RemoteBrokerError, RetriableError):
    """A server-side *transient* error; the request may be retried."""


class RemoteFatalError(RemoteBrokerError, FatalError):
    """A server-side *permanent* error; retrying cannot succeed."""


#: Server-side exception names that map onto the retriable/fatal axes
#: client-side, so ``is_retriable`` keeps working across the wire.
_RETRIABLE_WIRE = {
    "RetriableError",
    "BrokerTimeoutError",
    "DisconnectedError",
    "UnknownMemberError",
    "RebalanceInProgressError",
    "NotOwnerError",
    "NotEnoughReplicasError",
    "ConnectionError",
    "TimeoutError",
}
_FATAL_WIRE = {
    "FatalError",
    "ProducerFencedError",
    "OutOfOrderSequenceError",
    "StaleLeaderEpochError",
}


def _wire_error(name: str, message: str) -> RemoteBrokerError:
    text = f"{name}: {message}"
    if name in _RETRIABLE_WIRE:
        return RemoteRetriableError(text, error_name=name)
    if name in _FATAL_WIRE:
        return RemoteFatalError(text, error_name=name)
    return RemoteBrokerError(text, error_name=name)


class _Pending:
    """A per-request future the reader thread completes."""

    __slots__ = ("event", "response", "blobs", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: dict | None = None
        self.blobs: list[bytes] = []
        self.error: Exception | None = None


class _Connection:
    """One pipelined socket: a writer lock, a reader thread, and the
    correlation-id -> pending-future table the reader dispatches into.

    Responses for abandoned correlation ids (a caller that gave up on its
    deadline and reconnected) are silently dropped — the id space is
    per-connection, so a stale response can never complete a newer
    request.
    """

    def __init__(self, sock: socket.socket, name: str) -> None:
        self.sock = sock
        self.send_lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._plock = threading.Lock()
        self.dead = False
        self.reader = threading.Thread(
            target=self._read_loop, name=f"{name}-reader", daemon=True
        )
        self.reader.start()

    def register(self, cid: int) -> _Pending:
        pend = _Pending()
        with self._plock:
            if self.dead:
                raise ConnectionError("connection is dead")
            self._pending[cid] = pend
        return pend

    def discard(self, cid: int) -> None:
        with self._plock:
            self._pending.pop(cid, None)

    def _read_loop(self) -> None:
        while True:
            try:
                response, blobs = _recv_frame(self.sock)
            except (ConnectionError, OSError, json.JSONDecodeError) as exc:
                self.fail_all(exc)
                return
            cid = response.pop("cid", None)
            with self._plock:
                pend = self._pending.pop(cid, None)
            if pend is not None:
                pend.response = response
                pend.blobs = blobs
                pend.event.set()

    def fail_all(self, exc: Exception) -> None:
        """Mark the connection dead and wake every in-flight waiter."""
        with self._plock:
            self.dead = True
            pending = list(self._pending.values())
            self._pending.clear()
        for pend in pending:
            pend.error = exc
            pend.event.set()

    def close(self) -> None:
        # shutdown() before close(): closing alone does not wake a reader
        # thread blocked in recv(), which would leave RemoteBroker.close()
        # burning its full join timeout per connection.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _InFlightGate:
    """Bounds concurrent in-flight requests on one client connection.

    All ops share up to *limit* slots. Non-idempotent ops additionally
    serialize **among themselves** — at most one is ever in flight, the
    Kafka ``max.in.flight=1`` rule for non-idempotent producers, so a
    reconnect can never duplicate or reorder appends. They still
    pipeline alongside replayable reads: a fetch parked server-side
    must not block the append that would satisfy it (reads cannot
    violate produce ordering).
    """

    def __init__(self, limit: int) -> None:
        self._limit = max(1, int(limit))
        self._cond = threading.Condition()
        self._active = 0
        self._exclusive = False
        #: Peak concurrent in-flight requests observed (telemetry).
        self.max_in_flight_seen = 0

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def active(self) -> int:
        """Requests currently in flight (telemetry gauge)."""
        with self._cond:
            return self._active

    def acquire(self, exclusive: bool, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                admissible = self._active < self._limit and not (
                    exclusive and self._exclusive
                )
                if admissible:
                    self._active += 1
                    if exclusive:
                        self._exclusive = True
                    if self._active > self.max_in_flight_seen:
                        self.max_in_flight_seen = self._active
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)

    def release(self, exclusive: bool) -> None:
        with self._cond:
            self._active -= 1
            if exclusive:
                self._exclusive = False
            self._cond.notify_all()


class RemoteBroker:
    """Client handle exposing the broker data-path API over TCP.

    Thread safety: the connection is *pipelined* — any number of threads
    may issue requests concurrently; up to ``max_in_flight_requests``
    travel on the wire at once and a dedicated reader thread routes each
    response to its caller by correlation id. Ops the table marks
    replay-safe only ``with_producer_id`` (plain appends) serialize at
    in-flight = 1 without one, so a reconnect can never replay or
    reorder them.

    Every broker method here other than :meth:`append` is a stub
    generated from :data:`repro.broker.ops.OPS`; ops the served broker
    lacks (the cluster, replication and observability ops on a plain
    broker) answer ``unknown op``.
    """

    #: Extra headroom on top of a long-poll's server-side wait before the
    #: client declares the server dead — covers scheduling jitter and the
    #: response's return trip so a parked fetch is never misdiagnosed as
    #: a silent server.
    _LONG_POLL_SLACK_S = 0.5

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        op_timeout: float = 10.0,
        max_attempts: int = 3,
        reconnect_backoff_ms: float = 50.0,
        max_in_flight_requests: int = 5,
        link=None,
        tracer=None,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = float(connect_timeout)
        #: Per-request deadline; a blocking fetch extends it by its own
        #: server-side wait (plus slack), so a healthy-but-parked server
        #: is never mistaken for a dead one.
        self.op_timeout = float(op_timeout)
        self.max_attempts = max(1, int(max_attempts))
        self.reconnect_backoff_ms = float(reconnect_backoff_ms)
        self._max_backoff_s = 2.0
        self.name = f"remote://{host}:{port}"
        self.coordinator = CoordinatorClient(self)
        #: Requests written to the wire by this client.
        self.requests_sent = 0
        #: Transport failures that triggered a successful reconnect.
        self.reconnects = 0
        #: Optional FaultInjector consulted before every request (tests).
        self.fault_injector = None
        #: Optional netem Link; when set, every request pays the link's
        #: sampled RTT client-side *in the calling thread*, so pipelined
        #: requests overlap their delays the way real concurrent packets
        #: share a wire.
        self.link = link
        #: Optional :class:`repro.monitoring.Tracer`. When set, every RPC
        #: opens an ``rpc.<op>`` span whose context travels in the frame's
        #: optional ``"trace"`` field (ignored by pre-tracing servers).
        self._tracer = tracer
        self._gate = _InFlightGate(max_in_flight_requests)
        self._cid_lock = threading.Lock()
        self._next_cid = 0
        self._conn_lock = threading.Lock()
        self._conn: _Connection | None = None
        self._closed = False
        self._ensure_conn()

    @property
    def max_in_flight_requests(self) -> int:
        return self._gate.limit

    @property
    def max_in_flight_seen(self) -> int:
        """Peak concurrent in-flight requests observed (telemetry)."""
        return self._gate.max_in_flight_seen

    def _ensure_conn(self) -> _Connection:
        with self._conn_lock:
            if self._closed:
                raise DisconnectedError(f"{self.name} is closed")
            if self._conn is None or self._conn.dead:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
                # Deadlines are enforced by per-request future waits, not
                # socket timeouts — the reader blocks indefinitely and is
                # woken by data or by close().
                sock.settimeout(None)
                # No TCP_NODELAY, on purpose: Nagle coalescing this shared
                # connection's small writes is worth 39 % of p50 (DESIGN.md §8).
                self._conn = _Connection(sock, self.name)
            return self._conn

    def _drop_conn(self, conn: _Connection, exc: Exception) -> None:
        """Retire a connection after a transport failure.

        Every other in-flight caller on it is failed immediately (their
        requests may or may not have been applied — the same ambiguity a
        socket timeout has), and the next request dials fresh.
        """
        conn.fail_all(exc)
        conn.close()
        with self._conn_lock:
            if self._conn is conn:
                self._conn = None

    def close(self) -> None:
        with self._conn_lock:
            self._closed = True
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.fail_all(DisconnectedError(f"{self.name} is closed"))
            conn.close()
            conn.reader.join(timeout=1.0)

    def __enter__(self) -> "RemoteBroker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _new_cid(self) -> int:
        with self._cid_lock:
            self._next_cid += 1
            return self._next_cid

    def _backoff(self, attempt: int) -> None:
        """Capped exponential sleep before retry *attempt* (none before
        the first), so a flapping server is not re-dialed in a tight loop."""
        if attempt:
            time.sleep(
                min(
                    self.reconnect_backoff_ms / 1000.0 * (2 ** (attempt - 1)),
                    self._max_backoff_s,
                )
            )

    def _call_op(self, spec: Op, bound: dict):
        """One op end to end: encode, round-trip, decode."""
        fields, blobs = spec.request(bound)
        result, out_blobs = self._roundtrip(spec, fields, blobs)
        return spec.response(result, out_blobs, fields)

    def _roundtrip(self, spec: Op, fields: dict, blobs) -> tuple:
        """Send one encoded request; returns ``(wire result, blobs)``."""
        if self._tracer is None:
            return self._invoke(spec, fields, blobs, None)
        span = self._tracer.start_trace(f"rpc.{spec.name}", site=self.name)
        try:
            result = self._invoke(spec, fields, blobs, span)
        except Exception as exc:
            span.set_attr("error", type(exc).__name__)
            span.finish()
            raise
        span.finish()
        return result

    def _invoke(self, spec: Op, fields: dict, blobs, span):
        op = spec.name
        replayable = spec.replayable(fields)
        # A parkable op legitimately waits server-side for up to its
        # timeout; give it that long, plus slack for the response's
        # return trip, plus the op budget.
        wait = spec.park_seconds(fields)
        deadline = self.op_timeout + wait + (self._LONG_POLL_SLACK_S if wait else 0.0)
        last_exc: Exception | None = None
        for attempt in range(self.max_attempts):
            self._backoff(attempt)
            if self._closed:
                raise DisconnectedError(f"{self.name} is closed")
            try:
                conn = self._ensure_conn()
            except (ConnectionError, OSError) as exc:
                last_exc = exc
                continue
            # Non-replayable ops serialize among themselves (at most one
            # in flight) so a transport failure can never duplicate or
            # reorder appends; replayable reads pipeline freely.
            exclusive = not replayable
            if not self._gate.acquire(exclusive=exclusive, timeout=deadline):
                raise BrokerTimeoutError(
                    f"{op} waited {deadline:.1f}s for an in-flight slot on {self.name}"
                )
            try:
                cid = self._new_cid()
                try:
                    pend = conn.register(cid)
                    if self.link is not None:
                        self.link.rtt_delay()
                    if self.fault_injector is not None:
                        self.fault_injector.on_remote_op(op, conn.sock)
                    frame = {"op": op, "cid": cid, **fields}
                    if span is not None and span.recording:
                        frame["trace"] = span.context
                    with conn.send_lock:
                        self.requests_sent += 1
                        _send_frame(conn.sock, frame, blobs)
                except (ConnectionError, OSError) as exc:
                    conn.discard(cid)
                    self._drop_conn(conn, exc)
                    last_exc = exc
                    if not replayable:
                        raise DisconnectedError(
                            f"{op} failed on {self.name}: {exc}"
                        ) from exc
                    continue
                if not pend.event.wait(deadline):
                    # The server accepted the request but went silent; the
                    # op may have been applied, so only replayable ops are
                    # retried on a fresh connection.
                    conn.discard(cid)
                    exc = socket.timeout(f"{op} deadline {deadline:.1f}s")
                    self._drop_conn(conn, exc)
                    last_exc = exc
                    if not replayable:
                        raise BrokerTimeoutError(
                            f"{op} timed out after {deadline:.1f}s on {self.name}"
                        )
                    continue
                if pend.error is not None:
                    # Reader saw the transport die mid-flight.
                    self._drop_conn(conn, pend.error)
                    last_exc = pend.error
                    if not replayable:
                        raise DisconnectedError(
                            f"{op} failed on {self.name}: {pend.error}"
                        ) from pend.error
                    continue
            finally:
                self._gate.release(exclusive)
            if attempt:
                self.reconnects += 1
            response = pend.response
            if response.get("ok"):
                return response.get("result"), pend.blobs
            error = _wire_error(
                response.get("error", "Error"), response.get("message", "")
            )
            # Ops that declare a typed error re-raise it, so callers'
            # handling works identically against remote and in-proc brokers.
            typed = spec.typed_error(error.error_name, fields)
            if typed is not None:
                raise typed from error
            raise error
        if isinstance(last_exc, socket.timeout):
            raise BrokerTimeoutError(
                f"{op} timed out after {self.max_attempts} attempts on {self.name}"
            ) from last_exc
        raise DisconnectedError(
            f"{op} failed after {self.max_attempts} attempts on {self.name}: {last_exc}"
        ) from last_exc

    append = Broker.append  # a single record is a batch of one

    def committed_offsets(self, group):
        return self.coordinator.committed_offsets(group)

    @property
    def requests_in_flight(self) -> int:
        """Requests currently on the wire (telemetry gauge)."""
        return self._gate.active


install_stubs(RemoteBroker)
