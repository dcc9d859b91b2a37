"""TCP transport for the broker: cross-process producers/consumers.

Everything else in this package runs in-process; this module puts the
broker behind a socket so pilots in *separate processes* (or separate
machines, in a real deployment) can share one broker — the shape of the
paper's actual Kafka deployment.

The frame format is :mod:`repro.broker.wire`'s; the ops inside a frame
are :mod:`repro.broker.ops`'s. A single record is a batch of one: there
are no per-record wire ops. Client and server ship in one package, so
the wire schema carries no compatibility shims.

One socket per calling thread: a thread that calls a client dials its
own connection, writes a request and reads the response itself, so no
second thread is woken to hand the answer over. A thread waits for each
call, so at most one request is ever in flight on a socket — the Kafka
``max.in.flight=1`` rule holds by construction for every op, and a
reconnect can never reorder what it resends. Concurrency comes from
threads: a long-poll fetch parked on the consumer's socket does not hold
up the producer's appends on its own. Every request still carries a
correlation id (``"cid"``) that the response must echo.

A thread fetches one batch ahead (``Op.ahead``): when a long-poll fetch
comes back with records, the thread sends its *follow-on* — the same
fetch from where those records end — on a second socket of its own
before it returns them, and its next fetch of exactly that position
reads the follow-on's answer instead of asking again. The leader parks
and answers batch N+1 while the caller processes batch N. So a thread
holds a second socket while a follow-on is outstanding, one follow-on
at a time, and each socket still carries at most one request. A fetch
of that partition at another position (a seek, a rebalance),
``close()`` or a broken socket drops the follow-on — its socket closes
and its records are never delivered — and so does a follow-on for
another partition once the first one has been answered. An empty or
failed follow-on answer falls back to an ordinary fetch within the
caller's own timeout; a follow-on still parked when that timeout runs
out answers the fetch empty and stays outstanding.

Server side: :class:`BrokerServer` is the ``selectors``-based reactor
of :mod:`repro.broker.reactor`.

Client side: :class:`RemoteBroker` exposes the same data-path surface as
:class:`~repro.broker.broker.Broker` (`append`, `append_many`, `fetch`,
offsets, commits, coordinator operations), so the existing
:class:`~repro.broker.producer.Producer` and
:class:`~repro.broker.consumer.Consumer` work against it unchanged.
Its methods are not written out: each is a stub generated from the op
table in :mod:`repro.broker.ops`, which also decides what may be
replayed after a transport failure.
"""

from __future__ import annotations

import socket
import threading
import time
import weakref

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
from repro.broker.wire import encode_frame, recv_frame, sendall_vectored

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


class _Connection:
    """One of a calling thread's sockets. Only that thread's thread-local
    slots hold it, so it closes when the thread exits."""

    __slots__ = ("sock", "cid", "ahead", "sent_at", "__weakref__")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        #: Correlation id of the last request sent on this socket.
        self.cid = 0
        #: The fields of the follow-on fetch outstanding here, if any.
        self.ahead: dict | None = None
        #: When that follow-on was sent (``time.monotonic()``).
        self.sent_at = 0.0

    def __del__(self) -> None:
        # close(), never shutdown(): a forked child dropping its copy must
        # not cut the parent's connection.
        self.sock.close()


class _Deadline:
    """A socket seen through one request's deadline: before each blocking
    call the socket's timeout is set to what is left of it. One budget
    covers the send and the whole response, so a server that trickles
    its bytes cannot hold the caller past it. :mod:`repro.broker.wire`
    reads and writes through this as through the socket itself."""

    __slots__ = ("sock", "end")

    def __init__(self, sock: socket.socket, seconds: float) -> None:
        self.sock = sock
        self.end = time.monotonic() + seconds

    def _arm(self) -> None:
        left = self.end - time.monotonic()
        if left <= 0:
            raise socket.timeout("deadline passed")
        self.sock.settimeout(left)

    def sendmsg(self, buffers) -> int:
        self._arm()
        return self.sock.sendmsg(buffers)

    def recv_into(self, buffer) -> int:
        self._arm()
        return self.sock.recv_into(buffer)


def _answered(sock: socket.socket, seconds: float) -> bool:
    """Whether *sock* has something to read (an answer, or the peer's
    close) within *seconds*; nothing is consumed."""
    sock.settimeout(max(seconds, 0.0))  # 0: a look that does not block
    try:
        sock.recv(1, socket.MSG_PEEK)
    except (BlockingIOError, socket.timeout):
        return False
    return True


#: A follow-on the server has not answered yet.
_PARKED = object()

#: What a fetch answered with nothing returns: no record metadata, no blobs.
_EMPTY = ((), ())


def _same_request(a: dict, b: dict) -> bool:
    """Two fetch frames that differ at most in how long they may park."""
    return a.keys() == b.keys() and all(a[k] == b[k] for k in a if k != "timeout")


class RemoteBroker:
    """Client handle exposing the broker data-path API over TCP.

    Thread safety: any number of threads may call one client. Each
    thread dials its own socket on its first call, writes its request
    and reads the response itself; the socket closes when the thread
    exits or the client closes. A thread waits for each call, so at most
    one request is ever in flight on a socket: a reconnect can never
    reorder what it resends, and the ops the table does not let replay
    (``append_batch`` without a producer id) are never resent at all.
    A thread that fetches ahead (see the module docstring) holds a
    second socket for its follow-on.

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
        #: Requests written to the wire by this client, from every thread.
        self.requests_sent = 0
        #: Transport failures that triggered a successful reconnect.
        self.reconnects = 0
        #: Optional FaultInjector consulted before every request (tests).
        self.fault_injector = None
        #: Optional netem Link; when set, every request pays the link's
        #: sampled RTT client-side *in the calling thread*, so requests
        #: from several threads overlap their delays the way real
        #: concurrent packets share a wire.
        self.link = link
        #: Optional :class:`repro.monitoring.Tracer`. When set, every RPC
        #: opens an ``rpc.<op>`` span whose context travels in the frame's
        #: optional ``"trace"`` field (ignored by pre-tracing servers).
        self._tracer = tracer
        #: The calling thread's :class:`_Connection`, as ``.conn``, and
        #: the one its follow-on fetches go out on, as ``.ahead``.
        self._local = threading.local()
        #: Every live thread's connection, so close() can reach them all;
        #: a weak set, so an exited thread's is not kept alive here.
        self._conns: weakref.WeakSet = weakref.WeakSet()
        #: Guards ``_conns`` and the two counters above.
        self._lock = threading.Lock()
        self._closed = False
        self._connection()  # dial now: an address nobody listens on fails here

    def _connection(self, slot: str = "conn") -> _Connection:
        """The calling thread's connection in *slot*, dialled on first use."""
        if self._closed:
            raise DisconnectedError(f"{self.name} is closed")
        conn = getattr(self._local, slot, None)
        if conn is None:
            conn = _Connection(
                socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
            )
            # No TCP_NODELAY, on purpose (DESIGN.md §8): a request is one
            # scatter-gather write and the socket's previous request was
            # answered before it, so Nagle has nothing to hold back.
            with self._lock:
                if self._closed:
                    raise DisconnectedError(f"{self.name} is closed")
                self._conns.add(conn)
            setattr(self._local, slot, conn)
        return conn

    def _drop(self, conn: _Connection, slot: str = "conn") -> None:
        """Retire the calling thread's connection in *slot* after a
        transport failure or with a follow-on nobody will read; the next
        request there dials fresh."""
        setattr(self._local, slot, None)
        with self._lock:
            self._conns.discard(conn)
        conn.sock.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            # shutdown() before close(): closing alone does not wake a
            # thread parked in recv() on its socket.
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.sock.close()

    def __enter__(self) -> "RemoteBroker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        send = self._fetch if spec.ahead else self._invoke
        if self._tracer is None:
            return send(spec, fields, blobs, None)
        span = self._tracer.start_trace(f"rpc.{spec.name}", site=self.name)
        try:
            result = send(spec, fields, blobs, span)
        except Exception as exc:
            span.set_attr("error", type(exc).__name__)
            span.finish()
            raise
        span.finish()
        return result

    def _fetch(self, spec: Op, fields: dict, blobs, span):
        """A fetch: answered by the calling thread's follow-on when that
        asked for exactly this, else sent as usual; either way followed
        by the next follow-on when it could park and came back with
        records."""
        asked = fields
        conn = getattr(self._local, "ahead", None)
        ahead = conn.ahead if conn is not None else None
        if ahead is not None and (ahead["topic"], ahead["partition"]) == (
            fields["topic"],
            fields["partition"],
        ):
            if not _same_request(ahead, fields):
                self._drop(conn, "ahead")  # a seek or a rebalance moved on
            else:
                wait = spec.park_seconds(fields)
                start = time.monotonic()
                answer = self._follow_on_answer(conn, wait)
                if answer is _PARKED:
                    return _EMPTY  # nothing yet; the follow-on stays parked
                if answer is not None and answer[0]:
                    self._send_ahead(spec, asked, answer[0])
                    return answer
                # Empty or failed: ask again for what is left of the wait.
                left = max(0.0, wait - (time.monotonic() - start))
                fields = {**fields, "timeout": left}
        answer = self._invoke(spec, fields, blobs, span)
        self._send_ahead(spec, asked, answer[0])
        return answer

    def _follow_on_answer(self, conn: _Connection, wait: float):
        """Read the follow-on outstanding on *conn*: ``(wire result,
        blobs)``; ``None`` when it failed or was refused (the caller asks
        again itself); ``_PARKED`` when the server has not answered
        within *wait* seconds, and it stays outstanding."""
        try:
            if not _answered(conn.sock, wait):
                return _PARKED
            if self.link is not None:
                self.link.rtt_delay(since=conn.sent_at)
            response, out_blobs = recv_frame(_Deadline(conn.sock, self.op_timeout))
            if response.pop("cid", None) != conn.cid:
                raise ConnectionError("follow-on: the response echoes another cid")
        except (ConnectionError, OSError, ValueError) as exc:
            self._drop(conn, "ahead")
            if self._closed:
                raise DisconnectedError(f"{self.name} is closed") from exc
            return None
        conn.ahead = None
        return (response.get("result"), out_blobs) if response.get("ok") else None

    def _send_ahead(self, spec: Op, fields: dict, result) -> None:
        """Send the follow-on of a fetch answered with *result*, if it
        has one, on the calling thread's second socket. A thread keeps
        one follow-on: one for another partition is replaced once it is
        answered (its request is spent either way) and kept while it is
        parked, and then no new one goes out. One that cannot be sent is
        not; the next fetch asks as usual."""
        follow_on = spec.follow_on(fields, result)
        if follow_on is None:
            return
        conn = getattr(self._local, "ahead", None)
        if conn is not None and conn.ahead is not None:
            try:
                if not _answered(conn.sock, 0):
                    return
            except OSError:
                pass
            self._drop(conn, "ahead")
        try:
            conn = self._connection("ahead")
        except (DisconnectedError, ConnectionError, OSError):
            return
        conn.cid += 1
        buffers = encode_frame({"op": spec.name, "cid": conn.cid, **follow_on})
        try:
            if self.fault_injector is not None:
                self.fault_injector.on_remote_op(spec.name, conn.sock)
            with self._lock:
                self.requests_sent += 1
            conn.sent_at = time.monotonic()
            sendall_vectored(_Deadline(conn.sock, self.op_timeout), buffers)
        except (ConnectionError, OSError):
            self._drop(conn, "ahead")
            return
        conn.ahead = follow_on

    def _invoke(self, spec: Op, fields: dict, blobs, span):
        op = spec.name
        replayable = spec.replayable(fields)
        # A parkable op legitimately waits server-side for up to its
        # timeout; give it that long, plus slack for the response's
        # return trip, plus the op budget.
        wait = spec.park_seconds(fields)
        budget = self.op_timeout + wait + (self._LONG_POLL_SLACK_S if wait else 0.0)
        last_exc: Exception | None = None
        for attempt in range(self.max_attempts):
            self._backoff(attempt)
            try:
                conn = self._connection()
            except (ConnectionError, OSError) as exc:
                last_exc = exc
                continue
            conn.cid += 1
            frame = {"op": op, "cid": conn.cid, **fields}
            if span is not None and span.recording:
                frame["trace"] = span.context
            buffers = encode_frame(frame, blobs)  # an oversized frame raises here
            try:
                if self.link is not None:
                    self.link.rtt_delay()
                if self.fault_injector is not None:
                    self.fault_injector.on_remote_op(op, conn.sock)
                io = _Deadline(conn.sock, budget)
                with self._lock:
                    self.requests_sent += 1
                sendall_vectored(io, buffers)
                response, out_blobs = recv_frame(io)
                if response.pop("cid", None) != conn.cid:
                    raise ConnectionError(f"{op}: the response echoes another cid")
            except (ConnectionError, OSError, ValueError) as exc:
                # A ValueError is an undecodable response. The request
                # may or may not have been applied, so only replayable
                # ops are resent, on a fresh socket.
                self._drop(conn)
                last_exc = exc
                if self._closed:
                    raise DisconnectedError(f"{self.name} is closed") from exc
                if not replayable:
                    if isinstance(exc, socket.timeout):
                        raise BrokerTimeoutError(
                            f"{op} timed out after {budget:.1f}s on {self.name}"
                        ) from exc
                    raise DisconnectedError(f"{op} failed on {self.name}: {exc}") from exc
                continue
            if attempt:
                with self._lock:
                    self.reconnects += 1
            if response.get("ok"):
                return response.get("result"), out_blobs
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


install_stubs(RemoteBroker)
