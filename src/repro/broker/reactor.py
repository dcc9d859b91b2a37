"""Reactor broker server: one event loop, O(1) threads, 1k+ connections.

A thread per client plus a side thread per parked long-poll collapses
well before the connection counts an edge deployment needs, so the
server half of the wire path is a ``selectors``-based reactor:

* **One I/O thread** multiplexes every client socket with non-blocking
  reads and writes. Inbound bytes go through a per-connection
  incremental :class:`~repro.broker.wire.FrameDecoder` (a blob is read
  from the socket straight into its own buffer); outbound frames queue
  as the buffers they are and drain scatter-gather as the socket allows.
* **The loop serves what cannot wait, workers serve what can.** An op
  the table declares non-waiting (:attr:`~repro.broker.ops.Op.waits`)
  runs on the I/O thread where it was read and its response goes
  straight to the connection's outbound queue: under the GIL a hop to
  another thread buys no parallelism, only latency. An op that can wait
  on a disk or a follower (``append_batch``, ``create_topic``) runs on a
  small bounded worker pool. Each connection is a *strand*: its requests
  run one at a time in arrival order — an op is served on the loop only
  while its connection's strand is idle, so per-connection append order
  is preserved, which idempotent producer sequence numbers rely on —
  while different connections' waiting ops run in parallel.
* **Long polls park as reactor state**, not threads. A parkable
  request is probed non-blockingly on what its op names
  (:attr:`~repro.broker.ops.Op.parkable`): a fetch on its partition
  log, a heartbeat on its group. If unsatisfied it lands in one
  parked-request table keyed by what it waits on, with one deadline
  heap. The log's (or the group's) waiter hook takes a duck-typed waker
  whose ``set()`` nudges the loop through a self-pipe, so the append and
  rebalance paths know nothing of the reactor. A parked request costs
  one table entry — no thread, no stack — and is answered by the loop.

Frames may carry the optional ``"trace"`` field; a ``server.<op>`` span
covers dispatch (and for a parked fetch, the full park duration).

Tuning knob: ``num_workers`` (how many waiting ops may wait at once;
the default of 4 is plenty). A slow reader's reads are paused once its
outbound buffer passes ``MAX_BUFFERED_BYTES`` and resume when it drains
below half, bounding per-connection memory.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import selectors
import socket
import threading
import time
from collections import deque

from repro.broker.broker import Broker
from repro.broker.ops import find, lookup
from repro.broker.wire import FrameDecoder, encode_frame, send_some

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE

#: Per-connection outbound buffer cap: beyond it the connection's reads
#: pause until the buffer drains below half (backpressure).
MAX_BUFFERED_BYTES = 8 * 1024 * 1024


class _Conn:
    """Per-connection reactor state (loop-owned except where noted)."""

    __slots__ = (
        "sock", "fd", "decoder", "outbuf", "out_bytes", "outbox", "lock",
        "pending", "scheduled", "closed", "read_paused", "mask",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.decoder = FrameDecoder()
        #: Loop-owned outbound queue of buffers (never copied together),
        #: drained as the socket allows, and the bytes it holds.
        self.outbuf: deque = deque()
        self.out_bytes = 0
        #: Worker -> loop handoff: encoded response buffers (under lock).
        self.outbox: deque = deque()
        self.lock = threading.Lock()
        #: Strand queue: this connection's ``(request, blobs)`` for the
        #: workers, served in order; ``scheduled`` while any is unserved.
        self.pending: deque = deque()
        self.scheduled = False
        self.closed = False
        self.read_paused = False
        self.mask = 0


class _Parked:
    """A long poll parked as reactor state instead of a thread."""

    __slots__ = ("conn", "op", "cid", "span", "key", "source", "probe", "deadline", "done")

    def __init__(self, conn, op, cid, span) -> None:
        self.conn = conn
        self.op = op
        self.cid = cid
        self.span = span
        #: Set once the request decodes (see ``Op.parkable``): its table
        #: key, what it waits on and ``probe() -> (result, satisfied)``.
        self.key = self.source = self.probe = None
        self.deadline = 0.0
        self.done = False


class _Waker:
    """Duck-typed waiter handed to a parked request's source.

    A partition log calls ``set()`` whenever its visible end moves — an
    append, or a high-watermark advance on a replicated log — (it
    expects a ``threading.Event``), a group whenever its membership
    moves; here that marks the key dirty and nudges the reactor through
    its self-pipe (from the loop itself — a follower's
    ``replicate_append``, a join — the mark is enough: this iteration's
    ``_process_wakes`` is still to come).
    """

    __slots__ = ("_server", "_key", "source")

    def __init__(self, server: "ReactorBrokerServer", key: tuple, source) -> None:
        self._server = server
        self._key = key
        #: What it is registered with (unregistered from the same one).
        self.source = source

    def set(self) -> None:
        server = self._server
        with server._wake_lock:
            server._pending_wakes.add(self._key)
        if threading.current_thread() is not server._reactor_thread:
            server._wake()


class ReactorBrokerServer:
    """Serves an in-process broker over TCP from one event loop.

    Public counters: ``connections_served`` / ``requests_served`` /
    ``op_counts``. Exported from ``repro.broker.remote`` as
    ``BrokerServer``.
    """

    def __init__(
        self,
        broker: Broker | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        tracer=None,
        num_workers: int = 4,
    ) -> None:
        self.broker = broker if broker is not None else Broker()
        #: Optional :class:`repro.monitoring.Tracer`; frames carrying the
        #: optional ``"trace"`` field get a ``server.<op>`` span.
        self._tracer = tracer
        self.num_workers = max(1, int(num_workers))
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1024)
        self.host, self.port = self._listener.getsockname()

        self.connections_served = 0
        self.requests_served = 0
        #: op name -> number of requests dispatched (batching telemetry).
        self.op_counts: dict[str, int] = {}
        self._counts_lock = threading.Lock()
        #: Seconds the loop spent processing its last wakeup — a growing
        #: value means the loop (not the sockets) is the bottleneck.
        self.reactor_loop_lag = 0.0
        # The fields above are this server's numbers; the broker's
        # registry reads them (``server.*``) and counts worker errors.
        self._registry = self.broker.registry
        self._registry.add_reader("gauges", self.metrics, prefix="server.")

        self._selector: selectors.DefaultSelector | None = None
        self._conns: dict[int, _Conn] = {}
        self._parked: dict[tuple, list[_Parked]] = {}
        self._wakers: dict[tuple, _Waker] = {}
        self._deadlines: list = []
        self._park_seq = itertools.count()
        self._wake_lock = threading.Lock()
        self._pending_wakes: set = set()
        self._dirty: set = set()
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._workers: list[threading.Thread] = []
        self._reactor_thread: threading.Thread | None = None
        self._stopping = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ReactorBrokerServer":
        if self._reactor_thread is not None:
            raise RuntimeError("server already started")
        self._stopping = False
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, _READ, "accept")
        self._selector.register(self._wake_r, _READ, "wake")
        for i in range(self.num_workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"broker-worker-{i}:{self.port}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        self._reactor_thread = threading.Thread(
            target=self._run, name=f"broker-reactor:{self.port}", daemon=True
        )
        self._reactor_thread.start()
        return self

    def stop(self) -> None:
        """Deterministic shutdown: close every live connection, drain the
        parked-request table, join the reactor and every worker."""
        if self._reactor_thread is not None:
            self._stopping = True
            self._wake()
            self._reactor_thread.join(timeout=10)
            self._reactor_thread = None
        else:
            try:
                self._listener.close()
            except OSError:
                pass
        for _ in self._workers:
            self._tasks.put(None)
        for worker in self._workers:
            worker.join(timeout=5)
        self._workers = []

    def __enter__(self) -> "ReactorBrokerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def address(self) -> tuple:
        return (self.host, self.port)

    @property
    def connections_active(self) -> int:
        """Live client connections (gauge)."""
        return len(self._conns)

    @property
    def parked_fetches(self) -> int:
        """Long polls (fetches and heartbeats) parked in the reactor (gauge)."""
        return sum(len(b) for b in self._parked.values())

    def metrics(self) -> dict:
        """Server-internals snapshot; the broker's registry reads it as
        its ``server.*`` gauges."""
        return {
            "connections_active": self.connections_active,
            "parked_fetches": self.parked_fetches,
            "reactor_loop_lag_s": self.reactor_loop_lag,
            "requests_served": self.requests_served,
            "connections_served": self.connections_served,
        }

    # -- the loop -----------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError, AttributeError):
            pass  # pipe full (loop will wake anyway) or already closed

    def _run(self) -> None:
        selector = self._selector
        try:
            while not self._stopping:
                timeout = self._next_timeout()
                events = selector.select(timeout)
                t0 = time.monotonic()
                for key, mask in events:
                    data = key.data
                    if data == "accept":
                        self._on_accept()
                    elif data == "wake":
                        try:
                            while self._wake_r.recv(4096):
                                pass
                        except (BlockingIOError, OSError):
                            pass
                    else:
                        if mask & _READ:
                            self._on_readable(data)
                        if mask & _WRITE and not data.closed:
                            self._pump_out(data)
                self._process_wakes()
                self._process_deadlines()
                self._flush_dirty()  # last: what the two above answered too
                self.reactor_loop_lag = time.monotonic() - t0
        finally:
            self._teardown()

    def _next_timeout(self) -> float:
        if self._pending_wakes:  # marked on the loop after this pass's wakes
            return 0.0
        heap = self._deadlines
        while heap and heap[0][2].done:
            heapq.heappop(heap)
        if not heap:
            return 0.5
        return min(0.5, max(0.0, heap[0][0] - time.monotonic()))

    def _teardown(self) -> None:
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        for obj in (self._listener, self._wake_r, self._wake_w):
            try:
                obj.close()
            except (OSError, AttributeError):
                pass
        self._selector.close()
        self._selector = None
        self._parked.clear()
        self._wakers.clear()
        self._deadlines.clear()

    # -- connections --------------------------------------------------------

    def _on_accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Conn(sock)
            self._conns[conn.fd] = conn
            self.connections_served += 1
            conn.mask = _READ
            self._selector.register(sock, _READ, conn)

    def _close_conn(self, conn: _Conn) -> None:
        if conn.closed:
            return
        with conn.lock:
            conn.closed = True
            conn.outbox.clear()
            conn.pending.clear()
        conn.outbuf.clear()  # may hold views of a sealed segment's mapping
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.pop(conn.fd, None)
        with self._wake_lock:
            self._dirty.discard(conn)
        # Drop this connection's parked requests; finish their spans so a
        # traced run does not leak unrecorded server spans.
        for key in list(self._parked):
            for entry in [e for e in self._parked.get(key, ()) if e.conn is conn]:
                self._unpark(entry)
                if entry.span is not None:
                    entry.span.set_attr("error", "ConnectionClosed")
                    entry.span.finish()

    def _on_readable(self, conn: _Conn) -> None:
        decoder = conn.decoder
        # One read per readiness event, except that a blob's tail is drained
        # until the socket runs dry (not one trip round ``select`` per read).
        while True:
            try:
                if not decoder.recv_from(conn.sock):
                    raise ConnectionError("peer closed the connection")
                for request, blobs in iter(decoder.next_frame, None):
                    op = find(request.get("op"))
                    if op is not None and op.park_seconds(request) > 0:
                        # Long-polls never occupy a worker: probe, then
                        # answer or park as loop state.
                        self._begin_park(conn, op, request, blobs)
                    elif conn.scheduled or (op is not None and op.waits):
                        # It can wait, or must not overtake one that can.
                        self._enqueue_task(conn, (request, blobs))
                    else:
                        self._serve(conn, request, blobs, self._send)
            except BlockingIOError:
                return
            except OSError:  # the socket's, or the decoder's ConnectionError
                self._close_conn(conn)
                return
            if not decoder.mid_blob:
                return

    # -- outbound -----------------------------------------------------------

    def _send(self, conn: _Conn, buffers) -> None:
        """Queue encoded buffers on *conn* (loop thread only); this
        iteration's ``_flush_dirty`` puts them on the wire."""
        if not conn.closed:
            conn.outbuf.extend(buffers)
            conn.out_bytes += sum(map(len, buffers))
            with self._wake_lock:
                self._dirty.add(conn)

    def _queue_output(self, conn: _Conn, buffers) -> None:
        """Hand encoded buffers to the loop (workers only: the lock,
        ``outbox``, ``_dirty`` and the self-pipe are the price of the hop)."""
        with conn.lock:
            if conn.closed:
                return
            conn.outbox.extend(buffers)
        with self._wake_lock:
            self._dirty.add(conn)
        self._wake()

    def _flush_dirty(self) -> None:
        with self._wake_lock:
            dirty, self._dirty = self._dirty, set()
        for conn in dirty:
            if not conn.closed:
                self._pump_out(conn)

    def _pump_out(self, conn: _Conn) -> None:
        outbuf = conn.outbuf
        with conn.lock:
            conn.out_bytes += sum(map(len, conn.outbox))
            outbuf.extend(conn.outbox)
            conn.outbox.clear()
        while outbuf:
            try:
                conn.out_bytes -= send_some(conn.sock, outbuf)
            except BlockingIOError:
                break
            except OSError:
                self._close_conn(conn)
                return
        # Backpressure with hysteresis: a slow reader stops being read
        # once its outbound buffer passes the cap, resumes below half.
        if conn.read_paused:
            if conn.out_bytes < MAX_BUFFERED_BYTES // 2:
                conn.read_paused = False
        elif conn.out_bytes > MAX_BUFFERED_BYTES:
            conn.read_paused = True
        self._update_mask(conn)

    def _update_mask(self, conn: _Conn) -> None:
        mask = 0
        if not conn.read_paused:
            mask |= _READ
        if conn.outbuf or conn.outbox:
            mask |= _WRITE
        if mask == 0:
            mask = _WRITE  # paused reader with a drained buffer: next
            # pump resumes reads; keep the registration valid meanwhile.
        if mask != conn.mask:
            try:
                self._selector.modify(conn.sock, mask, conn)
                conn.mask = mask
            except (KeyError, ValueError, OSError):
                pass

    # -- strand scheduling --------------------------------------------------

    def _enqueue_task(self, conn: _Conn, task: tuple) -> None:
        """Queue ``(request, blobs)`` on the connection's strand (FIFO
        per conn). Only the loop sets ``scheduled``, so reading it false
        there means every queued request has been served."""
        with conn.lock:
            if conn.closed:
                return
            conn.pending.append(task)
            if conn.scheduled:
                return
            conn.scheduled = True
        self._tasks.put(conn)

    def _worker_loop(self) -> None:
        while True:
            conn = self._tasks.get()
            if conn is None:
                return
            with conn.lock:
                task = conn.pending.popleft() if conn.pending else None
            if task is not None:
                self._serve(conn, *task, self._queue_output)
            requeue = False
            with conn.lock:
                if conn.pending:
                    requeue = True
                else:
                    conn.scheduled = False
            if requeue:
                self._tasks.put(conn)

    # -- request handling (the loop, or a worker) ---------------------------

    def _serve(self, conn: _Conn, request: dict, blobs, send) -> None:
        """Answer one request through *send*, this thread's way out."""
        try:
            send(conn, self._handle_request(request, blobs))
        except Exception as exc:  # noqa: BLE001 — survive, but not silently
            self._count_error(exc)

    def _count_error(self, exc: Exception) -> None:
        self._registry.counter(f"server.worker_errors.{type(exc).__name__}").inc()

    def _open(self, request: dict) -> tuple:
        """Take the envelope off *request*: returns its correlation id
        and, for a traced frame, the ``server.<op>`` span; counts the op."""
        cid = request.pop("cid", None)
        trace_ctx = request.pop("trace", None)
        op = request.get("op")
        if not isinstance(op, str):
            op = repr(op)  # outside input: keep the counter key hashable
        with self._counts_lock:
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
        span = None
        if self._tracer is not None and trace_ctx is not None:
            span = self._tracer.start_span(
                f"server.{op}", parent=trace_ctx, site=self.broker.name
            )
        return cid, span

    def _handle_request(self, request: dict, blobs) -> list:
        cid, span = self._open(request)
        try:
            result = lookup(request.get("op")).invoke(self.broker, request, blobs)
        except Exception as exc:  # noqa: BLE001 — all errors go to the client
            return self._answer(cid, span, error=exc)
        return self._answer(cid, span, *result)

    def _answer(self, cid, span, result=None, out_blobs=(), error=None) -> list:
        """The encoded response to *cid*: *result* with its blobs, or
        *error*."""
        if error is None:
            response = {"ok": True, "result": result}
        else:
            if span is not None:
                span.set_attr("error", type(error).__name__)
            response = {"ok": False, "error": type(error).__name__, "message": str(error)}
        if span is not None:
            span.finish()
        if cid is not None:
            response["cid"] = cid
        with self._counts_lock:
            self.requests_served += 1
        try:
            return encode_frame(response, out_blobs)
        except Exception as exc:  # noqa: BLE001 — unencodable: say so, and count it
            self._count_error(exc)
            error = {"ok": False, "error": type(exc).__name__, "message": str(exc)}
            return encode_frame({**error, "cid": cid})

    # -- long-poll parking (reactor thread) ---------------------------------

    def _begin_park(self, conn: _Conn, op, request: dict, blobs) -> None:
        cid, span = self._open(request)  # the span covers the full park
        entry = _Parked(conn, op, cid, span)
        try:
            args = {**request, **op.arguments(request, blobs)}
            entry.key, entry.source, entry.probe, seconds = op.parkable(
                self.broker, args, op.park_seconds(request)
            )
        except Exception as exc:  # noqa: BLE001
            self._finish_parked(entry, error=exc)
            return
        if not self._probe(entry):
            return  # answered at once, never parked
        # Park: waiter first, then re-probe, so a change racing the park
        # can never be missed (it either lands before the probe or sets
        # the waker after registration).
        entry.deadline = time.monotonic() + seconds
        key = entry.key
        self._parked.setdefault(key, []).append(entry)
        if key not in self._wakers:
            self._wakers[key] = waker = _Waker(self, key, entry.source)
            entry.source.register_waiter(waker)
        heapq.heappush(self._deadlines, (entry.deadline, next(self._park_seq), entry))
        if self._probe(entry):
            entry.source.note_long_poll_parked()

    def _unpark(self, entry: _Parked) -> None:
        entry.done = True
        key = entry.key
        bucket = self._parked.get(key)
        if bucket is None:
            return
        try:
            bucket.remove(entry)
        except ValueError:
            pass
        if not bucket:
            del self._parked[key]
            waker = self._wakers.pop(key, None)
            if waker is not None:
                waker.source.unregister_waiter(waker)

    def _finish_parked(self, entry: _Parked, result=(), error=None) -> None:
        """Answer a (possibly never-parked) long-poll where it completed:
        here, on the loop."""
        out = entry.op.codec.encode(result) if error is None else ()
        self._send(entry.conn, self._answer(entry.cid, entry.span, *out, error=error))

    def _probe(self, entry: _Parked, deadline: bool = False) -> bool:
        """Probe a long poll (parked or about to be) and answer it if it
        is satisfied or at its *deadline* (with whatever there is,
        possibly no records); whether it stays parked."""
        try:
            result, satisfied = entry.probe()
        except Exception as exc:  # noqa: BLE001 — the client gets it
            self._unpark(entry)
            self._finish_parked(entry, error=exc)
            return False
        if satisfied or deadline:
            self._unpark(entry)
            self._finish_parked(entry, result)
            return False
        return True

    def _process_wakes(self) -> None:
        with self._wake_lock:
            if not self._pending_wakes:
                return
            keys, self._pending_wakes = self._pending_wakes, set()
        for key in keys:
            for entry in list(self._parked.get(key, ())):
                self._probe(entry)

    def _process_deadlines(self) -> None:
        heap = self._deadlines
        now = time.monotonic()
        while heap and heap[0][0] <= now:
            _, _, entry = heapq.heappop(heap)
            if not entry.done:
                self._probe(entry, deadline=True)
