"""Shard processes: the worker entry point and the supervisor that
spawns, watches, fails over and respawns them.

Process management only, on the real clock: the replication protocol is
:mod:`repro.broker.replicator`'s and the election rule
:func:`repro.broker.metadata.elect_leaders`, for which this module
supplies the probe and applies the result.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from multiprocessing.connection import wait as connection_wait

from repro.broker.errors import BrokerError
from repro.broker.metadata import ClusterMetadata, elect_leaders
from repro.broker.reactor import ReactorBrokerServer
from repro.broker.shard import PeerLinks, ShardBroker
from repro.monitoring.events import EventJournal
from repro.util.validation import ValidationError

#: How long a (re)spawned worker keeps retrying a bind that fails.
BIND_TIMEOUT_S = 5.0
#: How long the supervisor waits for (re)spawned workers to report bound.
START_TIMEOUT_S = 30.0


def _shard_worker_main(
    index: int,
    num_shards: int,
    host: str,
    port: int,
    topics,
    control_conn,
    opts: dict,
) -> None:
    """Entry point of one shard process (module-level: picklable).

    Two-phase startup: bind (ephemeral or respawn-pinned port), report
    the bound address on *control_conn*, then block for the full cluster
    map on the same pipe before serving — so no shard ever answers
    ``describe_cluster`` with a partial address list. Afterwards the
    control pipe carries new maps and the stop signal; EOF (parent
    gone) also stops, so an orphaned worker exits instead of lingering.

    All parent<->worker traffic rides the per-worker pipe on purpose: a
    shared multiprocessing.Queue dies with its writers — a SIGKILLed
    shard can take the queue's shared write-lock to the grave, wedging
    every later sender — while a killed worker can only ever corrupt its
    *own* pipe, and its respawn gets a fresh one.
    """
    num_workers = opts.pop("num_workers")  # the rest is the shard's own
    broker = ShardBroker(shard_index=index, num_shards=num_shards, **opts)
    # With a log_dir, create_topic opens the segment stores and runs
    # crash recovery NOW — before the cluster map arrives and replication
    # starts — so a respawned shard rejoins the ISR with its durable log
    # (offsets, records, producer dedup state) already restored from
    # disk, and the leader only streams the delta.
    for name, partitions in topics:
        broker.create_topic(name, num_partitions=partitions, exist_ok=True)
    deadline = time.monotonic() + BIND_TIMEOUT_S
    while True:
        try:
            server = ReactorBrokerServer(
                broker, host=host, port=port, num_workers=num_workers
            )
            break
        except OSError as exc:
            # A respawn can race the dying process's port; retry briefly.
            if time.monotonic() >= deadline:
                control_conn.send(("error", index, f"bind failed: {exc}"))
                return
            time.sleep(0.05)
    control_conn.send(("bound", index, server.host, server.port))
    try:
        msg = control_conn.recv()
    except (EOFError, OSError):
        return
    if msg[0] != "cluster":
        return
    broker.set_cluster(*msg[1:])
    server.start()
    broker.start_replication()
    try:
        while True:
            try:
                msg = control_conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            broker.set_cluster(*msg[1:])  # ("cluster", addresses, epoch, leaders)
    finally:
        # Drains parked long-polls (clients see EOF, not a hang) and
        # joins the reactor + worker threads before the process exits.
        broker.stop_replication()
        server.stop()
        broker.close()  # final flush + producer snapshots to disk
        try:
            control_conn.close()
        except OSError:
            pass


class ClusterBrokerSupervisor:
    """Spawns and supervises N shard processes on one host.

    Startup is two-phase: every worker binds and reports its address,
    then the supervisor broadcasts the complete map (epoch 1) and the
    workers begin serving. With ``restart=True`` a monitor thread
    first moves leadership for a dead shard's partitions onto their
    most-caught-up surviving replica (``replication_factor > 1``), then
    respawns the shard on its *original* port; both broadcast a bumped
    epoch, and clients reconnect and resume.

    ``stop()`` signals every worker over its control pipe (each worker's
    ``server.stop()`` drains parked long-polls and joins its threads),
    joins every process, and escalates terminate → kill for stragglers,
    so no orphaned processes or sockets survive it.
    """

    def __init__(
        self,
        num_shards: int = 2,
        host: str = "127.0.0.1",
        topics=None,
        restart: bool = False,
        num_workers: int = 4,
        replication_factor: int = 1,
        log_dir: str | None = None,
        storage=None,
        telemetry: bool = False,
        trace_sample: float = 1.0,
    ) -> None:
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        if not 1 <= replication_factor <= num_shards:
            raise ValidationError(
                f"replication_factor must be in [1, {num_shards}], "
                f"got {replication_factor}"
            )
        self.num_shards = int(num_shards)
        self.host = host
        self.topics = [(str(n), int(p)) for n, p in (topics or [])]
        self.restart = bool(restart)
        self.num_workers = int(num_workers)
        self.replication_factor = int(replication_factor)
        #: Root for durable shard logs; each shard gets its own subtree
        #: (``{log_dir}/shard-{index}``) that a respawn on the same index
        #: recovers from — the disk survives the SIGKILL even though the
        #: process does not. ``storage`` is an optional StorageConfig
        #: (picklable, shipped to the workers).
        self.log_dir = log_dir
        self.storage = storage
        #: Turn every shard's per-record tracer on; the shard registries
        #: and control-plane journals are always on regardless.
        self.telemetry = bool(telemetry)
        self.trace_sample = float(trace_sample)
        #: The supervisor's own control-plane journal: deaths, elections
        #: and respawns are *its* story — the shard that died cannot
        #: narrate its own funeral.
        self.events = EventJournal(origin="supervisor")
        self.epoch = 0
        #: Shards respawned by the monitor thread (chaos accounting).
        self.restarts = 0
        #: Leader elections performed after shard deaths (chaos accounting).
        self.elections = 0
        # (topic, partition) -> (leader shard, partition epoch): the
        # failover override table, empty while every hash slot is alive.
        self._leaders: dict = {}
        self._ctx = multiprocessing.get_context()
        self._procs: list = [None] * self.num_shards
        self._pipes: list = [None] * self.num_shards
        self._addresses: list = [None] * self.num_shards
        self._lock = threading.Lock()
        self._stop_lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, index: int, port: int):
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                index,
                self.num_shards,
                self.host,
                port,
                self.topics,
                child_conn,
                {
                    "num_workers": self.num_workers,
                    "replication_factor": self.replication_factor,
                    "log_dir": (
                        os.path.join(self.log_dir, f"shard-{index}")
                        if self.log_dir
                        else None
                    ),
                    "storage": self.storage,
                    "telemetry": self.telemetry,
                    "trace_sample": self.trace_sample,
                },
            ),
            name=f"broker-shard-{index}",
            daemon=True,  # orphan safety net: workers die with the parent
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _await_bound(self, expect: set, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while expect:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"shards {sorted(expect)} did not bind within {timeout:.0f}s"
                )
            pipes = {self._pipes[index]: index for index in expect}
            for pipe in connection_wait(list(pipes), timeout=remaining):
                index = pipes[pipe]
                try:
                    msg = pipe.recv()
                except (EOFError, OSError):
                    raise RuntimeError(
                        f"shard {index} exited before binding"
                    ) from None
                if msg[0] == "error":
                    raise RuntimeError(
                        f"shard {msg[1]} failed to start: {msg[2]}"
                    )
                _, _, host, port = msg
                self._addresses[index] = (host, port)
                expect.discard(index)

    def _leaders_wire(self) -> list:
        return [
            [t, p, s, e] for (t, p), (s, e) in sorted(self._leaders.items())
        ]

    def _broadcast(self, tag: str) -> None:
        payload = (tag, list(self._addresses), self.epoch, self._leaders_wire())
        for pipe in self._pipes:
            if pipe is None:
                continue
            try:
                pipe.send(payload)
            except (BrokenPipeError, OSError):
                pass  # dead shard; the monitor (if any) will respawn it

    def start(self) -> "ClusterBrokerSupervisor":
        if self._started:
            raise RuntimeError("supervisor already started")
        self._started = True
        self._stopping.clear()
        for index in range(self.num_shards):
            self._procs[index], self._pipes[index] = self._spawn(index, port=0)
        try:
            self._await_bound(set(range(self.num_shards)), START_TIMEOUT_S)
        except Exception:
            self._teardown()
            raise
        self.epoch = 1
        for index, (host, port) in enumerate(self._addresses):
            proc = self._procs[index]
            self.events.emit(
                "shard_started",
                shard=index,
                host=host,
                port=port,
                pid=proc.pid if proc is not None else None,
            )
        self._broadcast("cluster")
        if self.restart:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="cluster-monitor", daemon=True
            )
            self._monitor.start()
        return self

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(0.05):
            for index in range(self.num_shards):
                proc = self._procs[index]
                if proc is None or proc.is_alive() or self._stopping.is_set():
                    continue
                with self._lock:
                    if self._stopping.is_set():
                        return
                    proc.join(timeout=0)
                    self.events.emit(
                        "shard_died",
                        shard=index,
                        pid=proc.pid,
                        exitcode=proc.exitcode,
                    )
                    old_pipe = self._pipes[index]
                    if old_pipe is not None:
                        try:
                            old_pipe.close()
                        except OSError:
                            pass
                    # Failover before respawn: move leadership for the
                    # dead shard's partitions onto their most-caught-up
                    # surviving replica and broadcast immediately, so
                    # clients resume against the new leader while the
                    # replacement process is still starting.
                    if self.replication_factor > 1 and self._elect_leaders(index):
                        self.epoch += 1
                        self._broadcast("cluster")
                    # Same port: clients that never noticed the crash
                    # keep a valid address; ones that did simply redial.
                    _, port = self._addresses[index]
                    self._procs[index], self._pipes[index] = self._spawn(index, port)
                    try:
                        self._await_bound({index}, START_TIMEOUT_S)
                    except RuntimeError:
                        continue  # next tick tries again
                    if self._stopping.is_set():
                        # stop() raced the respawn; it owns teardown of
                        # the fresh worker — do not re-advertise it.
                        return
                    self.epoch += 1
                    self.restarts += 1
                    new_proc = self._procs[index]
                    self.events.emit(
                        "shard_respawned",
                        shard=index,
                        pid=new_proc.pid if new_proc is not None else None,
                        epoch=self.epoch,
                    )
                    # The respawned shard receives the override table in
                    # this broadcast, so it rejoins as a *follower* for
                    # any partition it used to lead and re-syncs from the
                    # elected leader (truncating divergence).
                    self._broadcast("cluster")

    def _elect_leaders(self, dead_index: int) -> bool:
        """Re-home leadership for every partition *dead_index* led
        (:func:`elect_leaders` is the rule; this probes the survivors
        and applies the result). Only partitions of supervisor-declared
        topics are governed; dynamically created topics are unreplicated.
        """
        links = PeerLinks(lambda index: self._addresses[index], connect_timeout=1.0)

        def log_end(index: int, topic: str, partition: int) -> int | None:
            if not self.is_alive(index):
                return None
            try:
                return int(links.connect(index).replica_ack(topic, partition)["log_end"])
            except (BrokerError, ConnectionError, OSError):
                return None

        try:
            moved = elect_leaders(
                self._leaders,
                self.topics,
                self.num_shards,
                self.replication_factor,
                dead_index,
                log_end,
            )
        finally:
            links.close()
        for name, partition, leader, epoch, end in moved:
            self._leaders[(name, partition)] = (leader, epoch)
            self.elections += 1
            self.events.emit(
                "leader_elected",
                topic=name,
                partition=partition,
                leader=leader,
                previous=dead_index,
                epoch=epoch,
                log_end=end,
            )
        return bool(moved)

    def stop(self) -> None:
        # Serialised against concurrent stop() calls, and hands the
        # monitor a stop signal *before* joining it so an in-flight
        # respawn finishes (or aborts) under its own lock — teardown then
        # sweeps whatever set of processes actually exists.
        with self._stop_lock:
            if not self._started:
                return
            self._started = False
            self._stopping.set()
            monitor, self._monitor = self._monitor, None
        if monitor is not None:
            # A respawn can legitimately take up to START_TIMEOUT_S inside
            # _await_bound; joining shorter than that leaks the thread.
            monitor.join(timeout=START_TIMEOUT_S + 10)
        with self._lock:
            self._teardown()

    def _teardown(self) -> None:
        for pipe in self._pipes:
            if pipe is None:
                continue
            try:
                pipe.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 10.0
        for escalate in (None, "terminate", "kill"):
            for proc in self._procs:
                if proc is None or not proc.is_alive():
                    continue
                if escalate is not None:
                    getattr(proc, escalate)()
                proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for index, proc in enumerate(self._procs):
            if proc is not None:
                proc.join(timeout=1.0)
                self._procs[index] = None
        for index, pipe in enumerate(self._pipes):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass
                self._pipes[index] = None

    def __enter__(self) -> "ClusterBrokerSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection / chaos -----------------------------------------------

    @property
    def addresses(self) -> list:
        return [addr for addr in self._addresses if addr is not None]

    @property
    def bootstrap(self) -> list:
        """Alias clients pass straight to :class:`ClusterBroker`."""
        return self.addresses

    def _metadata(self) -> ClusterMetadata:
        return ClusterMetadata(
            self.epoch,
            tuple(self.addresses),
            replication_factor=self.replication_factor,
            leaders=tuple(tuple(entry) for entry in self._leaders_wire()),
        )

    def describe_cluster(self) -> dict:
        return self._metadata().to_wire()

    def partition_leader(self, topic: str, partition: int) -> int:
        """The shard currently leading one partition (override or hash)."""
        return self._metadata().leader_index(topic, partition)

    def is_alive(self, index: int) -> bool:
        proc = self._procs[index]
        return proc is not None and proc.is_alive()

    def kill_shard(self, index: int) -> int:
        """SIGKILL one shard (chaos testing); returns the dead pid."""
        proc = self._procs[index]
        if proc is None or proc.pid is None:
            raise ValidationError(f"shard {index} is not running")
        pid = proc.pid
        os.kill(pid, signal.SIGKILL)
        proc.join(timeout=10)
        return pid

