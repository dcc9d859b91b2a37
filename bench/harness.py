"""The stack the workloads run on, and the accounting around it.

:class:`Stack` brings up what a deployed run needs — the two pilots and,
unless the workload is in-process, the 2-shard rf=2 durable cluster — and
times each set-up stage. Nothing here reaches into the program: pilots,
supervisor and client are built through their public constructors, the
way ``repro.cli`` builds them.
"""

from __future__ import annotations

import bisect
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

TOPIC = "pilot-edge-data"
DEVICES = 2  # = partitions = consumers, unless a workload says otherwise; never more than cores
SHARD_PREFIX = "broker-shard-"
#: large_stream writes about 1.3 GB of segment files per pass (deleted after it).
MIN_FREE_BYTES = 3 * 1024**3


def pin_blas() -> None:
    """One BLAS thread per process; must run before numpy is imported."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def fresh_import_seconds(root: str, times: int) -> list:
    """Seconds a fresh interpreter takes to import numpy and the program,
    measured *times* times (the BLAS pins are inherited), each stated at
    the host's reference speed: the interpreter that did the import runs
    the speed loop (:class:`HostSpeed`, below) right after it, while it is
    still warm."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
            "import numpy, repro, repro.broker, repro.ml; took = time.perf_counter() - t; "
            "from bench.harness import HostSpeed; print(took / HostSpeed.now())")
    return [
        float(subprocess.run([sys.executable, "-c", code, os.path.join(root, "src"), root],
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(times)]


class Scratch:
    """A fresh directory under *base*, removed on exit."""

    def __init__(self, base: str) -> None:
        os.makedirs(base, exist_ok=True)
        free = shutil.disk_usage(base).free
        if free < MIN_FREE_BYTES:
            raise SystemExit(
                f"scratch dir {base} has {free / 1024**3:.1f} GB free; "
                f"need {MIN_FREE_BYTES / 1024**3:.0f} GB"
            )
        self.path = tempfile.mkdtemp(prefix="run-", dir=base)

    def fresh(self, name: str) -> str:
        return tempfile.mkdtemp(prefix=f"{name}-", dir=self.path)

    def __enter__(self) -> "Scratch":
        return self

    def discard(self, path: str | None) -> None:
        """Delete a pass's log dir and wait for the filesystem to settle.

        Without the sync, freeing a gigabyte of segment files (journal
        commit, discards on a ``discard`` mount) runs into the next pass
        and slows it by a fifth; keeping the files instead fills the page
        cache and slows every later pass by a third.
        """
        if path is not None:
            shutil.rmtree(path, ignore_errors=True)
            os.sync()

    def __exit__(self, *exc) -> None:
        self.discard(self.path)


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding *path* (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _, mount, kind = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child already reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class HostSpeed:
    """How fast the host is while a workload runs.

    This VM's processor changes speed by a fifth and more, for seconds or
    for minutes at a time, with the CPU time moving along with the wall
    time (a busy neighbour on the same core, not stolen time), so the rate
    of any workload the processor bounds wanders by as much, whatever the
    program does. A fixed pure-Python loop wanders with it. The thread that
    does the work runs the loop just before it takes its next piece (at
    most every ``EVERY_S``; a hundredth of its time or two) and times it on
    its own CPU clock, so that neither a wait for the interpreter lock nor
    a preemption counts. ``factor`` is what a rate measured over an
    interval is multiplied by, and a time divided by, to read as it would
    on a host at the reference speed. Only a thread that has been busy can
    be sampled: a loop run after a pause measures the processor waking up
    (back-to-back samples in an idle process read 0.9 to 1.9).
    """

    ITERATIONS = 60_000
    #: The loop's CPU time on this box when nothing disturbs it. It only
    #: fixes the scale: every run on one box is scaled by the same number.
    REFERENCE_S = 1.4e-3
    EVERY_S = 0.1

    def __init__(self) -> None:
        self.samples: dict = {}  # thread -> ([wall time], [loop CPU seconds])
        self._next: dict = {}

    @classmethod
    def loop_seconds(cls) -> float:
        start = time.thread_time()
        x = 0
        for i in range(cls.ITERATIONS):
            x += i
        return time.thread_time() - start

    @classmethod
    def now(cls) -> float:
        """The factor right now, for a thread that has just been busy."""
        return statistics.median(cls.loop_seconds() for _ in range(5)) / cls.REFERENCE_S

    def sample(self) -> None:
        """Called by a working thread between two pieces of work."""
        thread, now = threading.get_ident(), time.perf_counter()
        if now < self._next.get(thread, 0.0):
            return
        self._next[thread] = now + self.EVERY_S
        times, loops = self.samples.setdefault(thread, ([], []))
        times.append(now)
        loops.append(self.loop_seconds())

    def factor(self, start: float, end: float) -> float:
        """Median loop time over ``[start, end]``, all threads together (a
        thread gives its last sample before the interval if none fell
        inside), over the reference; 1.0 where nothing was sampled."""
        inside = []
        for times, loops in self.samples.values():
            lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
            inside += loops[lo:hi] or [loops[max(0, lo - 1)]]
        return statistics.median(inside) / self.REFERENCE_S if inside else 1.0


def client_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def live_shards() -> list:
    return [p for p in multiprocessing.active_children() if p.name.startswith(SHARD_PREFIX)]


def shard_peak_rss_mb() -> float:
    """Largest peak resident set (VmHWM) among the live shard processes, in MB."""
    peak = 0.0
    for proc in live_shards():
        try:
            with open(f"/proc/{proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            pass  # the shard exited between the listing and the read
    return peak


class Stack:
    """Pilots plus, when *deployed*, the sharded durable cluster.

    ``timings`` collects ``pilot.acquire``, ``cluster.start`` and
    ``cluster.stop`` in seconds, ``shard_peak_rss_mb`` the largest shard's
    peak memory, read just before the shards are stopped. ``restart()``
    stops the cluster and starts it again on the same ``log_dir``
    (crash-free recovery).
    """

    def __init__(self, log_dir: str | None, deployed: bool = True, telemetry: bool = False,
                 devices: int = DEVICES):
        self.log_dir = log_dir
        self.deployed = deployed
        self.telemetry = telemetry
        self.devices = devices
        self.timings: dict[str, float] = {}
        self.shard_peak_rss_mb = 0.0
        self.service = None
        self.edge = self.cloud = None
        self.supervisor = None
        self.broker = None

    def start(self) -> "Stack":
        from repro import PilotComputeService, PilotDescription, ResourceSpec
        from repro.pilot.plugins.ssh_edge import SshEdgePlugin

        t0 = time.perf_counter()
        self.service = PilotComputeService(time_scale=0.0)
        self.service.register_plugin("ssh", SshEdgePlugin(devices=8))
        self.edge = self.service.submit_pilot(
            PilotDescription(resource="ssh", site="edge", nodes=self.devices,
                             node_spec=ResourceSpec(cores=1, memory_gb=4)))
        self.cloud = self.service.submit_pilot(
            PilotDescription(resource="cloud", site="cloud", instance_type="lrz.large"))
        if not self.service.wait_all(timeout=60):
            raise RuntimeError("pilot acquisition failed")
        self.timings["pilot.acquire"] = time.perf_counter() - t0
        self._start_broker()
        return self

    def _start_broker(self) -> None:
        t0 = time.perf_counter()
        if self.deployed:
            from repro.broker import ClusterBroker, ClusterBrokerSupervisor

            self.supervisor = ClusterBrokerSupervisor(
                num_shards=2, replication_factor=2, log_dir=self.log_dir,
                topics=[(TOPIC, self.devices)], telemetry=self.telemetry,
            ).start()
            self.broker = ClusterBroker(self.supervisor.bootstrap)
        else:
            from repro.broker import Broker

            self.broker = Broker()
        self.broker.create_topic(TOPIC, num_partitions=self.devices, exist_ok=True)
        self.timings["cluster.start"] = time.perf_counter() - t0

    def _stop_broker(self) -> None:
        self.shard_peak_rss_mb = max(self.shard_peak_rss_mb, shard_peak_rss_mb())
        t0 = time.perf_counter()
        if self.broker is not None:
            self.broker.close()
            self.broker = None
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        self.timings["cluster.stop"] = time.perf_counter() - t0
        left = [p.name for p in live_shards()]
        if left:
            raise RuntimeError(f"shard processes survived stop(): {left}")

    def restart(self) -> None:
        self._stop_broker()
        self._start_broker()

    def stop(self) -> None:
        try:
            self._stop_broker()
        finally:
            if self.service is not None:
                self.service.close()
                self.service = None

    def __enter__(self) -> "Stack":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
