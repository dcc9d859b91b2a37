"""Group commit: one thread amortizing ``write`` + ``fsync`` across stores.

The protocol only — no clock of its own and no thread body beyond
``wake.wait(step())``. :class:`GroupCommitFlusher` is handed ``now`` (a
``() -> float``, the monotonic clock in production); a test passes a
fake clock, never calls ``start()``, and calls ``step()`` by hand.
"""

from __future__ import annotations

import threading
from time import monotonic

from repro.broker.storage.store import StorageError
from repro.util.validation import check_positive


class GroupCommitFlusher:
    """Flushes each dirty store once per group-commit window.

    Stores enqueue themselves via :meth:`request`. The first request
    after a flush opens a window that closes ``flush_ms`` later, however
    many requests land in between — none of them wakes the thread; only
    an *urgent* request or :meth:`stop` closes it sooner. One flusher
    serves every partition of a broker, so a broker-wide burst costs one
    fsync per partition per window regardless of producer count.
    """

    def __init__(self, flush_ms: float = 50.0, now=monotonic) -> None:
        check_positive("flush_ms", flush_ms)
        self._interval = flush_ms / 1000.0
        self._now = now
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._dirty: set = set()
        self._urgent = False
        #: now() at which the open window closes.
        self._due = 0.0
        self._stopping = False
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="log-flusher", daemon=True
        )
        self._thread.start()

    def request(self, store, urgent: bool = False) -> None:
        """Mark *store* dirty; *urgent* skips the group-commit window."""
        with self._lock:
            if self._stopping:
                raise StorageError("flusher is stopped")
            opening = not self._dirty
            self._dirty.add(store)
            if opening:
                self._due = self._now() + self._interval
            self._urgent = self._urgent or urgent
        if opening or urgent:  # else the window is open: nobody to wake
            self._wake.set()

    def _run(self) -> None:
        while not self._stopping:
            self._wake.wait(self.step())

    def step(self) -> float | None:
        """Flush every dirty store if the window is due (its deadline
        passed, an urgent request, or :meth:`stop`). Returns the seconds
        until the open window is due, ``None`` when none is open."""
        # Clear before looking: a request racing this step either lands
        # in the set drained below or re-sets the event.
        self._wake.clear()
        with self._lock:
            if not self._dirty:
                return None
            remaining = self._due - self._now()
            if remaining > 0 and not (self._urgent or self._stopping):
                return remaining
            stores, self._dirty = self._dirty, set()
            self._urgent = False
        for store in stores:
            try:
                store.flush()
            except StorageError:
                # The store marked itself failed; waiters see it.
                store.counters["flush_errors"] += 1
        return None

    def stop(self) -> None:
        """End the open window at once: flush it, and refuse requests."""
        with self._lock:
            self._stopping = True
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.step()
