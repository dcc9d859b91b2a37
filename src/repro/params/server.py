"""Thread-safe parameter server with watch support.

Processing tasks on different pilots share model state here: the trainer
publishes new weights (bumping the version) and inference tasks either
poll :meth:`get` or block in :meth:`watch` until a newer version lands —
the paper's "model updates are managed via the parameter service".
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Any, Callable

from repro.params.store import CasConflict, Entry, KeyNotFound, VersionedStore
from repro.util.ids import new_id


class ParameterServer:
    """Versioned KV store with blocking watches and update callbacks."""

    def __init__(self, name: str | None = None) -> None:
        self.name = name or new_id("params")
        self._store = VersionedStore()
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._subscribers: dict[str, list[Callable]] = {}
        self._callback_errors: Counter[str] = Counter()

    # -- basic KV ------------------------------------------------------------

    def get(self, key: str) -> Entry:
        with self._lock:
            return self._store.get(key)

    def get_value(self, key: str, default: Any = None) -> Any:
        try:
            return self.get(key).value
        except KeyNotFound:
            return default

    def set(self, key: str, value: Any, ttl: float | None = None) -> Entry:
        with self._lock:
            entry = self._store.set(key, value, ttl=ttl)
            subscribers = list(self._subscribers.get(key, []))
            self._changed.notify_all()
        self._notify(subscribers, entry)
        return entry

    def compare_and_set(
        self, key: str, value: Any, expected_version: int, ttl: float | None = None
    ) -> Entry:
        with self._lock:
            entry = self._store.compare_and_set(key, value, expected_version, ttl=ttl)
            subscribers = list(self._subscribers.get(key, []))
            self._changed.notify_all()
        self._notify(subscribers, entry)
        return entry

    def _notify(self, subscribers: list[Callable], entry: Entry) -> None:
        """Call each subscriber; one that raises is counted by exception
        type in ``stats()["callback_errors"]`` and poisons neither the
        writer nor the other subscribers."""
        for callback in subscribers:
            try:
                callback(entry)
            except Exception as exc:
                with self._lock:
                    self._callback_errors[type(exc).__name__] += 1

    def delete(self, key: str) -> bool:
        with self._lock:
            removed = self._store.delete(key)
            if removed:
                self._changed.notify_all()
            return removed

    def contains(self, key: str) -> bool:
        with self._lock:
            return self._store.contains(key)

    def keys(self, prefix: str = "") -> list[str]:
        with self._lock:
            return self._store.keys(prefix)

    # -- change notification ----------------------------------------------------

    def watch(
        self, key: str, after_version: int = 0, timeout: float | None = None
    ) -> Entry | None:
        """Block until *key* has a version greater than *after_version*.

        Returns the entry, or ``None`` on timeout.
        """
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if self._store.contains(key):
                    entry = self._store.get(key)
                    if entry.version > after_version:
                        return entry
                if deadline is None:
                    self._changed.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._changed.wait(remaining)

    def subscribe(self, key: str, callback: Callable) -> Callable:
        """Invoke *callback(entry)* on every write to *key*.

        Returns an unsubscribe function.
        """
        with self._lock:
            self._subscribers.setdefault(key, []).append(callback)

        def unsubscribe() -> None:
            with self._lock:
                callbacks = self._subscribers.get(key, [])
                if callback in callbacks:
                    callbacks.remove(callback)

        return unsubscribe

    # -- monitoring ---------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "server": self.name,
                "keys": len(self._store),
                "total_sets": self._store.total_sets,
                "total_gets": self._store.total_gets,
                "callback_errors": dict(self._callback_errors),
            }

    def __repr__(self) -> str:
        return f"ParameterServer({self.name!r}, keys={len(self.keys())})"
