"""Thread-safe versioned parameter server.

Processing tasks on different pilots share model state here: the trainer
publishes new weights with :meth:`ParameterServer.set`, which bumps the
key's version, and any task reads the latest with
:meth:`ParameterServer.get` — the paper's "model updates are managed via
the parameter service".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.util.ids import new_id


class KeyNotFound(KeyError):
    """The requested key does not exist."""

    def __init__(self, key: str) -> None:
        super().__init__(key)
        self.key = key

    def __str__(self) -> str:
        return f"key {self.key!r} not found"


@dataclass(frozen=True)
class Entry:
    """A value and the version its write gave it (1 for a key's first)."""

    key: str
    value: Any
    version: int


class ParameterServer:
    """Versioned key/value store; every write bumps its key's version."""

    def __init__(self, name: str | None = None) -> None:
        self.name = name or new_id("params")
        self._entries: dict[str, Entry] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> Entry:
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            raise KeyNotFound(key)
        return entry

    def set(self, key: str, value: Any) -> Entry:
        with self._lock:
            old = self._entries.get(key)
            entry = Entry(key, value, old.version + 1 if old else 1)
            self._entries[key] = entry
        return entry

    def keys(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(k for k in self._entries if k.startswith(prefix))

    def stats(self) -> dict:
        """Name and key count (the managing pilot's ``stats()`` reads them)."""
        with self._lock:
            return {"server": self.name, "keys": len(self._entries)}

    def __repr__(self) -> str:
        return f"ParameterServer({self.name!r}, keys={len(self.keys())})"
