"""Parameter-server client handle.

Tasks running on remote pilots do not talk to the server object directly;
they hold a :class:`ParameterClient` that (optionally) charges every
get/set against a :class:`~repro.netem.link.Link`, so sharing an
11,552-parameter auto-encoder across the transatlantic link costs what it
would in the paper's deployment.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.netem.link import Link
from repro.params.server import ParameterServer
from repro.params.store import Entry


def _payload_size(value: Any) -> int:
    """Approximate wire size of a parameter value."""
    try:
        import numpy as np

        if isinstance(value, np.ndarray):
            return int(value.nbytes)
        if isinstance(value, (list, tuple)) and value and all(
            isinstance(v, np.ndarray) for v in value
        ):
            return int(sum(v.nbytes for v in value))
    except ImportError:  # pragma: no cover — numpy is a hard dependency
        pass
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64  # unpicklable sentinel objects: charge a nominal size


class ParameterClient:
    """Client-side view of a :class:`ParameterServer`.

    Parameters
    ----------
    server:
        The shared server instance.
    link:
        Optional network link this client's traffic crosses; every
        operation pays one transfer of the (approximate) payload size.
    namespace:
        Key prefix isolating one pipeline's state from another's.
    """

    def __init__(
        self,
        server: ParameterServer,
        link: Link | None = None,
        namespace: str = "",
    ) -> None:
        self._server = server
        self._link = link
        self._namespace = namespace
        self.network_seconds = 0.0

    def _key(self, key: str) -> str:
        return f"{self._namespace}/{key}" if self._namespace else key

    def _charge(self, value: Any) -> None:
        if self._link is not None:
            self.network_seconds += self._link.transfer(_payload_size(value))

    # -- operations ---------------------------------------------------------

    def get(self, key: str) -> Entry:
        entry = self._server.get(self._key(key))
        self._charge(entry.value)
        return entry

    def get_value(self, key: str, default: Any = None) -> Any:
        value = self._server.get_value(self._key(key), default)
        self._charge(value)
        return value

    def set(self, key: str, value: Any, ttl: float | None = None) -> Entry:
        self._charge(value)
        return self._server.set(self._key(key), value, ttl=ttl)

    def compare_and_set(self, key: str, value: Any, expected_version: int) -> Entry:
        self._charge(value)
        return self._server.compare_and_set(self._key(key), value, expected_version)

    def delete(self, key: str) -> bool:
        return self._server.delete(self._key(key))

    def contains(self, key: str) -> bool:
        return self._server.contains(self._key(key))

    def watch(self, key: str, after_version: int = 0, timeout: float | None = None):
        entry = self._server.watch(self._key(key), after_version, timeout)
        if entry is not None:
            self._charge(entry.value)
        return entry

    def keys(self) -> list[str]:
        prefix = f"{self._namespace}/" if self._namespace else ""
        raw = self._server.keys(prefix)
        return [k[len(prefix):] for k in raw]

    def __repr__(self) -> str:
        link = self._link.profile.name if self._link else "local"
        return f"ParameterClient(namespace={self._namespace!r}, link={link})"
