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

import numpy as np

from repro.netem.link import Link
from repro.params.server import Entry, ParameterServer


def _payload_size(value: Any) -> int:
    """Approximate wire size of a parameter value."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (list, tuple)) and value and all(
        isinstance(v, np.ndarray) for v in value
    ):
        return int(sum(v.nbytes for v in value))
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError):
        # swallowed: a value pickle cannot size (a lambda, a lock) still
        # crosses the link; it is charged a nominal size.
        return 64


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

    def get(self, key: str) -> Entry:
        entry = self._server.get(self._key(key))
        self._charge(entry.value)
        return entry

    def set(self, key: str, value: Any) -> Entry:
        self._charge(value)
        return self._server.set(self._key(key), value)

    def __repr__(self) -> str:
        link = self._link.profile.name if self._link else "local"
        return f"ParameterClient(namespace={self._namespace!r}, link={link})"
