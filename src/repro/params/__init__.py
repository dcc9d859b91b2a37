"""Shared-state / parameter-server substrate (Redis-equivalent).

The paper shares ML model weights across the continuum through "a
Redis-based parameter server". This package provides the part of it the
pipeline uses:

- :class:`ParameterServer` — a thread-safe versioned key/value store:
  ``set`` bumps the key's version, ``get`` returns the latest
  :class:`Entry` (``KeyNotFound`` when there is none), ``keys`` lists
  them,
- :class:`ParameterClient` — the client handle given to pipeline tasks;
  it namespaces its keys and can be bound to a :mod:`repro.netem` link so
  cross-continuum parameter traffic pays realistic latency/bandwidth
  costs.
"""

from repro.params.server import Entry, KeyNotFound, ParameterServer
from repro.params.client import ParameterClient

__all__ = [
    "Entry",
    "KeyNotFound",
    "ParameterServer",
    "ParameterClient",
]
