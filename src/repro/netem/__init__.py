"""Network emulation for the edge-to-cloud continuum.

The paper's geographic-distribution experiment measures the transatlantic
link between XSEDE Jetstream (US) and the LRZ cloud (Germany) at
140–160 ms round-trip latency and 60–100 Mbit/s bandwidth (iPerf). This
package models continuum links with exactly those parameters:

- :class:`LinkProfile` / :class:`Link` — latency + bandwidth + jitter +
  loss models with a deterministic RNG, producing per-transfer times,
- :class:`ContinuumTopology` — named sites connected by links, with
  route lookup used by the placement policies and the simulator.

Built-in profiles (``LOOPBACK``, ``LAN``, ``REGIONAL_WAN``,
``TRANSATLANTIC``, ``CELLULAR_EDGE``) cover the deployment scenarios the
paper discusses.
"""

from repro.netem.link import Link, LinkProfile, LOOPBACK, LAN, REGIONAL_WAN, TRANSATLANTIC, CELLULAR_EDGE
from repro.netem.topology import ContinuumTopology, Site, RouteError

__all__ = [
    "Link",
    "LinkProfile",
    "LOOPBACK",
    "LAN",
    "REGIONAL_WAN",
    "TRANSATLANTIC",
    "CELLULAR_EDGE",
    "ContinuumTopology",
    "Site",
    "RouteError",
]
