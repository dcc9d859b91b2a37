"""Discrete-event simulation of the edge-to-cloud pipeline.

The paper's geographic experiments run 512-message streams over a
140–160 ms / 60–100 Mbit/s transatlantic link — minutes of wall-clock
per configuration. This package replays the *same pipeline structure*
(devices -> uplink -> broker -> downlink -> consumers) in virtual time:

- :mod:`repro.sim.engine` — a general discrete-event engine (event heap,
  processes, FIFO resources),
- :mod:`repro.sim.costmodel` — per-stage compute-cost models *calibrated
  by timing the real implementations* (the ML models from
  :mod:`repro.ml`), so simulated compute costs are measurements, not
  guesses,
- :mod:`repro.sim.pipeline` — the simulated pipeline producing the same
  :class:`~repro.monitoring.report.ThroughputReport` as a live run,
- energy accounting per station (a paper future-work item) for the
  energy ablation bench.
"""

from repro.sim.engine import Simulator, SimProcessError, FifoServer
from repro.sim.costmodel import StageCostModel, calibrate_model_cost, calibrate_produce_cost
from repro.sim.pipeline import SimulatedPipeline, SimConfig, SimResult

__all__ = [
    "Simulator",
    "SimProcessError",
    "FifoServer",
    "StageCostModel",
    "calibrate_model_cost",
    "calibrate_produce_cost",
    "SimulatedPipeline",
    "SimConfig",
    "SimResult",
]
