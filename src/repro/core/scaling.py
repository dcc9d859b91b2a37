"""Autoscaling policy.

Implements the paper's runtime-adaptation story: "if a bottleneck arises
due to increased data rates ... the allocated resources can be adapted,
i.e., expanded and scaled-down, dynamically at runtime". The
:class:`AutoScaler` watches a lag signal (records waiting in the broker
versus processing progress) and scales the consumer side of a running
pipeline within configured bounds.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.monitoring.events import EventJournal
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ScalingPolicy:
    """Bounds and thresholds for the autoscaler.

    Scale up when the total broker lag exceeds ``scale_up_lag``; scale
    down when it drops below ``scale_down_lag``. ``cooldown`` seconds
    must elapse between actions so the system can settle.
    """

    min_consumers: int = 1
    max_consumers: int = 8
    scale_up_lag: int = 32
    scale_down_lag: int = 4
    step: int = 1
    cooldown: float = 1.0

    def __post_init__(self) -> None:
        check_positive("min_consumers", self.min_consumers)
        check_positive("max_consumers", self.max_consumers)
        check_non_negative("scale_up_lag", self.scale_up_lag)
        check_non_negative("scale_down_lag", self.scale_down_lag)
        check_positive("step", self.step)
        check_non_negative("cooldown", self.cooldown)
        if self.min_consumers > self.max_consumers:
            raise ValueError("min_consumers must be <= max_consumers")
        if self.scale_down_lag >= self.scale_up_lag:
            raise ValueError("scale_down_lag must be < scale_up_lag")


class AutoScaler:
    """Polls a lag signal and adjusts consumer parallelism.

    Decoupled from the pipeline through two callables so it is unit
    testable in isolation:

    - ``lag_fn() -> int`` — current total backlog,
    - ``scale_fn(delta) -> None`` — add ``delta`` consumers (only
      positive deltas are requested from a live pipeline; scale-down is
      advisory via events since in-flight consumer tasks drain and exit
      with the run).

    Each action is one ``load_peak`` / ``load_normal`` event in
    :attr:`events`, carrying the lag it saw and the consumer count it
    set.
    """

    def __init__(
        self,
        lag_fn,
        scale_fn,
        policy: ScalingPolicy | None = None,
        interval: float = 0.2,
    ) -> None:
        check_positive("interval", interval)
        self.policy = policy or ScalingPolicy()
        self.events = EventJournal(origin="autoscaler")
        self._lag_fn = lag_fn
        self._scale_fn = scale_fn
        self._interval = float(interval)
        self._current = self.policy.min_consumers
        self._last_action = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def current_consumers(self) -> int:
        return self._current

    def evaluate(self, now: float | None = None) -> int:
        """One control step; returns the delta applied (0 when idle)."""
        now = time.monotonic() if now is None else now
        if now - self._last_action < self.policy.cooldown:
            return 0
        lag = int(self._lag_fn())
        delta = 0
        if lag >= self.policy.scale_up_lag and self._current < self.policy.max_consumers:
            delta = min(self.policy.step, self.policy.max_consumers - self._current)
            self.events.emit("load_peak", lag=lag, consumers=self._current + delta)
        elif lag <= self.policy.scale_down_lag and self._current > self.policy.min_consumers:
            delta = -min(self.policy.step, self._current - self.policy.min_consumers)
            self.events.emit("load_normal", lag=lag, consumers=self._current + delta)
        if delta > 0:
            self._scale_fn(delta)
        if delta != 0:
            self._current += delta
            self._last_action = now
        return delta

    # -- background operation ---------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("autoscaler already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self.evaluate()
            except Exception:
                pass  # scaling must never crash the pipeline

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
