"""The PilotCompute handle applications hold after submission."""

from __future__ import annotations

import threading
from collections import Counter

from repro.compute.cluster import ComputeCluster
from repro.monitoring.events import EventJournal
from repro.pilot.description import PilotDescription
from repro.pilot.states import PilotState, check_transition
from repro.util.ids import new_id


class PilotCompute:
    """Handle to one provisioned (or provisioning) pilot.

    State changes are driven by the owning service; applications observe
    them through :attr:`state`, :meth:`wait` and :meth:`on_state_change`,
    and each is one ``pilot_state`` event in :attr:`events`.
    """

    def __init__(self, description: PilotDescription) -> None:
        self.pilot_id = new_id("pilot")
        self.description = description
        self._state = PilotState.NEW
        self._state_lock = threading.RLock()
        self._state_changed = threading.Condition(self._state_lock)
        self._cluster: ComputeCluster | None = None
        self._error: str | None = None
        self._callbacks: list = []
        self._callback_errors: Counter[str] = Counter()
        self.events = EventJournal(origin=self.pilot_id)

    # -- state machine (service-facing) -------------------------------------

    def _transition(self, new_state: PilotState, error: str | None = None) -> None:
        with self._state_lock:
            check_transition(self._state, new_state)
            self._state = new_state
            if error is not None:
                self._error = error
            self.events.emit("pilot_state", state=new_state.value, site=self.site)
            callbacks = list(self._callbacks)
            self._state_changed.notify_all()
        for cb in callbacks:
            try:
                cb(self, new_state)
            except Exception as exc:  # counted, and the transition stands
                with self._state_lock:
                    self._callback_errors[type(exc).__name__] += 1

    def _attach_cluster(self, cluster: ComputeCluster) -> None:
        self._cluster = cluster

    # -- application-facing ---------------------------------------------------

    @property
    def state(self) -> PilotState:
        with self._state_lock:
            return self._state

    @property
    def error(self) -> str | None:
        return self._error

    @property
    def site(self) -> str:
        return self.description.site

    @property
    def cluster(self) -> ComputeCluster:
        """The managed compute cluster (only while RUNNING)."""
        if self.state is not PilotState.RUNNING or self._cluster is None:
            raise RuntimeError(
                f"pilot {self.pilot_id} has no active cluster (state={self.state.value})"
            )
        return self._cluster

    def wait(self, target: PilotState = PilotState.RUNNING, timeout: float | None = None) -> bool:
        """Block until the pilot reaches *target* (or any final state).

        Returns True if *target* was reached.
        """
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        with self._state_lock:
            while True:
                if self._state is target:
                    return True
                if self._state.is_final:
                    return self._state is target
                if deadline is None:
                    self._state_changed.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._state_changed.wait(remaining)

    def on_state_change(self, callback) -> None:
        """Register ``callback(pilot, new_state)`` for future transitions."""
        with self._state_lock:
            self._callbacks.append(callback)

    def cancel(self) -> None:
        """Cancel the pilot; tears down its cluster if one is running."""
        with self._state_lock:
            if self._state.is_final:
                return
            cluster = self._cluster
            self._transition(PilotState.CANCELED)
        if cluster is not None:
            cluster.close()

    def stats(self) -> dict:
        with self._state_lock:
            callback_errors = dict(self._callback_errors)
        return {
            "pilot_id": self.pilot_id,
            "state": self.state.value,
            "site": self.site,
            "resource": self.description.resource,
            "nodes": self.description.nodes,
            "cores": self.description.total_cores,
            "error": self._error,
            "callback_errors": callback_errors,
        }

    def __repr__(self) -> str:
        return f"PilotCompute({self.pilot_id}, {self.state.value}, site={self.site})"
