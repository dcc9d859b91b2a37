"""Event bus for runtime dynamism.

The paper's applications "respond to dynamism, e.g., external events,
load peaks, and resource failures, by updating their tasks' payload or
acquiring additional resources". The bus is the wiring: components emit
events, policies (like :class:`~repro.core.scaling.AutoScaler`) and
applications subscribe.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.util.ids import new_id

#: Well-known event types emitted by the framework.
LOAD_PEAK = "load.peak"
LOAD_NORMAL = "load.normal"
FUNCTION_REPLACED = "pipeline.function_replaced"
SCALED = "pipeline.scaled"


@dataclass(frozen=True)
class Event:
    """One event on the bus."""

    type: str
    payload: dict = field(default_factory=dict)
    event_id: str = field(default_factory=lambda: new_id("event"))
    timestamp: float = field(default_factory=time.monotonic)


class EventBus:
    """Synchronous publish/subscribe with type filtering.

    Handlers run on the publisher's thread (keeps ordering deterministic
    for tests); handler exceptions are isolated and counted.
    """

    def __init__(self) -> None:
        self._handlers: dict[str, list[Callable]] = {}
        self._lock = threading.Lock()
        self._history: list[Event] = []
        self.handler_errors = 0

    def subscribe(self, event_type: str, handler: Callable) -> Callable:
        """Register ``handler(event)``; returns an unsubscribe function.

        ``event_type`` of ``"*"`` receives everything.
        """
        with self._lock:
            self._handlers.setdefault(event_type, []).append(handler)

        def unsubscribe() -> None:
            with self._lock:
                handlers = self._handlers.get(event_type, [])
                if handler in handlers:
                    handlers.remove(handler)

        return unsubscribe

    def publish(self, type_: str, **payload: Any) -> Event:
        event = Event(type=type_, payload=payload)
        with self._lock:
            self._history.append(event)
            handlers = list(self._handlers.get(type_, [])) + list(
                self._handlers.get("*", [])
            )
        for handler in handlers:
            try:
                handler(event)
            except Exception:
                self.handler_errors += 1
        return event

    def history(self, type_: str | None = None) -> list[Event]:
        with self._lock:
            events = list(self._history)
        if type_ is not None:
            events = [e for e in events if e.type == type_]
        return events
