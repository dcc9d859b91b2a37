"""Shared utilities for the Pilot-Edge reproduction.

Small, dependency-free helpers used by every subsystem: identifier
generation, monotonic timing, structured logging, argument validation and
bounded ring buffers.
"""

from repro.util.ids import new_id, new_run_id, ID_ALPHABET
from repro.util.timing import Stopwatch, Timer, monotonic_ms
from repro.util.validation import (
    ValidationError,
    check_positive,
    check_non_negative,
    check_in_range,
    check_type,
    check_one_of,
)
from repro.util.ringbuffer import RingBuffer

__all__ = [
    "new_id",
    "new_run_id",
    "ID_ALPHABET",
    "Stopwatch",
    "Timer",
    "monotonic_ms",
    "ValidationError",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_type",
    "check_one_of",
    "RingBuffer",
]
