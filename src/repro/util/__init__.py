"""Shared utilities for the Pilot-Edge reproduction.

Small, dependency-free helpers used by every subsystem: identifier
generation, structured logging, argument validation and
bounded ring buffers.
"""

from repro.util.ids import new_id, new_run_id, ID_ALPHABET
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
    "ValidationError",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_type",
    "check_one_of",
    "RingBuffer",
]
