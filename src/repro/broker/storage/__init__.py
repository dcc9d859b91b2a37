"""Durable segment-backed storage for partition logs.

One component per module, each handed what it talks through:

- :mod:`~repro.broker.storage.segment` — the on-disk batch format and
  the sealed read path (mmap'd segments, decode cache);
- :mod:`~repro.broker.storage.store` — one partition's
  :class:`SegmentStore` (pending queue, active segment, roll, truncate,
  retention, CRC-truncated recovery) and its :class:`StorageConfig`;
- :mod:`~repro.broker.storage.flusher` — the :class:`GroupCommitFlusher`
  that retires every store's pending queue once per window;
- :mod:`~repro.broker.storage.log` — the broker's
  :class:`LogStorageManager`, one store per partition and one flusher.

The flusher and the store read the clock only through ``now``.
"""

from repro.broker.storage.flusher import GroupCommitFlusher
from repro.broker.storage.log import LogStorageManager
from repro.broker.storage.segment import (
    decode_batch,
    encode_batch,
    scan_batches,
    segment_filename,
)
from repro.broker.storage.store import (
    RecoveryResult,
    SegmentStore,
    StorageConfig,
    StorageError,
)

__all__ = [
    "GroupCommitFlusher",
    "LogStorageManager",
    "RecoveryResult",
    "SegmentStore",
    "StorageConfig",
    "StorageError",
    "decode_batch",
    "encode_batch",
    "scan_batches",
    "segment_filename",
]
