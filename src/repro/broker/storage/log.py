"""The broker's durable log: one store per partition, one flusher for all.

:class:`LogStorageManager` wires the pieces: a
:class:`~repro.broker.storage.store.SegmentStore` per partition under
``{root}/{topic}-{partition}/`` and one
:class:`~repro.broker.storage.flusher.GroupCommitFlusher` thread shared
by every store, plus the ``storage.*`` totals the broker's registry
reads.
"""

from __future__ import annotations

import os
import threading

from repro.broker.storage.flusher import GroupCommitFlusher
from repro.broker.storage.store import SegmentStore, StorageConfig
from repro.monitoring.instruments import MetricsRegistry


class LogStorageManager:
    """Per-broker registry of stores sharing one group-commit flusher.

    The broker creates one manager per ``log_dir``; every partition's
    store lives under ``{root}/{topic}-{partition}/`` and shares the
    manager's flusher thread, so the whole broker pays one flush loop.
    """

    def __init__(self, root: str, config: StorageConfig | None = None) -> None:
        self.root = root
        self.config = config or StorageConfig()
        self.flusher = GroupCommitFlusher(self.config.flush_ms)
        self.flusher.start()
        # Event-journal hook inherited by every store opened after it is
        # set (duck-typed; see SegmentStore.__init__). The owning broker
        # installs it before any topic is created, so even boot-recovery
        # stores report.
        self.journal = None
        #: Every store's histograms and this manager's totals; the
        #: owning broker adopts it as its own registry.
        self.registry = MetricsRegistry()
        self.registry.add_reader("counters", self._counter_totals, prefix="storage.")
        self.registry.add_reader("gauges", self._gauge_totals, prefix="storage.")
        self.registry.add_reader(
            "gauges", self._pending_by_partition, prefix="storage.pending_bytes."
        )
        self._stores: dict[tuple, SegmentStore] = {}
        self._lock = threading.Lock()

    def open(self, topic: str, partition: int) -> SegmentStore:
        key = (topic, int(partition))
        with self._lock:
            store = self._stores.get(key)
            if store is None:
                store = SegmentStore(
                    os.path.join(self.root, f"{topic}-{partition}"),
                    topic,
                    partition,
                    config=self.config,
                    flusher=self.flusher,
                    journal=self.journal,
                    registry=self.registry,
                )
                self._stores[key] = store
            return store

    def _store_list(self) -> list:
        with self._lock:
            return list(self._stores.values())

    def _counter_totals(self) -> dict:
        """Every store's ``counters`` field, summed."""
        totals: dict = {}
        for store in self._store_list():
            for key, value in store.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def _gauge_totals(self) -> dict:
        stores = self._store_list()
        return {
            "stores": len(stores),
            "size_bytes": sum(s.size_bytes for s in stores),
            "pending_bytes": sum(s.pending_bytes for s in stores),
        }

    def _pending_by_partition(self) -> dict:
        return {
            f"{store.topic}.{store.partition}": store.pending_bytes
            for store in self._store_list()
        }

    def stats(self) -> dict:
        """The manager's totals — what the registry reads as ``storage.*``."""
        return {**self._counter_totals(), **self._gauge_totals()}

    def close(self) -> None:
        with self._lock:
            stores = list(self._stores.values())
            self._stores.clear()
        for store in stores:
            store.close()
        self.flusher.stop()
