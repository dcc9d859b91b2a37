"""Topic: a named set of partitions."""

from __future__ import annotations

from repro.broker.errors import UnknownPartitionError
from repro.broker.partition import PartitionLog
from repro.util.validation import ValidationError, check_positive


class Topic:
    """A named collection of :class:`PartitionLog` instances.

    The partition count is fixed at creation.
    """

    def __init__(
        self,
        name: str,
        num_partitions: int = 1,
        retention_bytes: int = 0,
        storage=None,
    ) -> None:
        if not name or "/" in name:
            raise ValidationError(f"invalid topic name {name!r}")
        check_positive("num_partitions", num_partitions)
        self.name = name
        # *storage* is the durable backend every partition shares (a
        # :class:`~repro.broker.storage.log.LogStorageManager`), ``None``
        # for in-memory logs.
        self._partitions = [
            PartitionLog(name, p, retention_bytes=retention_bytes, storage=storage)
            for p in range(int(num_partitions))
        ]

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    @property
    def partitions(self) -> tuple:
        return tuple(range(len(self._partitions)))

    def partition(self, index: int) -> PartitionLog:
        if not 0 <= index < len(self._partitions):
            raise UnknownPartitionError(self.name, index)
        return self._partitions[index]

    @property
    def total_appended(self) -> int:
        return sum(p.total_appended for p in self._partitions)

    @property
    def total_bytes_in(self) -> int:
        return sum(p.total_bytes_in for p in self._partitions)

    @property
    def duplicates_dropped(self) -> int:
        return sum(p.duplicates_dropped for p in self._partitions)

    @property
    def long_polls_parked(self) -> int:
        return sum(p.long_polls_parked for p in self._partitions)

    @property
    def size_bytes(self) -> int:
        return sum(p.size_bytes for p in self._partitions)

    def __repr__(self) -> str:
        return f"Topic({self.name!r}, partitions={self.num_partitions})"
