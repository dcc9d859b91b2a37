"""The idempotent-producer state table of one partition.

One table maps ``producer_id`` to the producer's epoch, the highest
sequence number appended, and a sliding window of recently appended
batches, so a retried (replayed) batch is acknowledged with its
*original* offsets instead of being appended twice.

Two owners keep an instance each and both speak only this class:
:class:`~repro.broker.partition.PartitionLog` (fed on every append — it
answers the produce path) and
:class:`~repro.broker.storage.store.SegmentStore` (fed at flush time only,
so the snapshot it writes next to the segments covers flushed data and
nothing else). Only batches feed either table, on a follower too: a
replication push names its batches (:meth:`batches`), never ships a
table, and a truncation cuts the table with the log. The wire form
(:meth:`to_wire` / :meth:`from_wire`) is what ``producer.snap`` holds.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import itemgetter

from repro.broker.errors import OutOfOrderSequenceError, ProducerFencedError

#: Recent-batch window per producer (Kafka caches the last 5 batches):
#: a retried batch older than this window is a protocol violation.
_DEDUP_WINDOW = 5


class _ProducerState:
    __slots__ = ("epoch", "last_sequence", "recent")

    def __init__(self, epoch: int, last_sequence: int = -1, recent=()) -> None:
        self.epoch = epoch
        self.last_sequence = last_sequence
        #: (base_sequence, base_offset, count) per batch, newest last.
        self.recent: deque[tuple[int, int, int]] = deque(recent, maxlen=_DEDUP_WINDOW)


class ProducerStateTable:
    """Per-partition idempotence bookkeeping (not thread-safe: the owner's
    lock guards it)."""

    __slots__ = ("_producers",)

    def __init__(self) -> None:
        self._producers: dict[int, _ProducerState] = {}

    def _state_for(
        self, producer_id: int, epoch: int, base_sequence: int
    ) -> _ProducerState | None:
        """The producer's state at *epoch*; ``None`` when *epoch* is stale.

        First contact (or a new epoch) accepts the producer's starting
        sequence as the baseline.
        """
        state = self._producers.get(producer_id)
        if state is None or epoch > state.epoch:
            state = _ProducerState(epoch, base_sequence - 1)
            self._producers[producer_id] = state
        elif epoch < state.epoch:
            return None
        return state

    def check(
        self, producer_id: int, epoch: int, base_sequence: int, count: int
    ) -> tuple[int, int] | None:
        """Validate an idempotent batch's sequence before it is appended.

        Returns ``None`` when the batch is fresh and should be appended
        (then :meth:`apply` it), or the original ``(base_offset, count)``
        when it is a replay of an already-appended batch (the caller acks
        it without re-appending). Raises :class:`ProducerFencedError` on
        a stale epoch and :class:`OutOfOrderSequenceError` on sequence
        gaps or replays older than the dedup window.
        """
        state = self._state_for(producer_id, epoch, base_sequence)
        if state is None:
            raise ProducerFencedError(
                producer_id, epoch, self._producers[producer_id].epoch
            )
        expected = state.last_sequence + 1
        if base_sequence == expected:
            return None
        if base_sequence + count - 1 <= state.last_sequence:
            for seq, offset, n in state.recent:
                if seq == base_sequence and n == count:
                    return offset, n
            # Replay from beyond the dedup window (or with a different
            # batch boundary): we cannot prove it duplicate-free.
        raise OutOfOrderSequenceError(producer_id, expected, base_sequence)

    def apply(
        self, producer_id: int, epoch: int, base_sequence: int, base_offset: int,
        count: int,
    ) -> None:
        """Record a batch that is in the log: appended after :meth:`check`
        passed it as fresh, installed from a leader, flushed or recovered.

        Never raises: the produce path validated the batch when it was
        appended. A stale epoch or a batch the table already covers is
        skipped.
        """
        state = self._state_for(producer_id, epoch, base_sequence)
        if state is not None and base_sequence + count - 1 > state.last_sequence:
            state.last_sequence = base_sequence + count - 1
            state.recent.append((base_sequence, base_offset, count))

    def truncate(self, offset: int) -> None:
        """Cut the table with a log that now ends at *offset*.

        Every cached batch reaching to or past *offset* goes, and the
        producer's ``last_sequence`` rewinds to just before the first of
        them (sequences are gap-free): the retry of a cut batch reads as
        fresh and is appended, never acked at offsets the log lost.
        """
        for state in self._producers.values():
            for i, (seq, base, n) in enumerate(state.recent):
                if base + n > offset:
                    state.last_sequence = seq - 1
                    state.recent = deque(islice(state.recent, i), maxlen=_DEDUP_WINDOW)
                    break

    def batches(self, start: int, end: int) -> list[tuple]:
        """Identities ``(producer_id, epoch, base_sequence, base_offset,
        count)`` of the cached batches overlapping ``[start, end)``, in
        offset order: what a replication push names of its records."""
        found = [
            (pid, state.epoch, seq, base, n)
            for pid, state in self._producers.items()
            for seq, base, n in state.recent
            if base < end and base + n > start
        ]
        found.sort(key=itemgetter(3))
        return found

    def to_wire(self) -> dict:
        """JSON-able snapshot: ``{str(pid): {epoch, last_sequence, recent}}``."""
        return {
            str(pid): {
                "epoch": state.epoch,
                "last_sequence": state.last_sequence,
                "recent": [list(entry) for entry in state.recent],
            }
            for pid, state in self._producers.items()
        }

    def install(self, snapshot: dict) -> None:
        """Replace the state of every producer named in a wire *snapshot*."""
        for pid_str, data in snapshot.items():
            self._producers[int(pid_str)] = _ProducerState(
                int(data["epoch"]),
                int(data["last_sequence"]),
                ((int(seq), int(offset), int(n)) for seq, offset, n in data.get("recent", ())),
            )

    @classmethod
    def from_wire(cls, snapshot: dict) -> "ProducerStateTable":
        table = cls()
        table.install(snapshot)
        return table
