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
nothing else). The wire form (:meth:`to_wire` / :meth:`from_wire`) is
what replication pushes to followers and what ``producer.snap`` holds.
"""

from __future__ import annotations

from collections import deque

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
        (then :meth:`commit` it), or the original ``(base_offset, count)``
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

    def commit(
        self, producer_id: int, base_sequence: int, base_offset: int, count: int
    ) -> None:
        """Record a batch :meth:`check` passed as fresh, now appended."""
        state = self._producers[producer_id]
        state.last_sequence = base_sequence + count - 1
        state.recent.append((base_sequence, base_offset, count))

    def apply(
        self, producer_id: int, epoch: int, base_sequence: int, base_offset: int,
        count: int,
    ) -> None:
        """Replay a batch that is already in the log (flush, recovery).

        Never raises: the produce path validated the batch when it was
        appended. A stale epoch or a batch the table already covers is
        skipped.
        """
        state = self._state_for(producer_id, epoch, base_sequence)
        if state is not None and base_sequence + count - 1 > state.last_sequence:
            self.commit(producer_id, base_sequence, base_offset, count)

    def truncate(self, offset: int) -> None:
        """Forget every cached batch at or above *offset* (log truncation)."""
        for state in self._producers.values():
            state.recent = deque(
                (entry for entry in state.recent if entry[1] < offset),
                maxlen=_DEDUP_WINDOW,
            )

    def to_wire(self, end_offset: int | None = None) -> dict:
        """JSON-able snapshot: ``{str(pid): {epoch, last_sequence, recent}}``.

        With *end_offset*, the snapshot vouches only for a log that ends
        there: a batch reaching past it is left out of ``recent`` and
        ``last_sequence`` stops just before it. A replica that holds
        ``[.., end_offset)`` and installs this can then never ack a
        retry at offsets it does not have — the retry of a left-out
        batch reads as fresh and is appended.
        """
        out = {}
        for pid, state in self._producers.items():
            recent = [list(entry) for entry in state.recent]
            last_sequence = state.last_sequence
            if end_offset is not None:
                for i, (seq, offset, n) in enumerate(recent):
                    if offset + n > end_offset:
                        # Sequences are gap-free, so everything the
                        # producer sent before this batch ends at seq-1.
                        last_sequence = seq - 1
                        del recent[i:]
                        break
            out[str(pid)] = {
                "epoch": state.epoch,
                "last_sequence": last_sequence,
                "recent": recent,
            }
        return out

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
