"""Output checking and failure accounting.

The benchmark stamps ``(device, seq)`` into every block it hands the
program and records what reaches ``process_cloud`` (or, on the replay
workload, what a consumer decodes). :meth:`Ledger.verify` then counts
every message that was lost, delivered twice, delivered out of
per-partition order, delivered with a different payload, scored
differently from a single-threaded reference replay, or finished after
its deadline. A failed message is counted, never dropped from the
denominator: ``failed / attempted`` is the run's failed share.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

#: Result fields compared against the reference replay.
ML_FIELDS = ("points", "outliers", "max_score")

#: ``seq`` is stored as ``seq / SEQ_SCALE`` so the stamp stays inside the
#: data's value range (the models see it as one ordinary coordinate); a
#: power of two keeps the division exact.
SEQ_SCALE = 1024.0


def stamp_block(block: np.ndarray, device: int, seq: int) -> np.ndarray:
    """Write ``(device, seq)`` into ``block[0, 0:2]`` in place."""
    block[0, 0] = device
    block[0, 1] = seq / SEQ_SCALE
    return block


def read_stamp(block: np.ndarray) -> tuple[int, int] | None:
    """The ``(device, seq)`` a block carries, or None if it is not a stamp."""
    device, seq = float(block[0, 0]), float(block[0, 1]) * SEQ_SCALE
    if device != int(device) or seq != int(seq) or device < 0 or seq < 0:
        return None
    return int(device), int(seq)


def payload_checksum(block: np.ndarray) -> int:
    """XOR of the payload's 64-bit words: one cheap pass on the consumer's
    thread that shows any flipped bit and any other block of the pool. It
    is not positional (swapped words cancel); the transport is covered by
    the frame CRC32 the program itself verifies."""
    words = np.ascontiguousarray(block).view(np.uint64)
    return int(np.bitwise_xor.reduce(words, axis=None))


def stamped_checksum(unstamped: int, device: int, seq: int) -> int:
    """Checksum of a pool block after stamping, given its checksum with
    both stamp slots zero (XOR composes, so no second pass is needed)."""
    stamp = np.array([device, seq / SEQ_SCALE], dtype=np.float64).view(np.uint64)
    return unstamped ^ int(stamp[0]) ^ int(stamp[1])


@dataclass
class Verdict:
    attempted: int
    failed: int
    kinds: dict = field(default_factory=dict)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Ledger:
    """What one pass produced and what came out the other end.

    *expected* maps device -> number of messages it sends (seq runs from
    0); *checksum(device, seq)* gives the payload checksum that message
    must arrive with.
    """

    def __init__(self, expected: dict[int, int], checksum, deadline_s: float | None = None):
        self.expected = dict(expected)
        self._checksum = checksum
        self.deadline_s = deadline_s
        self.due: dict[tuple, float] = {}
        #: (device, seq, checksum, done_time, worker, result) in arrival order;
        #: appended from consumer threads (``list.append`` is atomic).
        self.arrivals: list[tuple] = []
        self.unreadable = 0

    def produced(self, device: int, seq: int, due: float) -> None:
        self.due[(device, seq)] = due

    def arrived(self, block: np.ndarray, done: float, worker, result=None) -> None:
        stamp = read_stamp(block)
        if stamp is None:
            self.unreadable += 1
            return
        self.arrivals.append((*stamp, payload_checksum(block), done, worker, result))

    def latencies(self) -> list[float]:
        """Due time -> completion, one sample per message that arrived."""
        return [
            done - self.due[(device, seq)]
            for device, seq, _, done, _, _ in self.arrivals
            if (device, seq) in self.due
        ]

    def verify(self, reference: dict | None = None, errors=(), one_worker_per_device=False) -> Verdict:
        """Count failed messages; *reference* maps (device, seq) -> the
        result a single-threaded replay of that partition gave."""
        kinds: Counter = Counter()
        bad: set = set()
        seen: Counter = Counter()
        last_seq: dict[int, int] = {}
        workers: dict[int, object] = {}
        unknown = self.unreadable
        for device, seq, checksum, done, worker, result in self.arrivals:
            key = (device, seq)
            if seq >= self.expected.get(device, 0):
                unknown += 1
                continue
            seen[key] += 1
            if seen[key] > 1:
                kinds["duplicated"] += 1
                bad.add(key)
                continue
            if seq < last_seq.get(device, -1):
                kinds["out_of_order"] += 1
                bad.add(key)
            last_seq[device] = max(seq, last_seq.get(device, -1))
            if checksum != self._checksum(device, seq):
                kinds["payload_mismatch"] += 1
                bad.add(key)
            if one_worker_per_device and workers.setdefault(device, worker) != worker:
                kinds["worker_moved"] += 1
                bad.add(key)
            if reference is not None and key in reference and not _same_result(result, reference[key]):
                kinds["wrong_result"] += 1
                bad.add(key)
            due = self.due.get(key)
            if self.deadline_s is not None and due is not None and done - due > self.deadline_s:
                kinds["missed_deadline"] += 1
                bad.add(key)
        if one_worker_per_device and len(set(workers.values())) < len(workers):
            kinds["worker_shared"] += 1
        for device, count in self.expected.items():
            for seq in range(count):
                if (device, seq) not in seen:
                    kinds["lost"] += 1
                    bad.add((device, seq))
        if unknown:
            kinds["unknown"] = unknown
        if errors:
            kinds["pipeline_error"] = len(errors)
        attempted = sum(self.expected.values())
        failed = len(bad) + unknown + len(errors) + kinds.get("worker_shared", 0)
        return Verdict(attempted, min(attempted, failed), dict(kinds))


def _same_result(got, want) -> bool:
    if not isinstance(got, dict):
        return False
    for name in ML_FIELDS:
        a, b = got.get(name), want.get(name)
        if isinstance(b, float):
            if a is None or abs(a - b) > 1e-9 * max(1.0, abs(b)):
                return False
        elif a != b:
            return False
    return True


def merge(verdicts) -> Verdict:
    """Sum the verdicts of several passes."""
    kinds: Counter = Counter()
    attempted = failed = 0
    for v in verdicts:
        attempted += v.attempted
        failed += v.failed
        kinds.update(v.kinds)
    return Verdict(attempted, failed, dict(kinds))
