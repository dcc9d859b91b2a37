"""Failure accounting: every kind of bad delivery is counted, none shortens the run."""

import numpy as np
import pytest

from bench.check import Ledger, payload_checksum, read_stamp, stamp_block, stamped_checksum
from bench.harness import Scratch
from bench.workloads import Pool, Workload, run_pipeline_pass

TINY = Workload("tiny", "fault self-test", points=25, pool_blocks=8, deployed=False)


def block(device, seq, data_seed=0):
    return stamp_block(np.random.default_rng(data_seed).normal(size=(4, 32)), device, seq)


def checksum(device, seq):
    return payload_checksum(block(device, seq))


def ledger_with(arrivals, expected=3, deadline=None):
    ledger = Ledger({0: expected}, checksum, deadline_s=deadline)
    for seq in range(expected):
        ledger.produced(0, seq, due=float(seq))
    for seq, data, done in arrivals:
        ledger.arrived(data if data is not None else block(0, seq), done, worker="w")
    return ledger


def test_stamp_round_trip_and_composed_checksum():
    data = np.random.default_rng(1).normal(size=(25, 32))
    data[0, 0:2] = 0.0
    unstamped = payload_checksum(data)
    stamp_block(data, 1, 4097)
    assert read_stamp(data) == (1, 4097)
    assert payload_checksum(data) == stamped_checksum(unstamped, 1, 4097)
    data[7, 3] = np.nextafter(data[7, 3], 1.0)  # one flipped bit
    assert payload_checksum(data) != stamped_checksum(unstamped, 1, 4097)
    assert read_stamp(np.full((2, 2), 0.25)) is None


def test_clean_run_has_no_failures():
    verdict = ledger_with([(0, None, 0.1), (1, None, 1.1), (2, None, 2.1)]).verify()
    assert (verdict.attempted, verdict.failed, verdict.kinds) == (3, 0, {})


@pytest.mark.parametrize("arrivals, kind", [
    ([(0, None, 0.1), (2, None, 2.1)], "lost"),
    ([(0, None, 0.1), (1, None, 1.1), (1, None, 1.2), (2, None, 2.1)], "duplicated"),
    ([(0, None, 0.1), (2, None, 2.1), (1, None, 2.2)], "out_of_order"),
    ([(0, None, 0.1), (1, block(0, 1, data_seed=9), 1.1), (2, None, 2.1)], "payload_mismatch"),
    ([(0, None, 0.1), (1, None, 1.1), (2, None, 2.1), (7, None, 2.2)], "unknown"),
])
def test_each_bad_delivery_is_counted_once(arrivals, kind):
    verdict = ledger_with(arrivals).verify()
    assert verdict.attempted == 3
    assert verdict.failed == 1
    assert verdict.kinds == {kind: 1}


def test_deadline_result_and_pipeline_errors():
    ledger = ledger_with([(0, None, 0.1), (1, None, 1.9), (2, None, 2.1)], deadline=0.5)
    assert ledger.verify().kinds == {"missed_deadline": 1}
    ledger = Ledger({0: 2}, checksum)
    ledger.arrived(block(0, 0), 0.0, "w", {"points": 4, "outliers": 1, "max_score": 2.0})
    ledger.arrived(block(0, 1), 0.0, "w", {"points": 4, "outliers": 0, "max_score": 2.5})
    reference = {(0, 0): {"points": 4, "outliers": 1, "max_score": 2.0},
                 (0, 1): {"points": 4, "outliers": 1, "max_score": 2.5}}
    assert ledger.verify(reference=reference).kinds == {"wrong_result": 1}
    assert ledger.verify(errors=["boom"]).failed == 1


def test_models_must_stay_on_one_worker_per_partition():
    ledger = Ledger({0: 2, 1: 1}, checksum)
    ledger.arrived(block(0, 0), 0.0, "a")
    ledger.arrived(block(0, 1), 0.0, "b")
    ledger.arrived(block(1, 0), 0.0, "a")
    kinds = ledger.verify(one_worker_per_device=True).kinds
    assert kinds["worker_moved"] == 1 and kinds["worker_shared"] == 1


# -- a faulty broker under the real pipeline ------------------------------------


class FaultyFetch:
    """Broker proxy that mistreats the record at partition 0, offset 3."""

    TARGET = (0, 3)

    def __init__(self, broker, fault):
        self._broker = broker
        self._fault = fault

    def __getattr__(self, name):
        return getattr(self._broker, name)

    def fetch(self, topic, partition, offset, **kwargs):
        from repro.broker import Record
        from repro.data.serde import decode_block, encode_block

        target = (partition, offset) == self.TARGET
        if target and self._fault == "drop":
            offset += 1
        out = []
        for record in self._broker.fetch(topic, partition, offset, **kwargs):
            if (record.partition, record.offset) != self.TARGET:
                out.append(record)
            elif self._fault == "duplicate":
                twin = Record(record.topic, record.partition, record.offset, record.value,
                              headers={**record.headers, "message_id": "twin/d0/m9999"})
                out += [record, twin]
            elif self._fault == "corrupt":
                data = decode_block(record.value, copy=True)
                data[5, 5] += 1.0  # a valid frame around the wrong payload
                out.append(Record(record.topic, record.partition, record.offset,
                                  encode_block(data), headers=record.headers))
        return out


@pytest.mark.parametrize("fault, kind", [
    ("drop", "lost"), ("duplicate", "duplicated"), ("corrupt", "payload_mismatch")])
def test_faulty_broker_is_counted_not_hidden(tmp_path, fault, kind):
    pool = Pool(seed=3, points=TINY.points, per_device=TINY.pool_blocks)
    with Scratch(str(tmp_path)) as scratch:
        result = run_pipeline_pass(
            TINY, pool, scratch, per_device=8, max_duration=1.5,
            wrap_broker=lambda broker: FaultyFetch(broker, fault))
    assert result.verdict.attempted == 16
    assert result.verdict.kinds.get(kind) == 1
    assert result.verdict.failed >= 1


def test_clean_pipeline_pass_checks_every_message(tmp_path):
    pool = Pool(seed=3, points=TINY.points, per_device=TINY.pool_blocks)
    with Scratch(str(tmp_path)) as scratch:
        result = run_pipeline_pass(TINY, pool, scratch, per_device=8)
    assert (result.verdict.attempted, result.verdict.failed) == (16, 0)
    assert result.messages == 16 and len(result.latencies) == 16
