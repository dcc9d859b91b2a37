"""Property: batched and single-record append paths are observably equivalent.

``append_many`` must be a pure optimisation — for any sequence of
records and any way of chunking it into batches, the log must end up
byte-identical to one built with single ``append`` calls: same offsets,
same record payloads/keys/headers, same metrics counters, and the same
retention/compaction behaviour (timestamps are excluded: they are
stamped at call time by design).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import Broker, Consumer, PartitionLog, Producer

# A record: (value, optional key, header payload).
records_strategy = st.lists(
    st.tuples(
        st.binary(min_size=0, max_size=64),
        st.one_of(st.none(), st.binary(min_size=1, max_size=4)),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=40,
)


def _chunk(items, sizes):
    """Split *items* into batches whose sizes cycle through *sizes*."""
    out = []
    i = 0
    k = 0
    while i < len(items):
        size = max(1, sizes[k % len(sizes)])
        out.append(items[i : i + size])
        i += size
        k += 1
    return out


def _observable(record):
    """Everything equivalence covers (timestamps are call-time-stamped)."""
    return (record.offset, record.value, record.key, record.headers)


def _build_single(records, **log_kwargs) -> PartitionLog:
    log = PartitionLog("t", 0, **log_kwargs)
    for value, key, h in records:
        log.append(value, key=key, headers={"h": h})
    return log


def _build_batched(records, sizes, **log_kwargs) -> PartitionLog:
    log = PartitionLog("t", 0, **log_kwargs)
    for batch in _chunk(records, sizes):
        log.append_many(
            [v for v, _, _ in batch],
            keys=[k for _, k, _ in batch],
            headers=[{"h": h} for _, _, h in batch],
        )
    return log


def _assert_logs_equivalent(single: PartitionLog, batched: PartitionLog) -> None:
    assert batched.earliest_offset == single.earliest_offset
    assert batched.latest_offset == single.latest_offset
    assert batched.size_bytes == single.size_bytes
    assert batched.total_appended == single.total_appended
    assert batched.total_bytes_in == single.total_bytes_in
    start = single.earliest_offset
    got_single = single.fetch(start, max_records=10_000) if len(single) else []
    got_batched = batched.fetch(start, max_records=10_000) if len(batched) else []
    assert [_observable(r) for r in got_batched] == [
        _observable(r) for r in got_single
    ]


class TestBatchSingleEquivalence:
    @given(records=records_strategy, sizes=st.lists(st.integers(1, 7), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_plain_log(self, records, sizes):
        _assert_logs_equivalent(
            _build_single(records), _build_batched(records, sizes)
        )

    @given(
        records=records_strategy,
        sizes=st.lists(st.integers(1, 7), min_size=1, max_size=4),
        retention=st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=60)
    def test_across_retention_eviction(self, records, sizes, retention):
        # Byte-based eviction depends only on the final record sequence,
        # so evicting per append and per batch must converge.
        _assert_logs_equivalent(
            _build_single(records, retention_bytes=retention),
            _build_batched(records, sizes, retention_bytes=retention),
        )

    @given(records=records_strategy, sizes=st.lists(st.integers(1, 7), min_size=1, max_size=4))
    @settings(max_examples=30)
    def test_fetch_from_every_offset(self, records, sizes):
        single = _build_single(records)
        batched = _build_batched(records, sizes)
        for offset in range(single.latest_offset + 1):
            got_s = single.fetch(offset, max_records=5)
            got_b = batched.fetch(offset, max_records=5)
            assert [_observable(r) for r in got_b] == [_observable(r) for r in got_s]

    @given(records=records_strategy)
    @settings(max_examples=30)
    def test_producer_send_many_matches_sends(self, records):
        # Client-level equivalence: send_many == N sends, observed
        # through a consumer (offsets, values, keys, headers).
        values = [v for v, _, _ in records]
        keys = [k for _, k, _ in records]
        headers = [{"h": h} for _, _, h in records]

        b1 = Broker()
        b1.create_topic("t", 1)
        p1 = Producer(b1)
        for v, k, h in zip(values, keys, headers):
            p1.send("t", v, key=k, partition=0, headers=h)

        b2 = Broker()
        b2.create_topic("t", 1)
        p2 = Producer(b2)
        md = p2.send_many("t", values, keys=keys, partition=0, headers=headers)
        assert md.base_offset == 0
        assert md.count == len(values)
        assert list(md.offsets) == list(range(len(values)))
        assert p1.records_sent == p2.records_sent
        assert p1.bytes_sent == p2.bytes_sent

        def drain(broker):
            consumer = Consumer(broker)
            consumer.assign([("t", 0)])
            out = []
            while True:
                got = consumer.poll(max_records=7)
                if not got:
                    return out
                out.extend(got)

        assert [_observable(r) for r in drain(b2)] == [
            _observable(r) for r in drain(b1)
        ]
