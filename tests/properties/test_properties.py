"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import PartitionLog
from repro.broker.group import assign_ranges
from repro.data import decode_block, encode_block
from repro.ml import StandardScaler
from repro.ml.metrics import roc_auc_score
from repro.params import ParameterServer
from repro.sim import FifoServer, Simulator
from repro.util import RingBuffer


class TestRingBufferProperties:
    @given(
        capacity=st.integers(min_value=1, max_value=50),
        items=st.lists(st.integers(), max_size=200),
    )
    def test_keeps_last_capacity_items(self, capacity, items):
        rb = RingBuffer(capacity)
        rb.extend(items)
        assert list(rb) == items[-capacity:]

    @given(
        capacity=st.integers(min_value=1, max_value=20),
        items=st.lists(st.integers(), min_size=1, max_size=100),
    )
    def test_len_never_exceeds_capacity(self, capacity, items):
        rb = RingBuffer(capacity)
        rb.extend(items)
        assert len(rb) == min(capacity, len(items))

    @given(
        capacity=st.integers(min_value=1, max_value=20),
        items=st.lists(st.integers(), min_size=1, max_size=100),
    )
    def test_indexing_consistent_with_iteration(self, capacity, items):
        rb = RingBuffer(capacity)
        rb.extend(items)
        assert [rb[i] for i in range(len(rb))] == list(rb)


class TestSerdeProperties:
    @given(
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30)
    def test_roundtrip_is_identity(self, rows, cols, seed):
        block = np.random.default_rng(seed).normal(size=(rows, cols))
        decoded = decode_block(encode_block(block))
        np.testing.assert_array_equal(decoded, block)

    @given(
        rows=st.integers(min_value=1, max_value=30),
        cols=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=30)
    def test_size_formula_exact(self, rows, cols):
        frame = encode_block(np.zeros((rows, cols)))
        assert len(frame) == 16 + rows * cols * 8


class TestPartitionLogProperties:
    @given(payloads=st.lists(st.binary(min_size=0, max_size=64), max_size=60))
    @settings(max_examples=30)
    def test_fetch_returns_appended_in_order(self, payloads):
        log = PartitionLog("t", 0)
        for p in payloads:
            log.append(p)
        fetched = log.fetch(0, max_records=len(payloads) or 1)
        assert [r.value for r in fetched] == payloads

    @given(
        payloads=st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=60),
        retention=st.integers(min_value=32, max_value=512),
    )
    @settings(max_examples=30)
    def test_retention_never_loses_head(self, payloads, retention):
        log = PartitionLog("t", 0, retention_bytes=retention)
        for p in payloads:
            log.append(p)
        # Invariants: head offset counts every append; retained window is
        # a contiguous suffix; size respects the bound (min one record).
        assert log.latest_offset == len(payloads)
        assert log.earliest_offset + len(log) == log.latest_offset
        assert len(log) >= 1


class TestAssignorProperties:
    @st.composite
    def members_and_partitions(draw):
        n_members = draw(st.integers(min_value=1, max_value=8))
        n_parts = draw(st.integers(min_value=0, max_value=32))
        members = [f"m{i}" for i in range(n_members)]
        parts = [("t", p) for p in range(n_parts)]
        return members, parts

    @given(data=members_and_partitions())
    @settings(max_examples=50)
    def test_range_assignor_partition_function(self, data):
        members, parts = data
        out = assign_ranges(members, parts)
        flat = sorted(tp for tps in out.values() for tp in tps)
        assert flat == sorted(parts)          # every partition exactly once
        sizes = [len(v) for v in out.values()]
        assert max(sizes) - min(sizes) <= 1    # balanced within 1


class TestScalerProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_chunks=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30)
    def test_chunked_fit_equals_batch_fit(self, seed, n_chunks):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3)) * rng.uniform(0.5, 5) + rng.uniform(-3, 3)
        batch = StandardScaler().fit(X)
        inc = StandardScaler()
        for chunk in np.array_split(X, n_chunks):
            if len(chunk):
                inc.partial_fit(chunk)
        np.testing.assert_allclose(inc.mean_, batch.mean_, atol=1e-9)
        np.testing.assert_allclose(inc.var_, batch.var_, atol=1e-9)


class TestVersionedStoreProperties:
    @given(keys=st.lists(st.sampled_from("abc"), max_size=60))
    @settings(max_examples=50)
    def test_version_strictly_increases_per_key_lifetime(self, keys):
        store = ParameterServer()
        last_version: dict = {}
        for key in keys:
            entry = store.set(key, 0)
            assert entry.version == last_version.get(key, 0) + 1
            assert store.get(key) is entry
            last_version[key] = entry.version
        assert store.keys() == sorted(last_version)


class TestRocAucProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30)
    def test_auc_antisymmetric_under_score_negation(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=50)
        y[0], y[1] = 0, 1
        s = rng.normal(size=50)
        auc = roc_auc_score(y, s)
        assert roc_auc_score(y, -s) == pytest.approx(1.0 - auc, abs=1e-12)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shift=st.floats(min_value=-10, max_value=10, allow_nan=False),
        scale=st.floats(min_value=0.1, max_value=10, allow_nan=False),
    )
    @settings(max_examples=30)
    def test_auc_invariant_to_monotone_transform(self, seed, shift, scale):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=40)
        y[0], y[1] = 0, 1
        s = rng.normal(size=40)
        assert roc_auc_score(y, s * scale + shift) == roc_auc_score(y, s)


class TestSimEngineProperties:
    @given(delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=40,
    ))
    @settings(max_examples=30)
    def test_events_always_execute_in_nondecreasing_time(self, delays):
        sim = Simulator()
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)

    @given(
        capacity=st.integers(min_value=1, max_value=5),
        services=st.lists(
            st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
            min_size=1, max_size=30,
        ),
    )
    @settings(max_examples=30)
    def test_fifo_server_conservation(self, capacity, services):
        sim = Simulator()
        server = FifoServer(sim, capacity=capacity)
        done = []
        for s in services:
            server.submit(s, lambda: done.append(sim.now))
        sim.run()
        # Every job served; busy time is the exact sum of service times;
        # makespan bounded by the single-server sequential case and at
        # least the critical path.
        assert server.jobs_served == len(services)
        assert server.busy_seconds == pytest.approx(sum(services))
        assert max(done) <= sum(services) + 1e-9
        assert max(done) >= max(services) - 1e-9


import pytest  # noqa: E402  (used by approx above)
