"""Additional property-based tests: pilot state machine, streaming k-means."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import StreamingKMeans
from repro.pilot import InvalidTransition, PilotState
from repro.pilot.states import check_transition


class TestPilotStateMachineProperties:
    @given(
        path=st.lists(st.sampled_from(list(PilotState)), min_size=1, max_size=8)
    )
    @settings(max_examples=100)
    def test_no_path_escapes_final_states(self, path):
        """Once a final state is reached, no further transition is legal."""
        state = PilotState.NEW
        for nxt in path:
            try:
                check_transition(state, nxt)
            except InvalidTransition:
                continue
            if state.is_final:
                pytest.fail(f"escaped final state {state} -> {nxt}")
            state = nxt

    @given(st.data())
    @settings(max_examples=50)
    def test_every_legal_walk_ends_new_pending_running_or_final(self, data):
        state = PilotState.NEW
        for _ in range(6):
            candidates = [
                s for s in PilotState
                if _legal(state, s)
            ]
            if not candidates:
                break
            state = data.draw(st.sampled_from(candidates))
        assert state in PilotState


def _legal(a, b):
    try:
        check_transition(a, b)
        return True
    except InvalidTransition:
        return False


class TestKMeansProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20)
    def test_single_cluster_center_is_global_mean(self, seed):
        rng = np.random.default_rng(seed)
        km = StreamingKMeans(n_clusters=1, seed=0)
        chunks = [rng.normal(size=(int(rng.integers(5, 40)), 3)) for _ in range(4)]
        for chunk in chunks:
            km.partial_fit(chunk)
        everything = np.vstack(chunks)
        np.testing.assert_allclose(
            km.cluster_centers_[0], everything.mean(axis=0), atol=1e-8
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        k=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=20)
    def test_counts_conserve_samples(self, seed, k):
        rng = np.random.default_rng(seed)
        km = StreamingKMeans(n_clusters=k, seed=0)
        total = 0
        for _ in range(3):
            n = int(rng.integers(k, 50))
            km.partial_fit(rng.normal(size=(n, 2)))
            total += n
        assert km._counts.sum() == total
