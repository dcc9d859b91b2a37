"""Tests for the auto-encoder detector."""

import numpy as np
import pytest

from repro.ml import AutoEncoder, roc_auc_score
from repro.util.validation import ValidationError


class TestArchitecture:
    def test_paper_parameter_count(self):
        """The paper reports 11,552 parameters for [64,32,32,64] on 32 features."""
        ae = AutoEncoder(hidden_neurons=(64, 32, 32, 64), epochs=1, seed=0)
        ae.fit(np.random.default_rng(0).normal(size=(64, 32)))
        assert ae.n_params == 11_552

    def test_n_params_before_fit_raises(self):
        with pytest.raises(ValidationError):
            AutoEncoder().n_params

    def test_custom_architecture(self):
        ae = AutoEncoder(hidden_neurons=(8,), epochs=1, seed=0)
        ae.fit(np.random.default_rng(0).normal(size=(32, 4)))
        # sizes [4,4,8,4,4]: 4*4+4 + 4*8+8 + 8*4+4 + 4*4+4 = 20+40+36+20
        assert ae.n_params == 116

    def test_empty_hidden_rejected(self):
        with pytest.raises(ValidationError):
            AutoEncoder(hidden_neurons=())

    def test_invalid_epochs(self):
        with pytest.raises(ValidationError):
            AutoEncoder(epochs=0)

    def test_seeded_scores_match_the_recorded_ones(self):
        # Recorded before the network moved into AutoEncoder, from the
        # separate layer / optimizer classes it had: the same draws and
        # the same arithmetic in the same order give the same scores.
        X = np.random.default_rng(0).normal(size=(64, 4))
        ae = AutoEncoder(hidden_neurons=(8,), epochs=2, seed=0).fit(X)
        np.testing.assert_allclose(
            ae.decision_function(X)[:5],
            [0.7151252234923409, 2.2333335561230934, 1.694001873991629,
             3.0875824745978058, 1.572267203600875],
            rtol=0, atol=1e-12,
        )
        assert ae.threshold == pytest.approx(3.6615723109611116, rel=0, abs=1e-12)


class TestDetection:
    def test_detects_injected_outliers(self, labeled_block):
        X, y = labeled_block
        ae = AutoEncoder(epochs=8, seed=0).fit(X)
        assert roc_auc_score(y, ae.decision_function(X)) > 0.9

    def test_scores_nonnegative(self, small_block):
        ae = AutoEncoder(epochs=2, seed=0).fit(small_block)
        assert (ae.decision_function(small_block) >= 0).all()

    def test_training_reduces_loss(self, small_block):
        ae = AutoEncoder(epochs=20, seed=0)
        ae.fit(small_block)
        history = ae.training_history
        assert history[-1] < history[0]

    def test_partial_fit_continues_training(self, small_block):
        ae = AutoEncoder(epochs=2, seed=0)
        ae.partial_fit(small_block)
        first = ae.training_history
        ae.partial_fit(small_block)
        assert ae.training_history[0] < first[0]

    def test_streamed_history_stays_bounded(self):
        # One partial_fit per message: the history holds the latest
        # call's epochs, not every call's.
        ae = AutoEncoder(hidden_neurons=(8,), epochs=2, seed=0)
        block = np.random.default_rng(0).normal(size=(8, 4))
        for _ in range(1000):
            ae.partial_fit(block)
        assert len(ae._epoch_losses) <= ae.epochs

    def test_reconstruct_shape(self, small_block):
        ae = AutoEncoder(epochs=2, seed=0).fit(small_block)
        assert ae.reconstruct(small_block).shape == small_block.shape

    def test_reconstruct_before_fit_raises(self, small_block):
        with pytest.raises(ValidationError):
            AutoEncoder().reconstruct(small_block)

    def test_reconstruction_improves_with_training(self, small_block):
        brief = AutoEncoder(epochs=1, seed=0).fit(small_block)
        long = AutoEncoder(epochs=40, seed=0).fit(small_block)
        err_brief = np.linalg.norm(brief.reconstruct(small_block) - small_block)
        err_long = np.linalg.norm(long.reconstruct(small_block) - small_block)
        assert err_long < err_brief


class TestWeightSharing:
    def test_weights_roundtrip_preserves_scores(self, small_block):
        ae = AutoEncoder(epochs=4, seed=0).fit(small_block)
        clone = AutoEncoder(epochs=4, seed=99)
        clone.set_weights(ae.get_weights())
        np.testing.assert_allclose(
            clone.decision_function(small_block),
            ae.decision_function(small_block),
        )

    def test_set_weights_builds_network(self, small_block):
        ae = AutoEncoder(epochs=1, seed=0).fit(small_block)
        fresh = AutoEncoder()
        fresh.set_weights(ae.get_weights())
        assert fresh.fitted
        assert fresh.n_params == ae.n_params

    def test_get_weights_before_fit_raises(self):
        with pytest.raises(ValidationError):
            AutoEncoder().get_weights()

    def test_refit_resets(self, small_block):
        ae = AutoEncoder(epochs=1, seed=0)
        ae.fit(small_block)
        ae.fit(small_block)
        assert len(ae.training_history) == 1
