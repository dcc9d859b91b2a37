"""Tests for the streaming standard scaler."""

import numpy as np
import pytest

from repro.ml import StandardScaler, preprocessing
from repro.util.validation import ValidationError


class TestStandardScaler:
    def test_fit_transform_standardises(self, rng):
        X = rng.normal(5.0, 3.0, size=(500, 4))
        out = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)

    def test_incremental_equals_batch(self, rng):
        X = rng.normal(size=(300, 5))
        batch = StandardScaler().fit(X)
        inc = StandardScaler()
        for chunk in np.array_split(X, 7):
            inc.partial_fit(chunk)
        np.testing.assert_allclose(inc.mean_, batch.mean_, atol=1e-10)
        np.testing.assert_allclose(inc.var_, batch.var_, atol=1e-10)

    def test_inverse_transform_roundtrip(self, rng):
        X = rng.normal(2.0, 0.5, size=(100, 3))
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(X)), X, atol=1e-10
        )

    def test_constant_feature_passthrough(self):
        X = np.column_stack([np.ones(50), np.arange(50.0)])
        scaler = StandardScaler().fit(X)
        out = scaler.transform(X)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[:, 0], 0.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(ValidationError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_feature_mismatch_rejected(self, rng):
        scaler = StandardScaler().fit(rng.normal(size=(10, 3)))
        with pytest.raises(ValidationError):
            scaler.transform(rng.normal(size=(10, 4)))

    def test_with_mean_false(self, rng, monkeypatch):
        monkeypatch.setattr(preprocessing, "WITH_MEAN", False)
        X = rng.normal(10.0, 2.0, size=(200, 2))
        out = StandardScaler().fit_transform(X)
        assert out.mean() > 1.0  # mean not removed

    def test_with_std_false(self, rng, monkeypatch):
        monkeypatch.setattr(preprocessing, "WITH_STD", False)
        X = rng.normal(0.0, 5.0, size=(200, 2))
        out = StandardScaler().fit_transform(X)
        assert out.std() > 2.0  # variance not normalised

    def test_n_samples_tracked(self, rng):
        scaler = StandardScaler()
        scaler.partial_fit(rng.normal(size=(10, 2)))
        scaler.partial_fit(rng.normal(size=(15, 2)))
        assert scaler.n_samples_seen_ == 25

    def test_refit_resets(self, rng):
        scaler = StandardScaler()
        scaler.fit(rng.normal(size=(10, 2)))
        scaler.fit(rng.normal(size=(20, 2)))
        assert scaler.n_samples_seen_ == 20

    def test_transform_does_not_mutate_input(self, rng):
        X = rng.normal(size=(20, 2))
        X_copy = X.copy()
        StandardScaler().fit(X).transform(X)
        np.testing.assert_array_equal(X, X_copy)
