"""Tests for the detector base class contract."""

import numpy as np
import pytest

from repro.ml import NotFittedError
from repro.ml import base
from repro.ml.base import BaseOutlierDetector
from repro.util.validation import ValidationError


class _MeanDistanceDetector(BaseOutlierDetector):
    """Trivial concrete detector: score = distance to running mean."""

    def __init__(self):
        super().__init__()
        self._sum = None
        self._n = 0

    def _reset(self):
        super()._reset()
        self._sum = None
        self._n = 0

    def _fit_batch(self, X):
        if self._sum is None:
            self._sum = X.sum(axis=0)
        else:
            self._sum += X.sum(axis=0)
        self._n += X.shape[0]

    def _score(self, X):
        mean = self._sum / self._n
        return np.linalg.norm(X - mean, axis=1)


@pytest.fixture
def det():
    return _MeanDistanceDetector()


class TestLifecycle:
    def test_unfitted_flags(self, det):
        assert not det.fitted
        assert det.n_features is None
        assert det.threshold is None

    def test_fit_sets_state(self, det, small_block):
        det.fit(small_block)
        assert det.fitted
        assert det.n_features == 8
        assert det.n_samples_seen == 100
        assert det.threshold is not None

    def test_score_before_fit_raises(self, det, small_block):
        with pytest.raises(NotFittedError):
            det.decision_function(small_block)

    def test_predict_before_fit_raises(self, det, small_block):
        with pytest.raises(NotFittedError):
            det.predict(small_block)

    def test_refit_resets_counts(self, det, small_block):
        det.fit(small_block)
        det.fit(small_block)
        assert det.n_samples_seen == 100

    def test_partial_fit_accumulates(self, det, small_block):
        det.partial_fit(small_block)
        det.partial_fit(small_block)
        assert det.n_samples_seen == 200

    def test_partial_fit_without_fit_bootstraps(self, det, small_block):
        det.partial_fit(small_block)
        assert det.fitted


class TestValidation:
    def test_rejects_1d(self, det):
        with pytest.raises(ValidationError):
            det.fit(np.zeros(10))

    def test_rejects_empty(self, det):
        with pytest.raises(ValidationError):
            det.fit(np.zeros((0, 4)))

    def test_rejects_nan(self, det):
        X = np.zeros((5, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValidationError):
            det.fit(X)

    def test_rejects_inf(self, det):
        X = np.zeros((5, 2))
        X[0, 0] = np.inf
        with pytest.raises(ValidationError):
            det.fit(X)

    def test_rejects_feature_mismatch_after_fit(self, det, small_block):
        det.fit(small_block)
        with pytest.raises(ValidationError, match="features"):
            det.decision_function(np.zeros((3, 5)))

    def test_rejects_bad_contamination(self, det, small_block, monkeypatch):
        monkeypatch.setattr(base, "CONTAMINATION", 0.7)
        with pytest.raises(ValidationError, match="contamination"):
            det.fit(small_block)


class TestPredictions:
    def test_predict_binary(self, det, small_block):
        labels = det.fit_predict(small_block)
        assert set(np.unique(labels)) <= {0, 1}

    def test_contamination_controls_positive_rate(self, det, small_block, monkeypatch):
        monkeypatch.setattr(base, "CONTAMINATION", 0.2)
        labels = det.fit_predict(small_block)
        # Quantile thresholding: roughly 20% flagged on the training data.
        assert 0.05 <= labels.mean() <= 0.35

    def test_repr_shows_state(self, det, small_block):
        assert "unfitted" in repr(det)
        det.fit(small_block)
        assert "fitted" in repr(det)
