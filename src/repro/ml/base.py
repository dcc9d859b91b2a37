"""Common interface for streaming outlier detectors.

The pipeline's processing stages treat models uniformly: each block of
data is scored with :meth:`decision_function` (higher = more anomalous)
and the model is then updated with :meth:`partial_fit` — the paper's
"model is updated based on the incoming data" streaming pattern.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.ml.metrics import contamination_threshold
from repro.util.validation import ValidationError, check_in_range


class NotFittedError(RuntimeError):
    """Raised when scoring is attempted before any data has been seen."""


class BaseOutlierDetector(abc.ABC):
    """Abstract base class for streaming outlier detectors.

    Subclasses implement :meth:`_fit_batch` and :meth:`_score`; the base
    class handles input validation, fitted-state tracking and the
    contamination-quantile decision threshold.
    """

    def __init__(self, contamination: float = 0.01) -> None:
        check_in_range("contamination", contamination, 0.0, 0.5)
        self.contamination = float(contamination)
        self._fitted = False
        self._n_features: int | None = None
        self._n_samples_seen = 0
        self._threshold: float | None = None

    # -- public API -----------------------------------------------------

    @property
    def fitted(self) -> bool:
        return self._fitted

    @property
    def n_features(self) -> int | None:
        return self._n_features

    @property
    def n_samples_seen(self) -> int:
        return self._n_samples_seen

    @property
    def threshold(self) -> float | None:
        """Current anomaly-score decision threshold (set during fit)."""
        return self._threshold

    def fit(self, X: np.ndarray) -> "BaseOutlierDetector":
        """Fit the model from scratch on *X*."""
        X = self._validate(X, fitting=True)
        self._reset()
        self._fit_batch(X)
        self._fitted = True
        self._n_samples_seen = X.shape[0]
        self._update_threshold(X)
        return self

    def partial_fit(self, X: np.ndarray) -> "BaseOutlierDetector":
        """Update the model incrementally with the batch *X*."""
        X = self._validate(X, fitting=not self._fitted)
        self._fit_batch(X)
        self._fitted = True
        self._n_samples_seen += X.shape[0]
        self._update_threshold(X)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Anomaly score per sample; higher means more anomalous."""
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        X = self._validate(X, fitting=False)
        return self._score(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Binary labels: 1 for outliers, 0 for inliers."""
        scores = self.decision_function(X)
        if self._threshold is None:
            raise NotFittedError("decision threshold not available")
        return (scores > self._threshold).astype(np.int8)

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        self.fit(X)
        return self.predict(X)

    # -- extension points -------------------------------------------------

    @abc.abstractmethod
    def _fit_batch(self, X: np.ndarray) -> None:
        """Incorporate the batch into the model."""

    @abc.abstractmethod
    def _score(self, X: np.ndarray) -> np.ndarray:
        """Return raw anomaly scores for *X* (model is fitted)."""

    def _reset(self) -> None:
        """Discard learned state before a from-scratch fit."""
        self._fitted = False
        self._n_samples_seen = 0
        self._threshold = None

    # -- helpers ----------------------------------------------------------

    def _validate(self, X: np.ndarray, fitting: bool) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] == 0:
            raise ValidationError("X must contain at least one sample")
        if not np.isfinite(X).all():
            raise ValidationError("X contains NaN or infinite values")
        if self._n_features is None:
            if not fitting:
                raise NotFittedError(f"{type(self).__name__} has not been fitted")
            self._n_features = X.shape[1]
        elif X.shape[1] != self._n_features:
            raise ValidationError(
                f"X has {X.shape[1]} features, model was fitted with {self._n_features}"
            )
        return X

    #: Rows used to (re-)estimate the decision threshold after a fit.
    #: Scoring the full batch again just for the quantile doubled the
    #: per-block cost of expensive models; a bounded sample estimates the
    #: same quantile with negligible error.
    _THRESHOLD_SAMPLE = 1024

    def _update_threshold(self, X: np.ndarray) -> None:
        if X.shape[0] > self._THRESHOLD_SAMPLE:
            idx = np.linspace(0, X.shape[0] - 1, self._THRESHOLD_SAMPLE).astype(int)
            X = X[idx]
        self._threshold = contamination_threshold(self._score(X), self.contamination)

    def __repr__(self) -> str:
        state = "fitted" if self._fitted else "unfitted"
        return f"{type(self).__name__}(contamination={self.contamination}, {state})"
