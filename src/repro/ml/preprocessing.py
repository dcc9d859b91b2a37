"""Streaming feature scaling.

The processing stages standardise each block before model update/scoring.
:class:`StandardScaler` supports incremental fitting via Welford/Chan
parallel moment merging, so a long stream can be standardised with stable
statistics without materialising it.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import ValidationError

#: Whether ``transform`` removes the mean and divides by the standard
#: deviation (both, as every model here standardises its input).
WITH_MEAN = True
WITH_STD = True


class StandardScaler:
    """Zero-mean / unit-variance scaling with incremental updates.

    >>> s = StandardScaler()
    >>> import numpy as np
    >>> _ = s.partial_fit(np.array([[1.0], [3.0]]))
    >>> s.mean_[0]
    2.0
    """

    def __init__(self) -> None:
        self.n_samples_seen_ = 0
        self.mean_: np.ndarray | None = None
        self._m2: np.ndarray | None = None  # sum of squared deviations

    @property
    def var_(self) -> np.ndarray | None:
        if self._m2 is None or self.n_samples_seen_ == 0:
            return None
        return self._m2 / self.n_samples_seen_

    @property
    def scale_(self) -> np.ndarray | None:
        var = self.var_
        if var is None:
            return None
        scale = np.sqrt(var)
        scale[scale == 0.0] = 1.0  # constant features pass through
        return scale

    def fit(self, X: np.ndarray) -> "StandardScaler":
        self.n_samples_seen_ = 0
        self.mean_ = None
        self._m2 = None
        return self.partial_fit(X)

    def partial_fit(self, X: np.ndarray) -> "StandardScaler":
        X = self._check(X)
        n_b = X.shape[0]
        mean_b = X.mean(axis=0)
        m2_b = ((X - mean_b) ** 2).sum(axis=0)

        if self.mean_ is None:
            self.mean_ = mean_b
            self._m2 = m2_b
            self.n_samples_seen_ = n_b
        else:
            # Chan et al. parallel merge of (count, mean, M2) moments.
            n_a = self.n_samples_seen_
            delta = mean_b - self.mean_
            total = n_a + n_b
            self.mean_ = self.mean_ + delta * (n_b / total)
            self._m2 = self._m2 + m2_b + delta**2 * (n_a * n_b / total)
            self.n_samples_seen_ = total
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise ValidationError("StandardScaler has not been fitted")
        X = self._check(X)
        out = X.astype(np.float64, copy=True)
        if WITH_MEAN:
            out -= self.mean_
        if WITH_STD:
            out /= self.scale_
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise ValidationError("StandardScaler has not been fitted")
        X = self._check(X)
        out = X.astype(np.float64, copy=True)
        if WITH_STD:
            out *= self.scale_
        if WITH_MEAN:
            out += self.mean_
        return out

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-D, got shape {X.shape}")
        if self.mean_ is not None and X.shape[1] != self.mean_.shape[0]:
            raise ValidationError(
                f"X has {X.shape[1]} features, scaler was fitted with {self.mean_.shape[0]}"
            )
        return X
