"""Mini-batch k-means for streaming outlier detection.

The paper's lightest-weight model: 25 clusters, updated per incoming
block; a sample's anomaly score is its Euclidean distance to the nearest
centre. The mini-batch update follows Sculley (WWW 2010): each batch is
assigned to the current centres and the centres move toward the batch
means with per-centre learning rates 1/count.

Centroid initialisation uses k-means++ seeding on the first batch for
fast, stable convergence.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseOutlierDetector
from repro.util.validation import ValidationError, check_positive


def kmeans_plus_plus(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centres by D^2 sampling."""
    n = X.shape[0]
    if k > n:
        raise ValidationError(f"cannot seed {k} centres from {n} samples")
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    centers[0] = X[rng.integers(n)]
    # Squared distance to the nearest already-chosen centre.
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All points coincide with chosen centres; fill uniformly.
            centers[i:] = X[rng.integers(n, size=k - i)]
            break
        probs = d2 / total
        centers[i] = X[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((X - centers[i]) ** 2).sum(axis=1))
    return centers


class StreamingKMeans(BaseOutlierDetector):
    """Mini-batch k-means outlier detector.

    Parameters
    ----------
    n_clusters:
        Number of centres; the paper uses 25 throughout.
    seed:
        Seed for the k-means++ initialisation.
    """

    def __init__(self, n_clusters: int = 25, seed: int = 0) -> None:
        super().__init__()
        check_positive("n_clusters", n_clusters)
        self.n_clusters = int(n_clusters)
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        self.cluster_centers_: np.ndarray | None = None
        self._counts: np.ndarray | None = None

    # -- model state (for the parameter server) ---------------------------

    def get_weights(self) -> dict:
        """Snapshot of learned state, shareable via the parameter server."""
        if self.cluster_centers_ is None:
            raise ValidationError("model has no weights yet")
        return {
            "cluster_centers": self.cluster_centers_.copy(),
            "counts": self._counts.copy(),
        }

    def set_weights(self, weights: dict) -> None:
        """Restore learned state from a parameter-server snapshot."""
        centers = np.asarray(weights["cluster_centers"], dtype=np.float64)
        counts = np.asarray(weights["counts"], dtype=np.int64)
        if centers.ndim != 2 or centers.shape[0] != self.n_clusters:
            raise ValidationError(
                f"expected ({self.n_clusters}, d) centres, got {centers.shape}"
            )
        if counts.shape != (self.n_clusters,):
            raise ValidationError(f"expected ({self.n_clusters},) counts, got {counts.shape}")
        self.cluster_centers_ = centers.copy()
        self._counts = counts.copy()
        self._n_features = centers.shape[1]
        self._fitted = True

    # -- BaseOutlierDetector hooks ----------------------------------------

    def _reset(self) -> None:
        super()._reset()
        self.cluster_centers_ = None
        self._counts = None
        self._rng = np.random.default_rng(self._seed)

    def _fit_batch(self, X: np.ndarray) -> None:
        if self.cluster_centers_ is None:
            k = min(self.n_clusters, X.shape[0])
            centers = kmeans_plus_plus(X, k, self._rng)
            if k < self.n_clusters:
                # Not enough samples yet: replicate with jitter; later
                # batches will spread the duplicates apart.
                extra_idx = self._rng.integers(k, size=self.n_clusters - k)
                jitter = self._rng.normal(0, 1e-3, size=(self.n_clusters - k, X.shape[1]))
                centers = np.vstack([centers, centers[extra_idx] + jitter])
            self.cluster_centers_ = centers
            self._counts = np.zeros(self.n_clusters, dtype=np.int64)

        labels = self._nearest(X)
        # Sculley mini-batch update with per-centre learning rate 1/count.
        # The per-sample update with eta = 1/count is algebraically a
        # running mean, so the whole batch collapses to one aggregate
        # update per centre: c' = (c * n_old + sum(members)) / (n_old + m).
        k = self.n_clusters
        member_counts = np.bincount(labels, minlength=k)
        sums = np.zeros_like(self.cluster_centers_)
        np.add.at(sums, labels, X)
        touched = member_counts > 0
        n_old = self._counts[touched].astype(np.float64)
        m = member_counts[touched].astype(np.float64)
        self.cluster_centers_[touched] = (
            self.cluster_centers_[touched] * n_old[:, None] + sums[touched]
        ) / (n_old + m)[:, None]
        self._counts += member_counts

    def _score(self, X: np.ndarray) -> np.ndarray:
        d2 = self._distances_sq(X)
        return np.sqrt(d2.min(axis=1))

    # -- internals ---------------------------------------------------------

    def _distances_sq(self, X: np.ndarray) -> np.ndarray:
        """Squared Euclidean distances, (n_samples, n_clusters)."""
        C = self.cluster_centers_
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 — avoids the (n,k,d) tensor.
        x2 = (X * X).sum(axis=1)[:, None]
        c2 = (C * C).sum(axis=1)[None, :]
        d2 = x2 - 2.0 * (X @ C.T) + c2
        np.maximum(d2, 0.0, out=d2)  # guard tiny negatives from cancellation
        return d2

    def _nearest(self, X: np.ndarray) -> np.ndarray:
        return self._distances_sq(X).argmin(axis=1)

    def labels(self, X: np.ndarray) -> np.ndarray:
        """Cluster assignment for each sample."""
        if self.cluster_centers_ is None:
            raise ValidationError("model has not been fitted")
        X = self._validate(X, fitting=False)
        return self._nearest(X)

    def inertia(self, X: np.ndarray) -> float:
        """Sum of squared distances to the nearest centre."""
        if self.cluster_centers_ is None:
            raise ValidationError("model has not been fitted")
        X = self._validate(X, fitting=False)
        return float(self._distances_sq(X).min(axis=1).sum())
