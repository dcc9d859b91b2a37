"""Auto-encoder outlier detector.

The paper's heaviest model: a dense auto-encoder with hidden layers
[64, 32, 32, 64] and "a total number of 11,552 parameters" on the
32-feature input. That count corresponds to PyOD's Keras construction,
which we replicate exactly: PyOD prepends and appends the input dimension
to the hidden layer list *and* adds a final output layer, so the stack for
``hidden_neurons=[64, 32, 32, 64]`` on 32 features is::

    input(32) -> Dense(32) -> Dense(64) -> Dense(32) -> Dense(32)
              -> Dense(64) -> Dense(32) -> Dense(32, output)

parameter count: 1056 + 2112 + 2080 + 1056 + 2112 + 2080 + 1056 = 11,552.

The network is the detector's own: a flat list of parameters
``[W0, b0, W1, b1, ...]`` with Glorot-uniform weights and zero biases,
ReLU between layers and identity on the last, trained on the mean squared
reconstruction error with Adam, in mini-batches, all at Keras's defaults
(PyOD's, and so the paper's).

Outlier scoring uses the per-sample reconstruction error (L2 norm of the
residual), the standard auto-encoder anomaly criterion. Input is
standardised with an incrementally-updated :class:`StandardScaler`, which
mirrors PyOD's internal preprocessing and keeps the reconstruction loss
well-scaled for streaming data.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseOutlierDetector
from repro.ml.preprocessing import StandardScaler
from repro.util.validation import ValidationError, check_positive

#: Rows per training step (Keras's default batch size).
BATCH_SIZE = 32
#: Adam's learning rate, moment decays and epsilon (Keras's defaults).
LR = 1e-3
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AutoEncoder(BaseOutlierDetector):
    """Dense auto-encoder for streaming outlier detection.

    Parameters
    ----------
    hidden_neurons:
        Sizes of the hidden stack, PyOD-style (the input dimension is
        added around it automatically). Default matches the paper.
    epochs:
        Training epochs per ``fit``/``partial_fit`` batch. Streaming
        deployments use small values since every block triggers an update.
    seed:
        Seeds the weights and the order rows are trained in.
    """

    def __init__(
        self,
        hidden_neurons: tuple = (64, 32, 32, 64),
        epochs: int = 4,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not hidden_neurons:
            raise ValidationError("hidden_neurons must be non-empty")
        for h in hidden_neurons:
            check_positive("hidden layer size", h)
        check_positive("epochs", epochs)
        self.hidden_neurons = tuple(int(h) for h in hidden_neurons)
        self.epochs = int(epochs)
        self._seed = seed
        self.scaler = StandardScaler()
        self._params: list[np.ndarray] = []  # [W0, b0, W1, b1, ...]; empty until built
        self._epoch_losses: list[float] = []

    # -- the network -------------------------------------------------------

    def _build(self, n_features: int) -> None:
        """Fresh weights and Adam moments for PyOD's stack.

        PyOD builds a Dense layer for every entry of
        ``[n_features, *hidden_neurons, n_features]`` (including the first,
        which becomes an n->n layer on the input) and then appends one more
        output Dense(n_features). For 32 features and [64, 32, 32, 64] this
        yields exactly the paper's 11,552 parameters.
        """
        sizes = [n_features, n_features, *self.hidden_neurons, n_features, n_features]
        seeds = np.random.default_rng(self._seed)
        self._params = []
        for n_in, n_out in zip(sizes, sizes[1:]):
            rng = np.random.default_rng(int(seeds.integers(2**31)))
            limit = np.sqrt(6.0 / (n_in + n_out))
            self._params += [rng.uniform(-limit, limit, size=(n_in, n_out)), np.zeros(n_out)]
        self._m = [np.zeros_like(p) for p in self._params]
        self._v = [np.zeros_like(p) for p in self._params]
        self._t = 0

    def _forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Every layer's pre-activation; the last is the reconstruction."""
        zs = []
        for i in range(0, len(self._params), 2):
            a = np.maximum(zs[-1], 0.0) if zs else x
            zs.append(a @ self._params[i] + self._params[i + 1])
        return zs

    def _gradients(self, x: np.ndarray) -> tuple[float, list[np.ndarray]]:
        """Mean squared reconstruction error of *x*, and its gradient for
        every parameter, in ``_params`` order."""
        zs = self._forward(x)
        diff = zs[-1] - x
        grad = 2.0 * diff / diff.size
        grads = [None] * len(self._params)
        for i in range(len(zs) - 1, -1, -1):
            a = np.maximum(zs[i - 1], 0.0) if i else x
            grads[2 * i] = a.T @ grad
            grads[2 * i + 1] = grad.sum(axis=0)
            if i:
                grad = (grad @ self._params[2 * i].T) * (zs[i - 1] > 0.0)
        return float(np.mean(diff * diff)), grads

    def _adam_step(self, grads: list[np.ndarray]) -> None:
        """One bias-corrected Adam update of every parameter."""
        self._t += 1
        bc1 = 1.0 - BETA1**self._t
        bc2 = 1.0 - BETA2**self._t
        for p, g, m, v in zip(self._params, grads, self._m, self._v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= LR * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    @property
    def n_params(self) -> int:
        """Trainable parameter count (11,552 for the paper's config)."""
        if not self._params:
            raise ValidationError("model has not been built; call fit first")
        return sum(p.size for p in self._params)

    @property
    def training_history(self) -> list[float]:
        """Mean epoch losses of the latest ``fit`` / ``partial_fit`` call."""
        return list(self._epoch_losses)

    # -- weights (for the parameter server) ---------------------------------

    def get_weights(self) -> dict:
        if not self._params:
            raise ValidationError("model has no weights yet")
        return {
            "arrays": [p.copy() for p in self._params],
            "scaler_mean": None if self.scaler.mean_ is None else self.scaler.mean_.copy(),
            "scaler_m2": None if self.scaler._m2 is None else self.scaler._m2.copy(),
            "scaler_n": self.scaler.n_samples_seen_,
        }

    def set_weights(self, weights: dict) -> None:
        arrays = weights["arrays"]
        if not self._params:
            # Infer the input dimension from the first weight matrix.
            n_features = int(np.asarray(arrays[0]).shape[0])
            self._build(n_features)
            self._n_features = n_features
        if len(arrays) != len(self._params):
            raise ValueError(f"expected {len(self._params)} weight arrays, got {len(arrays)}")
        for p, w in zip(self._params, arrays):
            w = np.asarray(w, dtype=np.float64)
            if w.shape != p.shape:
                raise ValueError(f"shape mismatch: {w.shape} vs {p.shape}")
            p[...] = w
        if weights.get("scaler_mean") is not None:
            self.scaler.mean_ = np.asarray(weights["scaler_mean"], dtype=np.float64)
            self.scaler._m2 = np.asarray(weights["scaler_m2"], dtype=np.float64)
            self.scaler.n_samples_seen_ = int(weights["scaler_n"])
        self._fitted = True

    # -- BaseOutlierDetector hooks ------------------------------------------

    def _reset(self) -> None:
        super()._reset()
        self._params = []
        self.scaler = StandardScaler()
        self._epoch_losses = []

    def _fit_batch(self, X: np.ndarray) -> None:
        """``epochs`` passes over the block in seeded mini-batches."""
        if not self._params:
            self._build(X.shape[1])
        self.scaler.partial_fit(X)
        Xs = self.scaler.transform(X)
        rng = np.random.default_rng(self._seed)
        self._epoch_losses = []
        for _ in range(self.epochs):
            order = rng.permutation(Xs.shape[0])
            losses = []
            for start in range(0, Xs.shape[0], BATCH_SIZE):
                loss, grads = self._gradients(Xs[order[start : start + BATCH_SIZE]])
                self._adam_step(grads)
                losses.append(loss)
            self._epoch_losses.append(float(np.mean(losses)))

    def _score(self, X: np.ndarray) -> np.ndarray:
        Xs = self.scaler.transform(X)
        return np.linalg.norm(Xs - self._forward(Xs)[-1], axis=1)

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        """Reconstruction of X in the original feature space."""
        if not self._params:
            raise ValidationError("model has not been fitted")
        X = self._validate(X, fitting=False)
        Xs = self.scaler.transform(X)
        return self.scaler.inverse_transform(self._forward(Xs)[-1])
