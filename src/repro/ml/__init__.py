"""Machine-learning workloads used in the paper's evaluation.

From-scratch NumPy implementations of the three streaming outlier
detectors evaluated in section III:

- :class:`StreamingKMeans` — mini-batch k-means with 25 clusters
  (distance-to-nearest-centre anomaly score),
- :class:`IsolationForest` — 100-tree ensemble, PyOD-compatible defaults,
- :class:`AutoEncoder` — dense auto-encoder replicating PyOD's
  construction for hidden layers [64, 32, 32, 64] on 32 features, which
  yields exactly the paper's 11,552 trainable parameters; its forward
  pass, gradients and Adam step are its own.

All detectors share the :class:`BaseOutlierDetector` interface:
``fit`` / ``partial_fit`` / ``decision_function`` / ``predict``. The
contamination share that sets their decision threshold is one constant,
``repro.ml.base.CONTAMINATION``.
"""

from repro.ml.base import BaseOutlierDetector, NotFittedError
from repro.ml.kmeans import StreamingKMeans
from repro.ml.iforest import IsolationForest
from repro.ml.autoencoder import AutoEncoder
from repro.ml.preprocessing import StandardScaler
from repro.ml.metrics import roc_auc_score, contamination_threshold

__all__ = [
    "BaseOutlierDetector",
    "NotFittedError",
    "StreamingKMeans",
    "IsolationForest",
    "AutoEncoder",
    "StandardScaler",
    "roc_auc_score",
    "contamination_threshold",
]
