"""Isolation forest (Liu, Ting & Zhou, ICDM 2008).

The paper's mid-complexity model: an ensemble of 100 random isolation
trees (the PyOD default the authors used). Each tree recursively splits a
subsample on a random feature at a random threshold; outliers are points
isolated in few splits. The anomaly score follows the original paper:

    s(x, n) = 2 ^ ( -E[h(x)] / c(n) )

where ``h(x)`` is the path length and ``c(n)`` the average path length of
an unsuccessful BST search, used both for normalisation and to credit
unresolved leaf nodes.

The forest is one flat node table — ``(trees, max_nodes)`` arrays of
split feature, threshold, offset of the right child, depth and leaf
credit — that tree construction writes in place and scoring reads with a
level-by-level descent of all trees at once, a slab of rows at a time
(DESIGN.md §10 "The model stage").

Streaming behaviour: ``partial_fit`` refreshes a rotating subset of trees
from the newest batch, so the ensemble tracks drift while older trees
retain history.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseOutlierDetector
from repro.util.validation import check_in_range, check_positive

_EULER_GAMMA = 0.5772156649015329

#: Rows scored per descent. The working set of one slab is five
#: (rows, trees) planes of 8-byte values — 2 MB at 100 trees, where the
#: 80,000-row stacks the batch processor hands over would make each
#: plane 64 MB. Time is flat in this number (a 10,000 x 32 block scores
#: in 50-60 ms at 128 to 2,048 rows a slab, 70-80 unslabbed), so memory
#: is the reason to slab.
_SLAB_ROWS = 512

#: The forest is one table of nodes, a ``(trees, max_nodes)`` array per
#: field. Row t is tree t numbered pre-order, so the left child of a node
#: is the next node and the right child is ``skip`` nodes (the size of the
#: left subtree) after that. A leaf has ``threshold = -inf`` and
#: ``skip = -1``: every value "goes right" and lands on the leaf again, so
#: the descent needs no mask for rows that have arrived. The path length
#: of a row is ``depth`` plus ``credit`` (c(node size)) of the leaf it
#: ends on.
_NODE_FIELDS = (
    ("feature", np.intp),
    ("threshold", np.float64),
    ("skip", np.intp),
    ("depth", np.int16),
    ("credit", np.float64),
)


def average_path_length(n) -> np.ndarray:
    """c(n): average unsuccessful-search path length in a BST of size n."""
    n = np.asarray(n, dtype=np.float64)
    out = np.zeros_like(n)
    mask2 = n == 2
    out[mask2] = 1.0
    mask = n > 2
    nm = n[mask]
    out[mask] = 2.0 * (np.log(nm - 1.0) + _EULER_GAMMA) - 2.0 * (nm - 1.0) / nm
    return out


class IsolationForest(BaseOutlierDetector):
    """Isolation-forest outlier detector with streaming tree refresh.

    Parameters
    ----------
    n_estimators:
        Ensemble size; the paper uses the PyOD default of 100.
    max_samples:
        Subsample size per tree (256, per the original algorithm).
    refresh_fraction:
        Fraction of trees rebuilt from each ``partial_fit`` batch.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_samples: int = 256,
        contamination: float = 0.01,
        refresh_fraction: float = 0.25,
        seed: int = 0,
    ) -> None:
        super().__init__(contamination=contamination)
        check_positive("n_estimators", n_estimators)
        check_positive("max_samples", max_samples)
        check_in_range("refresh_fraction", refresh_fraction, 0.0, 1.0)
        self.n_estimators = int(n_estimators)
        self.max_samples = int(max_samples)
        self.refresh_fraction = float(refresh_fraction)
        self._seed = seed
        self._reset()

    @property
    def n_trees(self) -> int:
        return self._n_trees

    def _reset(self) -> None:
        super()._reset()
        self._rng = np.random.default_rng(self._seed)
        self._n_trees = 0
        self._refresh_cursor = 0
        self._levels = 0  # depth of the deepest leaf a tree has had
        self._normaliser = 1.0  # c(subsample size of the newest batch)
        self._nodes = {
            name: np.zeros((self.n_estimators, 0), dtype=dtype) for name, dtype in _NODE_FIELDS
        }

    def _reserve(self, max_nodes: int) -> None:
        """Widen the node table to *max_nodes* per tree, keeping what is built."""
        for name, table in self._nodes.items():
            if table.shape[1] < max_nodes:
                self._nodes[name] = np.zeros((self.n_estimators, max_nodes), dtype=table.dtype)
                self._nodes[name][:, : table.shape[1]] = table

    def _build_tree(self, tree: int, X: np.ndarray, m: int) -> None:
        """Rebuild row *tree* of the table from a fresh *m*-row subsample."""
        rng = self._rng
        max_depth = int(np.ceil(np.log2(max(m, 2))))
        X = X[rng.choice(X.shape[0], size=m, replace=False)]
        feature, threshold, skip, depth, credit = (table[tree] for table in self._nodes.values())
        n_nodes = 0

        def build(idx: np.ndarray, level: int) -> int:
            nonlocal n_nodes
            node = n_nodes
            n_nodes += 1
            depth[node] = level
            credit[node] = len(idx)  # the size; c(size) once the tree is built
            if len(idx) > 1 and level < max_depth:
                sub = X[idx]
                lo = sub.min(axis=0)
                hi = sub.max(axis=0)
                varying = np.flatnonzero(hi > lo)
                if varying.size:  # else all duplicate points — cannot split
                    f = int(rng.choice(varying))
                    t = float(rng.uniform(lo[f], hi[f]))
                    go_left = sub[:, f] < t
                    left_idx = idx[go_left]
                    right_idx = idx[~go_left]
                    if len(left_idx) and len(right_idx):  # else t sat on the boundary
                        feature[node] = f
                        threshold[node] = t
                        build(left_idx, level + 1)
                        skip[node] = build(right_idx, level + 1) - node - 1
                        return node
            feature[node] = 0
            threshold[node] = -np.inf
            skip[node] = -1
            return node

        build(np.arange(m), 0)
        credit[:n_nodes] = average_path_length(credit[:n_nodes])
        self._levels = max(self._levels, int(depth[:n_nodes].max()))

    def _fit_batch(self, X: np.ndarray) -> None:
        m = min(self.max_samples, X.shape[0])
        self._normaliser = max(average_path_length(np.array([m]))[0], 1e-12)
        self._reserve(2 * m - 1)
        # The first batch builds every tree; later ones rebuild a rotating
        # slice of the ensemble on the new data.
        count = max(1, int(self.n_estimators * self.refresh_fraction))
        if not self._n_trees:
            count = self._n_trees = self.n_estimators
        for _ in range(count):
            self._build_tree(self._refresh_cursor, X, m)
            self._refresh_cursor = (self._refresh_cursor + 1) % self.n_estimators

    def _score(self, X: np.ndarray) -> np.ndarray:
        n, width = X.shape
        feature, threshold, skip, depth, credit = (table.ravel() for table in self._nodes.values())
        trees = self.n_estimators
        roots = np.arange(trees) * (feature.size // trees)
        path = np.empty(n, dtype=np.float64)
        # Where each row of a slab starts in its flattened values — a full
        # plane, which adds in half the time a broadcast column does.
        row_start = np.repeat(np.arange(min(n, _SLAB_ROWS)) * width, trees).reshape(-1, trees)
        for start in range(0, n, _SLAB_ROWS):
            values = X[start : start + _SLAB_ROWS].ravel()
            rows = min(_SLAB_ROWS, n - start)
            node = np.tile(roots, (rows, 1))  # (rows, trees)
            for _ in range(self._levels):
                at = feature.take(node)
                at += row_start[:rows]
                goes_right = values.take(at) >= threshold.take(node)
                step = skip.take(node)
                step *= goes_right
                node += step
                node += 1
            total = depth.take(node).sum(axis=1, dtype=np.float64)
            total += credit.take(node).sum(axis=1)
            path[start : start + rows] = total
        return np.power(2.0, -(path / trees) / self._normaliser)
