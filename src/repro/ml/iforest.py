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
split feature, threshold, offset of the first child, depth and leaf
credit. Construction grows every tree it refreshes at once, one level per
step, and writes the table in place; scoring reads it with a
level-by-level descent of all trees at once, a slab of rows at a time
(DESIGN.md §10 "The model stage"). The caller and one thread per
further core the process may run on, each pinned to a core of its own
and started for the call, take a block's slabs in turn until none is
left; they overlap because NumPy releases the interpreter lock inside
the descent's takes and adds. Slabs start at the same rows whichever
thread takes them, so a row's arithmetic, and its score, are the same on
any number of cores.

Streaming behaviour: ``partial_fit`` refreshes a rotating subset of trees
from the newest batch, so the ensemble tracks drift while older trees
retain history.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.ml.base import BaseOutlierDetector
from repro.util.validation import check_in_range, check_positive

_EULER_GAMMA = 0.5772156649015329

#: Rows subsampled per tree (256, per the original algorithm).
MAX_SAMPLES = 256

#: Rows scored per descent, and the unit the threads that score a block
#: take in turn. The working set of one slab is five (rows, trees) planes
#: of 8-byte values — 2 MB at 100 trees, one per descending thread, where
#: an 80,000-row call scored as one plane would make each plane 64 MB.
#: Time is flat in this number (a 10,000 x 32 block scores in 50-60 ms on
#: one core at 128 to 2,048 rows a slab, 70-80 unslabbed), so memory is
#: the reason to slab.
_SLAB_ROWS = 512

#: The forest is one table of nodes, a ``(trees, max_nodes)`` array per
#: field. Row t is tree t numbered level by level, and the two children of
#: a node are adjacent: the left one is ``child`` nodes after it, the right
#: one the node after that. A leaf has ``threshold = -inf`` and
#: ``child = -1``: every value "goes right" and lands on the leaf again, so
#: the descent needs no mask for rows that have arrived. The path length
#: of a row is ``depth`` plus ``credit`` (c(node size)) of the leaf it
#: ends on.
_NODE_FIELDS = (
    ("feature", np.intp),
    ("threshold", np.float64),
    ("child", np.intp),
    ("depth", np.int16),
    ("credit", np.float64),
)


def _cpus() -> list:
    """The CPUs the calling thread may run on; empty where the platform
    does not say (and then no thread is pinned)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return []


def _cores() -> int:
    """How many cores this process may run on."""
    return len(_cpus()) or os.cpu_count() or 1


def _pin(cpus: list, i: int | None = None) -> None:
    """Keep the calling thread on the *i*-th of *cpus* (round robin), or on
    all of them when *i* is None. With no *cpus*, or CPUs the process may
    no longer use, the thread stays where it is."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus if i is None else (cpus[i % len(cpus)],))
        except OSError:
            pass


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


def _varying_feature(values, width, at, start, size, nodes, frac):
    """The ``frac``-quantile of the features that vary in each of *nodes*.

    For the nodes whose drawn feature is constant. Returns that feature and
    its ``lo`` and ``hi`` per node; a node where nothing varies gets feature
    0 with ``lo == hi``, which no threshold splits.
    """
    n = size[nodes]
    sub_start = np.cumsum(n) - n
    rows = at.take(np.repeat(start[nodes] - sub_start, n) + np.arange(n.sum()))
    block = values.take(rows[:, None] + np.arange(width))
    lo = np.minimum.reduceat(block, sub_start)
    hi = np.maximum.reduceat(block, sub_start)
    varying = hi > lo
    count = varying.sum(axis=1)
    pick = np.minimum((frac[nodes] * count).astype(np.intp), count - 1)
    f = (varying.cumsum(axis=1) <= pick[:, None]).sum(axis=1)
    ix = np.arange(nodes.size)
    return f, lo[ix, f], hi[ix, f]


class IsolationForest(BaseOutlierDetector):
    """Isolation-forest outlier detector with streaming tree refresh.

    Parameters
    ----------
    n_estimators:
        Ensemble size; the paper uses the PyOD default of 100.
    refresh_fraction:
        Fraction of trees rebuilt from each ``partial_fit`` batch.
    seed:
        Seeds the subsamples and splits.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        refresh_fraction: float = 0.25,
        seed: int = 0,
    ) -> None:
        super().__init__()
        check_positive("n_estimators", n_estimators)
        check_in_range("refresh_fraction", refresh_fraction, 0.0, 1.0)
        self.n_estimators = int(n_estimators)
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

    def _build_trees(self, trees: np.ndarray, X: np.ndarray, m: int) -> None:
        """Rebuild rows *trees* (ascending) of the table, each from a fresh
        *m*-row subsample, growing all of them one level per step.

        A level's nodes are ordered by tree, then by number, and the rows of
        each sit contiguously in ``at`` (their offsets in ``X.ravel()``). A
        node splits when it has more than one row, some feature varies, it
        is above the depth limit and the threshold sends rows both ways.
        """
        rng = self._rng
        values = X.ravel()
        width = X.shape[1]
        max_depth = int(np.ceil(np.log2(max(m, 2))))
        max_nodes = self._nodes["feature"].shape[1]
        for name, leaf in (("feature", 0), ("threshold", -np.inf), ("child", -1)):
            self._nodes[name][trees] = leaf
        feature, threshold, child, depth, credit = (t.reshape(-1) for t in self._nodes.values())
        at = np.concatenate([rng.choice(X.shape[0], size=m, replace=False) for _ in trees])
        at *= width
        node = trees * max_nodes  # the level's nodes, as flat ids
        size = np.full(trees.size, m)
        free = np.arange(self.n_estimators) * max_nodes + 1  # each tree's next unused id
        for level in range(max_depth + 1):
            depth[node] = level
            credit[node] = average_path_length(size)
            if level == max_depth:
                break
            start = np.cumsum(size) - size
            # u * width is a uniform feature plus an independent uniform
            # fraction; where that feature is constant, the fraction picks
            # among the ones that vary — uniform over those either way.
            frac = rng.random(node.size) * width
            f = frac.astype(np.intp)
            frac -= f
            v = values.take(at + np.repeat(f, size))
            lo = np.minimum.reduceat(v, start)
            hi = np.maximum.reduceat(v, start)
            stuck = np.flatnonzero((lo == hi) & (size > 1))
            if stuck.size:
                f[stuck], lo[stuck], hi[stuck] = _varying_feature(
                    values, width, at, start, size, stuck, frac
                )
                v = values.take(at + np.repeat(f, size))
            t = rng.uniform(lo, hi)
            go_left = v < np.repeat(t, size)
            left = np.add.reduceat(go_left, start)
            splits = (left > 0) & (left < size)
            if not splits.any():
                break
            parent = node[splits]
            tree = parent // max_nodes
            first = free[tree] + 2 * (np.arange(tree.size) - np.searchsorted(tree, tree))
            free += 2 * np.bincount(tree, minlength=free.size)
            feature[parent] = f[splits]
            threshold[parent] = t[splits]
            child[parent] = first - parent
            # The next level: the children, left then right, of each node
            # that split, and their rows in that order.
            slot = np.repeat(2 * np.cumsum(splits) - 2, size) + ~go_left
            moving = np.repeat(splits, size)
            at = at[moving].take(np.argsort(slot[moving], kind="stable"))
            node = np.column_stack((first, first + 1)).ravel()
            size = np.column_stack((left, size - left))[splits].ravel()
        self._levels = max(self._levels, level)

    def _fit_batch(self, X: np.ndarray) -> None:
        m = min(MAX_SAMPLES, X.shape[0])
        self._normaliser = max(average_path_length(np.array([m]))[0], 1e-12)
        self._reserve(2 * m - 1)
        # The first batch builds every tree; later ones rebuild a rotating
        # slice of the ensemble on the new data.
        count = max(1, int(self.n_estimators * self.refresh_fraction))
        if not self._n_trees:
            count = self._n_trees = self.n_estimators
        trees = (self._refresh_cursor + np.arange(count)) % self.n_estimators
        self._refresh_cursor = (self._refresh_cursor + count) % self.n_estimators
        self._build_trees(np.sort(trees), X, m)

    def _score(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        path = np.empty(n, dtype=np.float64)
        # One thread per core and at most one per slab: the caller and a
        # thread started for this call each take the next unscored slab
        # until none is left, so a thread that starts late or runs on a
        # busier core scores fewer slabs instead of holding up the call.
        # Each thread is pinned to a core of its own; left alone, the
        # scheduler often starts a helper on the caller's core and keeps
        # the two there, each at half speed. Every helper is joined, and the
        # caller's cores given back, before this returns.
        cpus = _cpus()
        threads = min(_cores(), -(-n // _SLAB_ROWS))
        slab_starts = iter(range(0, n, _SLAB_ROWS))
        claim = threading.Lock()
        errors: list[BaseException] = []

        def claimed():
            while True:
                with claim:
                    start = next(slab_starts, None)
                if start is None:
                    return
                yield start

        def descend(i: int) -> None:
            try:
                _pin(cpus, i)
                self._descend(X, path, claimed())
            except BaseException as exc:  # raised again on the caller
                errors.append(exc)

        started = []
        try:
            for i in range(1, threads):
                helper = threading.Thread(target=descend, args=(i,), name="iforest-descend")
                helper.start()
                started.append(helper)
            if started:
                _pin(cpus, 0)
            self._descend(X, path, claimed())
        finally:
            for helper in started:
                helper.join()
            if started:
                _pin(cpus)
        if errors:
            raise errors[0]
        return np.power(2.0, -(path / self.n_estimators) / self._normaliser)

    def _descend(self, X: np.ndarray, out: np.ndarray, starts=None) -> None:
        """Write the summed path length over all trees of each row of the
        slabs of *X* that begin at *starts* (every slab by default) into the
        same rows of *out*."""
        n, width = X.shape
        feature, threshold, child, depth, credit = (table.ravel() for table in self._nodes.values())
        trees = self.n_estimators
        roots = np.arange(trees) * (feature.size // trees)
        # Where each row of a slab starts in its flattened values — a full
        # plane, which adds in half the time a broadcast column does.
        row_start = np.repeat(np.arange(min(n, _SLAB_ROWS)) * width, trees).reshape(-1, trees)
        for start in range(0, n, _SLAB_ROWS) if starts is None else starts:
            values = X[start : start + _SLAB_ROWS].ravel()
            rows = min(_SLAB_ROWS, n - start)
            node = np.tile(roots, (rows, 1))  # (rows, trees)
            for _ in range(self._levels):
                at = feature.take(node)
                at += row_start[:rows]
                goes_right = values.take(at) >= threshold.take(node)
                node += child.take(node)
                node += goes_right
            total = depth.take(node).sum(axis=1, dtype=np.float64)
            total += credit.take(node).sum(axis=1)
            out[start : start + rows] = total
