"""Detection-quality metrics.

Implemented from scratch (no scikit-learn available): ROC AUC via the
Mann-Whitney U statistic, and the contamination-quantile threshold helper
shared by the detectors.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import ValidationError, check_in_range


def roc_auc_score(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve for binary labels and continuous scores.

    Computed as the normalised Mann-Whitney U statistic with midrank tie
    handling, which is exactly equivalent to the trapezoidal ROC AUC.
    """
    y = np.asarray(y_true).ravel()
    s = np.asarray(scores, dtype=np.float64).ravel()
    if y.shape != s.shape:
        raise ValidationError(f"shape mismatch: {y.shape} vs {s.shape}")
    pos = y == 1
    neg = y == 0
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("roc_auc_score needs both positive and negative samples")
    # Midranks: average rank for tied scores.
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty_like(s)
    sorted_s = s[order]
    ranks[order] = np.arange(1, len(s) + 1, dtype=np.float64)
    # Average ranks within tie groups.
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        if j > i:
            avg = (i + j + 2) / 2.0  # ranks are 1-based
            ranks[order[i : j + 1]] = avg
        i = j + 1
    rank_sum_pos = ranks[pos].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def contamination_threshold(scores: np.ndarray, contamination: float) -> float:
    """Score threshold above which the top *contamination* fraction lies."""
    check_in_range("contamination", contamination, 0.0, 0.5)
    s = np.asarray(scores, dtype=np.float64).ravel()
    if s.size == 0:
        raise ValidationError("scores must be non-empty")
    return float(np.quantile(s, 1.0 - contamination))
