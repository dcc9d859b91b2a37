"""Tests for detection metrics."""

import numpy as np
import pytest

from repro.ml import contamination_threshold, roc_auc_score
from repro.util.validation import ValidationError


class TestRocAuc:
    def test_perfect_separation(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc_score(y, s) == 1.0

    def test_inverted_scores(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_auc_score(y, s) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=5000)
        s = rng.random(5000)
        assert roc_auc_score(y, s) == pytest.approx(0.5, abs=0.03)

    def test_ties_use_midranks(self):
        y = np.array([0, 1, 0, 1])
        s = np.array([0.5, 0.5, 0.5, 0.5])
        assert roc_auc_score(y, s) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            roc_auc_score(np.ones(4), np.arange(4.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            roc_auc_score(np.zeros(3), np.zeros(4))

    def test_matches_pairwise_definition(self):
        # AUC = P(score_pos > score_neg) + 0.5 P(tie), check by brute force.
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=60)
        y[:2] = [0, 1]  # guarantee both classes
        s = np.round(rng.random(60), 1)  # ties likely
        pos = s[y == 1]
        neg = s[y == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert roc_auc_score(y, s) == pytest.approx(brute, abs=1e-12)


class TestContaminationThreshold:
    def test_quantile_position(self):
        scores = np.arange(100.0)
        thr = contamination_threshold(scores, 0.1)
        assert (scores > thr).mean() == pytest.approx(0.1, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            contamination_threshold(np.array([]), 0.1)

    def test_invalid_contamination(self):
        with pytest.raises(ValidationError):
            contamination_threshold(np.arange(5.0), 0.9)
