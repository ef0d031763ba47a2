"""ROC/AUC computation and Welch's t-test; run_bench aggregates the
per-trial AUCs (harness.py)."""

from __future__ import annotations

import numpy as np
from scipy import special

from .data import LABEL_INLIER, LABEL_OUTLIER
from .errors import InputError
from .scores import ScoreSet


def _split_scores(scores: ScoreSet):
    if scores.labels is None:
        raise InputError("scores carry no ground-truth labels")
    s = scores.scores
    labels = np.asarray(scores.labels)
    inl = s[labels == LABEL_INLIER]
    out = s[labels == LABEL_OUTLIER]
    if len(inl) == 0 or len(out) == 0:
        raise InputError("both inlier and outlier labels are required")
    return inl, out


def auc(scores: ScoreSet) -> float:
    """P(outlier score < inlier score) + half credit for ties.

    Computed with midranks: outliers are expected to receive low
    scores under the higher-is-more-inlier orientation.
    """
    inl, out = _split_scores(scores)
    _, inverse, counts = np.unique(
        np.concatenate([inl, out]), return_inverse=True, return_counts=True
    )
    # midrank of a tie group: its last rank minus half its extra members
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    r_inl = np.sum(ranks[: len(inl)])
    n1, n0 = len(inl), len(out)
    return float((r_inl - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def roc_curve(scores: ScoreSet) -> np.ndarray:
    """(fpr, tpr) staircase over distinct score thresholds.

    Inliers are the positive class (score above threshold); the curve
    runs from (0, 0) to (1, 1) and its trapezoidal area equals auc().
    """
    inl, out = _split_scores(scores)
    thresholds = np.unique(np.concatenate([inl, out]))[::-1]
    # scores >= t are the sorted scores from the first one not below t;
    # the last threshold is the lowest score, so the curve ends at (1, 1)
    tpr = (len(inl) - np.searchsorted(np.sort(inl), thresholds)) / len(inl)
    fpr = (len(out) - np.searchsorted(np.sort(out), thresholds)) / len(out)
    return np.vstack([[0.0, 0.0], np.column_stack([fpr, tpr])])


def roc_auc(points: np.ndarray) -> float:
    """Trapezoidal area under an roc_curve() staircase."""
    fpr = points[:, 0]
    tpr = points[:, 1]
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def welch_ttest(a, b) -> float:
    """Two-sided p-value of Welch's t-test (Welch-Satterthwaite df)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise InputError("t-test needs at least 2 values per sample")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    if va == 0 and vb == 0:
        return 1.0 if a.mean() == b.mean() else 0.0
    se2 = va / len(a) + vb / len(b)
    t = (a.mean() - b.mean()) / np.sqrt(se2)
    df = se2**2 / (
        (va / len(a)) ** 2 / (len(a) - 1) + (vb / len(b)) ** 2 / (len(b) - 1)
    )
    # two-sided tail via the regularized incomplete beta
    return float(special.betainc(df / 2.0, 0.5, df / (df + t * t)))

