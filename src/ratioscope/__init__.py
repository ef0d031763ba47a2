"""Inlier-based outlier detection via localized logistic regression
density-ratio estimation, with per-sample feature attribution.

Every scipy import sits in the function that calls it, so importing the
package loads numpy alone, and the CLI's ``score`` and ``eval`` never
load scipy."""

from .data import (
    Dataset,
    PooledDataset,
    StandardizationStats,
    apply_standardizer,
    fit_standardizer,
    pool,
)
from .evaluation import auc, roc_curve, welch_ttest
from .graph import SimilarityGraph, knn_graph, median_heuristic
from .llr import FitResult, LlrHyperparams, WeightMatrix, fit_pooled
from .scores import Explanation, ScoreSet, detect, explain, ratio_score
from .synth import SynthSpec, generate

__all__ = [
    "Dataset",
    "PooledDataset",
    "StandardizationStats",
    "apply_standardizer",
    "fit_standardizer",
    "pool",
    "SimilarityGraph",
    "knn_graph",
    "median_heuristic",
    "FitResult",
    "LlrHyperparams",
    "WeightMatrix",
    "fit_pooled",
    "ScoreSet",
    "Explanation",
    "detect",
    "explain",
    "ratio_score",
    "auc",
    "roc_curve",
    "welch_ttest",
    "SynthSpec",
    "generate",
]

__version__ = "0.1.0"
