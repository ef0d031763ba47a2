"""Inlier-based outlier detection via localized logistic regression
density-ratio estimation, with per-sample feature attribution.

Every scipy import sits in the function that calls it, so importing the
package loads numpy alone.  The CLI's ``synth``, ``score`` and ``eval``
load no scipy, and ``fit`` and every ``bench`` fit load no scipy module
either: the LLR graph's products run on scipy's compiled CSR kernel,
which ``graph`` loads from its file alone as ``ratioscope._sparsetools``
on first use; synth's normal quantiles and the fit's sigmoids, which
reach saved files, keep scipy.special's bits through ``libm``, and the
baselines compute with numpy alone.  Only a ``bench`` of two or more
trials imports scipy, scipy.special for Welch's test."""

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
