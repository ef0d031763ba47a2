"""Ratio scores, threshold detection, and per-sample feature explanations."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .data import LABEL_INLIER, LABEL_OUTLIER, PooledDataset
from .data import parse_float, parse_label, read_csv_rows
from .errors import InputError
from .llr import WeightMatrix

EXP_CLAMP = 500.0
# name of the constant feature that `fit --intercept` appends
CONST_FEATURE = "__const__"


@dataclass(frozen=True)
class ScoreSet:
    """Per-sample ratio scores; higher means more inlier-like."""

    sample_ids: tuple[str, ...]
    scores: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != len(self.sample_ids):
                raise InputError("labels and sample ids differ in length")
        if scores.shape != (len(self.sample_ids),):
            raise InputError("scores and sample ids differ in length")
        if not np.all(np.isfinite(scores)) or np.any(scores <= 0):
            raise InputError("scores must be strictly positive and finite")


@dataclass(frozen=True)
class Explanation:
    """Top features of one sample's coefficient column, by |weight|."""

    sample_id: str
    ranked_features: tuple[tuple[str, float], ...]
    score: float


def ratio_from_logit(z, n_inlier: int, n_test: int):
    """Ratio (n'/n) * exp(z) for logits z, the exponent clamped to
    +-EXP_CLAMP so that scores saturate instead of overflowing."""
    return n_test / n_inlier * np.exp(np.clip(z, -EXP_CLAMP, EXP_CLAMP))


def _logits(weights: WeightMatrix, pooled: PooledDataset, idx) -> np.ndarray:
    """w_i . x_i for the pooled columns idx.  The fancy index copies
    each column contiguously, so a column's logit does not depend on
    which others are selected with it: explain's score equals
    ratio_score's bit for bit."""
    return np.einsum("ki,ki->i", weights.values[:, idx], pooled.features[:, idx])


def _column_indices(pooled: PooledDataset, which: str) -> np.ndarray:
    if which == "test":
        return np.arange(pooled.n_inlier, pooled.m)
    if which == "inlier":
        return np.arange(pooled.n_inlier)
    if which == "all":
        return np.arange(pooled.m)
    raise InputError(f"unknown sample selector {which!r}")


def ratio_score(
    weights: WeightMatrix,
    pooled: PooledDataset,
    which: str = "test",
    labels=None,
) -> ScoreSet:
    """Score ratio_from_logit(w_i . x_i) for the selected pooled columns.

    ``labels`` (inlier/outlier strings aligned with the selection) are
    attached when given.
    """
    if weights.values.shape != pooled.features.shape:
        raise InputError("weights do not align with pooled columns")
    idx = _column_indices(pooled, which)
    scores = ratio_from_logit(_logits(weights, pooled, idx), pooled.n_inlier, pooled.n_test)
    ids = tuple(pooled.sample_ids[i] for i in idx)
    return ScoreSet(sample_ids=ids, scores=scores, labels=labels)


def detect(scores: ScoreSet, tau: float) -> tuple[str, ...]:
    """Flag samples with score <= tau as outliers."""
    if tau < 0:
        raise InputError(f"tau must be nonnegative, got {tau}")
    return tuple(
        LABEL_OUTLIER if s <= tau else LABEL_INLIER for s in scores.scores
    )


def explain(
    weights: WeightMatrix,
    pooled: PooledDataset,
    sample_id: str,
    top_k: int,
) -> Explanation:
    """Top-k features of one sample's column ranked by |weight|,
    ties broken by feature index; the CONST_FEATURE intercept is not
    a feature to explain and is never ranked."""
    if top_k < 1:
        raise InputError("top_k must be at least 1")
    try:
        col = pooled.sample_ids.index(sample_id)
    except ValueError:
        raise InputError(f"no sample with id {sample_id!r}") from None
    w = weights.values[:, col]
    names = pooled.feature_names
    real = np.array([k for k, name in enumerate(names) if name != CONST_FEATURE], dtype=int)
    # a stable sort keeps equal |weights| in feature order
    order = real[np.argsort(-np.abs(w[real]), kind="stable")[:top_k]]
    score = float(ratio_from_logit(_logits(weights, pooled, [col]), pooled.n_inlier,
                                   pooled.n_test)[0])
    ranked = tuple((names[k], float(w[k])) for k in order)
    return Explanation(sample_id=sample_id, ranked_features=ranked, score=score)


def save_scores_csv(path, scores: ScoreSet, decisions=None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["sample_id", "score"]
        if decisions is not None:
            header.append("decision")
        if scores.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i, sid in enumerate(scores.sample_ids):
            row = [sid, repr(float(scores.scores[i]))]
            if decisions is not None:
                row.append(decisions[i])
            if scores.labels is not None:
                row.append(scores.labels[i])
            writer.writerow(row)


def load_scores_csv(path) -> tuple[ScoreSet, tuple[str, ...] | None]:
    """Read a scores CSV back; returns (ScoreSet, decisions or None).
    Malformed input raises an error naming the file and line."""
    rows = read_csv_rows(path)
    if not rows:
        raise InputError(f"{path}: empty file, expected a header row")
    header = rows[0][1]
    cols = {name: k for k, name in enumerate(header)}
    for name in ("sample_id", "score"):
        if name not in cols:
            raise InputError(f"{path}: line {rows[0][0]}: header has no {name!r} column")
    ids, scores, labels, decisions = [], [], [], []
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise InputError(f"{path}: line {line} has {len(row)} fields, expected {len(header)}")
        ids.append(row[cols["sample_id"]])
        score = parse_float(path, line, "score", row[cols["score"]])
        if not (np.isfinite(score) and score > 0):
            raise InputError(f"{path}: line {line}: score {score!r} is not positive and finite")
        scores.append(score)
        if "label" in cols:
            labels.append(parse_label(path, line, row[cols["label"]]))
        if "decision" in cols:
            decisions.append(row[cols["decision"]])
    return (
        ScoreSet(
            sample_ids=tuple(ids),
            scores=np.asarray(scores),
            labels=tuple(labels) if "label" in cols else None,
        ),
        tuple(decisions) if "decision" in cols else None,
    )


def save_explanations_json(path, explanations) -> None:
    doc = [
        {
            "sample_id": e.sample_id,
            "score": e.score,
            "features": [{"name": n, "weight": w} for n, w in e.ranked_features],
        }
        for e in explanations
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
