"""Ratio scores, threshold detection, and per-sample feature explanations."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

from .data import CONST_FEATURE, LABEL_INLIER, LABEL_OUTLIER, PooledDataset
from .data import as_matrix, check_labels, parse_float, parse_label, read_csv_rows
from .errors import InputError, check_choice, check_number

if TYPE_CHECKING:
    from .llr import WeightMatrix

EXP_CLAMP = 500.0
SELECTORS = ("test", "inlier", "all")  # ratio_score's choices of pooled columns


@dataclass(frozen=True)
class ScoreSet:
    """Per-sample ratio scores; higher means more inlier-like."""

    sample_ids: tuple[str, ...]
    scores: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        scores = as_matrix(self.scores, "scores", ndim=1, n=len(self.sample_ids))
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        if np.any(scores <= 0):
            raise InputError("scores must be strictly positive and finite")
        if self.labels is not None:
            object.__setattr__(self, "labels", check_labels(self.labels, len(scores), "labels"))


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


def ratio_score(
    weights: WeightMatrix,
    pooled: PooledDataset,
    which: str = "test",
    labels=None,
) -> ScoreSet:
    """Score ratio_from_logit(w_i . x_i) for the pooled columns ``which``
    selects (one of SELECTORS).

    ``labels`` (inlier/outlier strings aligned with the selection) are
    attached when given.
    """
    check_choice("which", which, SELECTORS)
    if weights.values.shape != pooled.features.shape:
        raise InputError("weights do not align with pooled columns")
    idx = np.arange(pooled.n_inlier if which == "test" else 0,
                    pooled.n_inlier if which == "inlier" else pooled.m)
    scores = ratio_from_logit(_logits(weights, pooled, idx), pooled.n_inlier, pooled.n_test)
    ids = tuple(pooled.sample_ids[i] for i in idx)
    return ScoreSet(sample_ids=ids, scores=scores, labels=labels)


def check_top_k(top_k, name: str = "top_k") -> None:
    check_number(name, top_k, 1, integer=True)


def detect(scores: ScoreSet, tau: float) -> tuple[str, ...]:
    """Flag samples with score <= tau as outliers."""
    check_number("tau", tau, 0)
    return tuple(
        LABEL_OUTLIER if s <= tau else LABEL_INLIER for s in scores.scores
    )


def explain(
    weights: WeightMatrix,
    pooled: PooledDataset,
    sample_ids,
    top_k: int,
) -> list[Explanation]:
    """One Explanation per id of ``sample_ids``, in their order: the
    top-k features of the sample's column ranked by |weight|, ties
    broken by feature index.  The CONST_FEATURE intercept is not a
    feature to explain and is never ranked."""
    check_top_k(top_k)
    column = {sid: col for col, sid in enumerate(pooled.sample_ids)}
    try:
        cols = np.array([column[sid] for sid in sample_ids], dtype=int)
    except KeyError as exc:
        raise InputError(f"no sample with id {exc.args[0]!r}") from None
    names = pooled.feature_names
    real = np.array([k for k, name in enumerate(names) if name != CONST_FEATURE], dtype=int)
    # a stable sort keeps equal |weights| in feature order
    ranks = np.argsort(-np.abs(weights.values[np.ix_(real, cols)]), axis=0, kind="stable")
    order = real[ranks[:top_k]].T
    top = weights.values[order, cols[:, None]].tolist()
    scores = ratio_from_logit(_logits(weights, pooled, cols), pooled.n_inlier, pooled.n_test)
    return [
        Explanation(
            sample_id=sid,
            ranked_features=tuple((names[k], w) for k, w in zip(ks, ws)),
            score=score,
        )
        for sid, ks, ws, score in zip(sample_ids, order.tolist(), top, scores.tolist())
    ]


def save_scores_csv(path, scores: ScoreSet, decisions=None) -> None:
    """Write one row per sample: id, score, and when given its decision
    (checked before the file opens) and label."""
    if decisions is not None:
        decisions = check_labels(decisions, len(scores.sample_ids), "decisions")
    columns = {"sample_id": scores.sample_ids, "score": map(repr, scores.scores.tolist()),
               "decision": decisions, "label": scores.labels}
    columns = {name: column for name, column in columns.items() if column is not None}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns.keys())
        writer.writerows(zip(*columns.values(), strict=True))


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
        if not 0 < score < math.inf:
            raise InputError(f"{path}: line {line}: score {score!r} is not positive and finite")
        scores.append(score)
        for name, cells in (("label", labels), ("decision", decisions)):
            if name in cols:
                cells.append(parse_label(path, line, row[cols[name]], name))
    return (
        ScoreSet(
            sample_ids=tuple(ids),
            scores=np.asarray(scores),
            labels=tuple(labels) if "label" in cols else None,
        ),
        tuple(decisions) if "decision" in cols else None,
    )


# json's text for the floats whose repr is not JSON
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_NONFINITE.get(text, text)


def save_explanations_json(path, explanations) -> None:
    """Write the explanations as a JSON list of {"sample_id", "score",
    "features": [{"name", "weight"}, ...]} objects, byte for byte what
    json.dump(doc, fh, indent=2) writes.  The text is formatted in one
    pass, because json.dump with an indent runs the pure-Python encoder,
    which costs several times what computing the explanations does.
    Strings are escaped by json's own encode_basestring_ascii, and
    floats are written by float.__repr__, with json's NaN and Infinity."""
    items = []
    for e in explanations:
        features = []
        for name, weight in e.ranked_features:
            features.append(
                f'      {{\n        "name": {encode_basestring_ascii(name)},\n'
                f'        "weight": {_json_float(weight)}\n      }}'
            )
        listed = "[\n" + ",\n".join(features) + "\n    ]" if features else "[]"
        items.append(
            f'  {{\n    "sample_id": {encode_basestring_ascii(e.sample_id)},\n'
            f'    "score": {_json_float(e.score)},\n    "features": {listed}\n  }}'
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(items) + "\n]" if items else "[]")
