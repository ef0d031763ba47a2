"""Dataset containers, inlier/test pooling, and feature standardization.

Conventions: feature matrices are column-major, ``features[k, i]`` is
feature k of sample i.  CSV files are row-major (one sample per row)
and transposed on load.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidLabel, MalformedCsv, TooFewSamples

SCALE_FLOOR = 1e-8

LABEL_INLIER = "inlier"
LABEL_OUTLIER = "outlier"


@dataclass(frozen=True)
class Dataset:
    """A d x m matrix of samples with feature names and sample ids."""

    features: np.ndarray
    feature_names: tuple[str, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DimensionMismatch(
                f"features must be a d x m matrix with d, m >= 1, got shape {feats.shape}"
            )
        if not np.all(np.isfinite(feats)):
            raise DimensionMismatch("features contain NaN or infinite entries")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        if len(self.feature_names) != feats.shape[0]:
            raise DimensionMismatch(
                f"{len(self.feature_names)} feature names for {feats.shape[0]} features"
            )
        if len(self.sample_ids) != feats.shape[1]:
            raise DimensionMismatch(
                f"{len(self.sample_ids)} sample ids for {feats.shape[1]} samples"
            )
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise DimensionMismatch("sample ids must be unique")

    @property
    def d(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class PooledDataset:
    """Inlier and test samples concatenated with +/-1 class labels.

    Inlier columns come first and carry label +1; test columns follow
    with label -1.  Feature names and sample ids are carried along so
    scores and explanations can refer back to the originals.
    """

    features: np.ndarray
    labels: np.ndarray
    n_inlier: int
    n_test: int
    feature_names: tuple[str, ...] = field(default=())
    sample_ids: tuple[str, ...] = field(default=())

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        m = self.n_inlier + self.n_test
        if feats.shape[1] != m or labels.shape != (m,):
            raise DimensionMismatch("pooled features/labels sizes inconsistent")
        if int(np.sum(labels == 1)) != self.n_inlier or int(np.sum(labels == -1)) != self.n_test:
            raise DimensionMismatch("labels must be +1 for inliers and -1 for test samples")

    @property
    def d(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class StandardizationStats:
    """Per-feature location/scale learned from inlier samples."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        scale = np.asarray(self.scale, dtype=float)
        mean.setflags(write=False)
        scale.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)
        if mean.shape != scale.shape or mean.ndim != 1:
            raise DimensionMismatch("mean and scale must be equal-length vectors")
        if np.any(scale <= 0):
            raise DimensionMismatch("scale entries must be positive")

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def pool(inliers: Dataset, test: Dataset) -> PooledDataset:
    """Concatenate inliers (label +1) and test samples (label -1)."""
    if inliers.d != test.d or inliers.feature_names != test.feature_names:
        raise DimensionMismatch(
            "inlier and test datasets must share dimension and feature names"
        )
    features = np.hstack([inliers.features, test.features])
    labels = np.concatenate(
        [np.ones(inliers.m, dtype=int), -np.ones(test.m, dtype=int)]
    )
    return PooledDataset(
        features=features,
        labels=labels,
        n_inlier=inliers.m,
        n_test=test.m,
        feature_names=inliers.feature_names,
        sample_ids=inliers.sample_ids + test.sample_ids,
    )


def fit_standardizer(inliers: Dataset) -> StandardizationStats:
    """Per-feature mean/std over inlier columns (m denominator, floored)."""
    if inliers.m < 2:
        raise TooFewSamples("standardization needs at least 2 inlier samples")
    mean = inliers.features.mean(axis=1)
    std = inliers.features.std(axis=1)  # population std, divisor m
    scale = np.maximum(std, SCALE_FLOOR)
    return StandardizationStats(mean=mean, scale=scale)


def apply_standardizer(data: Dataset, stats: StandardizationStats) -> Dataset:
    """Return a copy of ``data`` with each feature z-scored by ``stats``.
    A z-score past the float range, as from a tiny scale, raises
    ValueError naming the feature."""
    if data.d != stats.d:
        raise DimensionMismatch(
            f"dataset has {data.d} features but stats has {stats.d}"
        )
    with np.errstate(over="ignore"):
        features = (data.features - stats.mean[:, None]) / stats.scale[:, None]
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(
            f"standardizing feature {data.feature_names[k]!r} (mean {stats.mean[k]!r}, "
            f"scale {stats.scale[k]!r}) overflows"
        )
    return Dataset(
        features=features,
        feature_names=data.feature_names,
        sample_ids=data.sample_ids,
    )


def parse_float(path, line: int, column: str, text: str) -> float:
    """``float(text)``, or MalformedCsv naming the file, line and column."""
    try:
        return float(text)
    except ValueError:
        raise MalformedCsv(
            f"{path}: line {line}, column {column!r}: {text!r} is not a number"
        ) from None


def load_csv(path, id_prefix: str = "") -> tuple[Dataset, list[str] | None]:
    """Load a dataset from CSV (header row of feature names, one sample
    per row).  A trailing column named "label" with values
    {inlier, outlier} is split off and returned separately (or None);
    any other label value raises InvalidLabel.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        # keep each row's line number in the file for error messages
        rows = [(reader.line_num, row) for row in reader if row]
    if len(rows) < 2:
        raise TooFewSamples(f"{path}: need a header row and at least one sample")
    header = [h.strip() for h in rows[0][1]]
    has_label = header and header[-1] == "label"
    names = header[:-1] if has_label else header
    values = []
    labels: list[str] | None = [] if has_label else None
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise DimensionMismatch(f"{path}: row {line} has {len(row)} fields, expected {len(header)}")
        if has_label:
            label = row[-1].strip()
            if label not in (LABEL_INLIER, LABEL_OUTLIER):
                raise InvalidLabel(
                    f"{path}: row {line} has label {label!r}, "
                    f"expected {LABEL_INLIER!r} or {LABEL_OUTLIER!r}"
                )
            labels.append(label)
            row = row[:-1]
        try:
            values.append([float(v) for v in row])
        except ValueError:
            # parse again cell by cell to name the bad one
            values.append([parse_float(path, line, n, v) for n, v in zip(names, row)])
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        i, k = np.argwhere(~np.isfinite(values))[0]
        line, row = rows[i + 1]
        raise MalformedCsv(
            f"{path}: line {line}, column {names[k]!r}: {row[k]!r} is not a finite number"
        )
    features = values.T
    ids = tuple(f"{id_prefix}s{i}" for i in range(features.shape[1]))
    return Dataset(features=features, feature_names=tuple(names), sample_ids=ids), labels


def save_csv(path, data: Dataset, labels=None) -> None:
    """Write a dataset as CSV, one sample per row, optional label column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(data.feature_names) + (["label"] if labels is not None else [])
        writer.writerow(header)
        for i in range(data.m):
            row = [repr(float(v)) for v in data.features[:, i]]
            if labels is not None:
                row.append(labels[i])
            writer.writerow(row)
