"""Dataset containers, inlier/test pooling, and feature standardization.

Conventions: feature matrices are column-major, ``features[k, i]`` is
feature k of sample i.  CSV files are row-major (one sample per row)
and transposed on load.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, check_number

SCALE_FLOOR = 1e-8

LABEL_INLIER = "inlier"
LABEL_OUTLIER = "outlier"
# name of the constant feature that `fit --intercept` appends; reserved
# in CSV headers, never standardized and never explained
CONST_FEATURE = "__const__"


def as_matrix(values, what: str = "features") -> np.ndarray:
    """``values`` as a finite float d x m array with d, m >= 1, or
    InputError naming ``what``: its shape, or that it is not finite."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not numbers, ragged rows, an int past 1e308
        raise InputError(f"{what} must be a d x m matrix of numbers") from None
    if arr.ndim != 2 or 0 in arr.shape:
        raise InputError(f"{what} must be a d x m matrix with d, m >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite, got NaN or infinite entries")
    return arr


@dataclass(frozen=True)
class Dataset:
    """A d x m matrix of samples with feature names and sample ids."""

    features: np.ndarray
    feature_names: tuple[str, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        feats = as_matrix(self.features)
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        if len(self.feature_names) != feats.shape[0]:
            raise InputError(
                f"{len(self.feature_names)} feature names for {feats.shape[0]} features"
            )
        if len(self.sample_ids) != feats.shape[1]:
            raise InputError(f"{len(self.sample_ids)} sample ids for {feats.shape[1]} samples")
        if len(set(self.sample_ids)) != len(self.sample_ids):
            seen = set()
            repeated = next(sid for sid in self.sample_ids if sid in seen or seen.add(sid))
            raise InputError(f"sample ids must be unique; {repeated!r} appears more than once")

    @property
    def d(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def columns(self, idx) -> Dataset:
        """The samples at column indices ``idx``, in that order."""
        return Dataset(
            features=self.features[:, idx],
            feature_names=self.feature_names,
            sample_ids=tuple(self.sample_ids[i] for i in idx),
        )


@dataclass(frozen=True)
class PooledDataset(Dataset):
    """Inlier and test samples concatenated with +/-1 class labels.

    Inlier columns come first and carry label +1; test columns follow
    with label -1, so ``labels`` follows from n_inlier and n_test.
    """

    n_inlier: int
    n_test: int
    labels: np.ndarray = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        for name in ("n_inlier", "n_test"):
            check_number(name, getattr(self, name), 0, integer=True)
        if self.m != self.n_inlier + self.n_test:
            raise InputError("pooled features and sample counts inconsistent")
        labels = np.repeat([1, -1], [self.n_inlier, self.n_test])
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)


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
            raise InputError("mean and scale must be equal-length vectors")
        if np.any(scale <= 0):
            raise InputError("scale entries must be positive")

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def pool(inliers: Dataset, test: Dataset) -> PooledDataset:
    """Concatenate inliers (label +1) and test samples (label -1), which
    share their feature names and no sample id."""
    if inliers.d != test.d or inliers.feature_names != test.feature_names:
        raise InputError("inlier and test datasets must share dimension and feature names")
    return PooledDataset(
        features=np.hstack([inliers.features, test.features]),
        n_inlier=inliers.m,
        n_test=test.m,
        feature_names=inliers.feature_names,
        sample_ids=inliers.sample_ids + test.sample_ids,
    )


def with_intercept(data: Dataset) -> Dataset:
    """``data`` with a last CONST_FEATURE row of ones."""
    return replace(data, features=np.vstack([data.features, np.ones((1, data.m))]),
                   feature_names=data.feature_names + (CONST_FEATURE,))


def fit_standardizer(inliers: Dataset) -> StandardizationStats:
    """Per-feature mean/std over inlier columns (m denominator, floored).
    A CONST_FEATURE row gets mean 0 and scale 1, so it stays all ones."""
    if inliers.m < 2:
        raise InputError("standardization needs at least 2 inlier samples")
    const = np.array([name == CONST_FEATURE for name in inliers.feature_names])
    mean = np.where(const, 0.0, inliers.features.mean(axis=1))
    std = inliers.features.std(axis=1)  # population std, divisor m
    scale = np.where(const, 1.0, np.maximum(std, SCALE_FLOOR))
    return StandardizationStats(mean=mean, scale=scale)


def apply_standardizer(data: Dataset, stats: StandardizationStats) -> Dataset:
    """Return a copy of ``data`` with each feature z-scored by ``stats``.
    A z-score past the float range, as from a tiny scale, raises
    InputError naming the feature."""
    if data.d != stats.d:
        raise InputError(f"dataset has {data.d} features but stats has {stats.d}")
    with np.errstate(over="ignore"):
        features = (data.features - stats.mean[:, None]) / stats.scale[:, None]
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise InputError(
            f"standardizing feature {data.feature_names[k]!r} (mean {stats.mean[k]!r}, "
            f"scale {stats.scale[k]!r}) overflows"
        )
    return replace(data, features=features)


def parse_float(path, line: int, column: str, text: str) -> float:
    """``float(text)``, or InputError naming the file, line and column."""
    try:
        return float(text)
    except ValueError:
        raise InputError(
            f"{path}: line {line}, column {column!r}: {text!r} is not a number"
        ) from None


def parse_label(path, line: int, text: str) -> str:
    """``text`` stripped, or InputError naming the file and line unless
    it is one of the two labels."""
    label = text.strip()
    if label not in (LABEL_INLIER, LABEL_OUTLIER):
        raise InputError(f"{path}: row {line} has label {label!r}, "
                         f"expected {LABEL_INLIER!r} or {LABEL_OUTLIER!r}")
    return label


def read_csv_rows(path) -> list[tuple[int, list[str]]]:
    """The non-empty rows of a UTF-8 CSV file, each with its line number
    in the file.  A row the csv module rejects, as one with a field past
    its size limit, or bytes that are not UTF-8 raise InputError naming
    the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            # no line number: the decoder reads ahead of the csv reader in chunks
            raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from None


def read_json_object(path, what: str) -> dict:
    """The JSON object in a UTF-8 file; anything else raises InputError
    reading "<what> PATH: ..."."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
            raise InputError(f"{what} {path}: not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{what} {path}: must hold a JSON object")
    return doc


def load_csv(path, id_prefix: str = "") -> tuple[Dataset, list[str] | None]:
    """Load a dataset from CSV (header row of feature names, one sample
    per row).  A trailing column named "label" with values
    {inlier, outlier} is split off and returned separately (or None);
    any other label value, a column named CONST_FEATURE, or an empty or
    repeated feature name raises InputError.
    """
    rows = read_csv_rows(path)
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one sample")
    header = [h.strip() for h in rows[0][1]]
    has_label = header and header[-1] == "label"
    names = header[:-1] if has_label else header
    if not names:
        raise InputError(f"{path}: header has no feature column")
    if CONST_FEATURE in names:
        raise InputError(f"{path}: column name {CONST_FEATURE!r} is reserved for the intercept")
    seen = set()
    for name in names:
        if not name or name in seen:
            raise InputError(f"{path}: feature name {name!r} is {'repeated' if name else 'empty'}")
        seen.add(name)
    values = []
    labels: list[str] | None = [] if has_label else None
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise InputError(f"{path}: row {line} has {len(row)} fields, expected {len(header)}")
        if has_label:
            labels.append(parse_label(path, line, row[-1]))
            row = row[:-1]
        try:
            values.append(list(map(float, row)))
        except ValueError:
            # parse again cell by cell to name the bad one
            values.append([parse_float(path, line, n, v) for n, v in zip(names, row)])
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        i, k = np.argwhere(~np.isfinite(values))[0]
        line, row = rows[i + 1]
        raise InputError(
            f"{path}: line {line}, column {names[k]!r}: {row[k]!r} is not a finite number"
        )
    features = values.T
    ids = tuple(f"{id_prefix}s{i}" for i in range(features.shape[1]))
    return Dataset(features=features, feature_names=tuple(names), sample_ids=ids), labels


def save_csv(path, data: Dataset, labels=None) -> None:
    """Write a dataset as CSV, one sample per row, optional label column
    of one inlier/outlier label per sample."""
    if labels is not None:
        if len(labels) != data.m:
            raise InputError(f"{len(labels)} labels for {data.m} samples")
        for label in labels:
            if label not in (LABEL_INLIER, LABEL_OUTLIER):
                raise InputError(
                    f"label {label!r}, expected {LABEL_INLIER!r} or {LABEL_OUTLIER!r}"
                )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        header = list(data.feature_names) + (["label"] if labels is not None else [])
        csv.writer(fh).writerow(header)
        # the csv module's rows, unquoted: the repr of a finite float and
        # the two labels hold no delimiter, quote or line break; one row
        # of Python floats at a time, so no copy of the matrix is held
        ends = ["\r\n"] * data.m if labels is None else [f",{label}\r\n" for label in labels]
        fh.writelines(",".join(map(repr, row.tolist())) + end
                      for row, end in zip(data.features.T, ends))
