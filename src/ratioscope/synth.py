"""Seeded synthetic inlier/test data: standard normal inliers plus a
shifted-mean outlier cluster on the first two features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LABEL_INLIER, LABEL_OUTLIER, Dataset
from .errors import InputError

ROLE_INLIER = 0
ROLE_TEST_INLIER = 1
ROLE_OUTLIER = 2
ROLE_RESPLIT = 3  # harness.resplit_dataset's split of a labelled dataset


@dataclass(frozen=True)
class SynthSpec:
    d: int
    n_inlier: int = 200
    n_test_inlier: int = 100
    n_test_outlier: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.d < 2:
            raise InputError("d must be at least 2 (the mean shift uses two features)")
        if min(self.n_inlier, self.n_test_inlier, self.n_test_outlier) < 1:
            raise InputError("all sample counts must be at least 1")
        if (size := self.d * (self.n_inlier + self.n_test_inlier + self.n_test_outlier)) > 2**31:
            raise InputError(f"d times the total sample count must be at most 2**31, got {size}")


def trial_stream(seed: int, role: int, trial: int) -> np.random.Generator:
    """The counter-based Philox stream keyed by (seed, role, trial)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(role, trial))
    return np.random.Generator(np.random.Philox(seed=ss))


def _normals(shape, seed: int, role: int, trial: int) -> np.ndarray:
    """Standard normals from trial_stream(seed, role, trial); variates
    via the inverse Gaussian CDF."""
    from scipy.special import ndtri

    u = trial_stream(seed, role, trial).random(size=shape)
    tiny = 2.0**-53
    return ndtri(np.clip(u, tiny, 1.0 - tiny))


def generate(spec: SynthSpec, trial: int = 0):
    """Draw (inliers, test, test_labels) for one trial.

    Inliers and test inliers are N(0, I); test outliers are N(mu, I)
    with mu = (3, -2, 0, ..., 0).  Output is fully determined by
    (spec.seed, trial).
    """
    if trial < 0:
        raise InputError(f"trial must be non-negative, got {trial}")
    names = tuple(f"f{k + 1}" for k in range(spec.d))
    mu = np.zeros(spec.d)
    mu[0], mu[1] = 3.0, -2.0
    inl = _normals((spec.d, spec.n_inlier), spec.seed, ROLE_INLIER, trial)
    test_in = _normals((spec.d, spec.n_test_inlier), spec.seed, ROLE_TEST_INLIER, trial)
    test_out = (
        _normals((spec.d, spec.n_test_outlier), spec.seed, ROLE_OUTLIER, trial)
        + mu[:, None]
    )
    inliers = Dataset(
        features=inl,
        feature_names=names,
        sample_ids=tuple(f"inlier{i}" for i in range(spec.n_inlier)),
    )
    test = Dataset(
        features=np.hstack([test_in, test_out]),
        feature_names=names,
        sample_ids=tuple(f"test{i}" for i in range(spec.n_test_inlier + spec.n_test_outlier)),
    )
    labels = [LABEL_INLIER] * spec.n_test_inlier + [LABEL_OUTLIER] * spec.n_test_outlier
    return inliers, test, labels
