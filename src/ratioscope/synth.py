"""Seeded synthetic inlier/test data: standard normal inliers plus a
shifted-mean outlier cluster on the first two features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LABEL_INLIER, LABEL_OUTLIER, Dataset
from .errors import check_number
from .libm import log

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
        check_seed(self.seed)
        check_number("d", self.d, 2, integer=True)  # the mean shift uses two features
        for name in ("n_inlier", "n_test_inlier", "n_test_outlier"):
            check_number(name, getattr(self, name), 1, integer=True)
        # in Python ints: a product of numpy integers could wrap around
        size = int(self.d) * sum(map(int, (self.n_inlier, self.n_test_inlier, self.n_test_outlier)))
        check_number("d * (n_inlier + n_test_inlier + n_test_outlier)", size, 1, 2**31)


def check_seed(seed) -> None:
    check_number("seed", seed, 0, integer=True)


def trial_stream(seed: int, role: int, trial: int) -> np.random.Generator:
    """The counter-based Philox stream keyed by (seed, role, trial)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(role, trial))
    return np.random.Generator(np.random.Philox(seed=ss))


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the code behind scipy.special.ndtri, in its evaluation
# order so that every variate keeps its bits.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
# central, exp(-2) < p <= 1 - exp(-2), on (p - 0.5)**2; each Q's leading 1 is left out
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# tails with x = sqrt(-2 log y) in [2, 8)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# tails with x >= 8, that is y < exp(-32)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x, coeffs, monic=False):
    """Cephes polevl, or p1evl if monic: coeffs then leave out the leading 1."""
    a = x + coeffs[0] if monic else coeffs[0]
    for c in coeffs[1:]:
        a = a * x + c
    return a


def _ratio(x, p, q):
    """x * P(x) / Q(x), rounded as the C expression is."""
    return (x * _horner(x, p)) / _horner(x, q, monic=True)


def _ndtri(p: np.ndarray) -> np.ndarray:
    """The inverse standard normal CDF of every entry of p, all in (0, 1)."""
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    c = y[mid] - 0.5
    out[mid] = (c + c * _ratio(c * c, _P0, _Q0)) * _S2PI
    tail = ~mid
    x = np.sqrt(-2.0 * log(y[tail]))
    z = 1.0 / x
    x1 = np.where(x < 8.0, _ratio(z, _P1, _Q1), _ratio(z, _P2, _Q2))
    x = (x - log(x) / x) - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _normals(shape, seed: int, role: int, trial: int) -> np.ndarray:
    """Standard normals from trial_stream(seed, role, trial); variates
    via the inverse Gaussian CDF, _ndtri, a numpy port of Cephes ndtri
    that gives scipy.special.ndtri's bits without importing scipy. Its
    logarithms go through libm.log, as the C code's go through libm."""
    u = trial_stream(seed, role, trial).random(size=shape)
    tiny = 2.0**-53
    return _ndtri(np.clip(u, tiny, 1.0 - tiny))


def generate(spec: SynthSpec, trial: int = 0):
    """Draw (inliers, test, test_labels) for one trial.

    Inliers and test inliers are N(0, I); test outliers are N(mu, I)
    with mu = (3, -2, 0, ..., 0).  Output is fully determined by
    (spec.seed, trial).
    """
    check_number("trial", trial, 0, integer=True)
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
