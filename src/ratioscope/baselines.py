"""Reference detectors sharing the ScoreSet contract.

All methods emit scores with the same orientation as the ratio
detector: higher = more inlier-like.  Density methods return densities,
LOF returns the inverse factor, ratio methods return the estimated
inlier/test ratio.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .data import Dataset, PooledDataset
from .errors import InputError, SingularSystem, SolverFailure
from .graph import nearest, pairwise_sq_dists
from .scores import EXP_CLAMP, ScoreSet, ratio_from_logit

SCORE_FLOOR = 1e-12
DIST_FLOOR = 1e-12
# kernel centers of KLIEP, uLSIF and RuLSIF, subsampled from the inliers
DEFAULT_BASIS = 100
# iteration caps and stopping tolerances of the iterative fits
_OSVM_MAX_ITERS = 5000
_OSVM_KKT_TOL = 1e-6
_L1LR_MAX_ITERS = 20000
_L1LR_TOL = 1e-5
_KLIEP_MAX_ITERS = 2000
_KLIEP_TOL = 1e-7


@dataclass(frozen=True)
class KernelModel:
    """Gaussian kernel expansion sum_l alpha_l exp(-||x - c_l||^2 / 2 sigma2)."""

    centers: np.ndarray
    alphas: np.ndarray
    sigma2: float
    converged: bool = True
    iterations: int = 0


@dataclass(frozen=True)
class LinearModel:
    w: np.ndarray
    converged: bool = True


def gauss_design(query: np.ndarray, centers: np.ndarray, sigma2: float) -> np.ndarray:
    """Design matrix Phi[i, l] = kernel(query_i, center_l)."""
    return np.exp(-pairwise_sq_dists(query, centers) / (2.0 * sigma2))


def check_kernel_width(name: str, sigma: float) -> None:
    """Raise InputError naming the width unless sigma > 0 and the kernel's divisor
    2 sigma**2 is normal and finite (subnormal at 1e-160, inf at 1e154)."""
    divisor = 2.0 * (float(sigma) * float(sigma))  # Python floats overflow to inf without a warning
    if not (sigma > 0 and sys.float_info.min <= divisor < math.inf):
        raise InputError(f"{name} must be positive with a normal, finite 2 sigma**2, got {sigma}")


def _subsample_centers(samples: np.ndarray, seed: int) -> np.ndarray:
    """DEFAULT_BASIS columns drawn by a PCG64 generator, or all if fewer."""
    m = samples.shape[1]
    if DEFAULT_BASIS >= m:
        return samples
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(m, size=DEFAULT_BASIS, replace=False))
    return samples[:, idx]


# ---------------------------------------------------------------------------
# KDE

def kde_fit_score(inliers: Dataset, query: Dataset, sigma: float) -> ScoreSet:
    """Gaussian kernel density of each query point under the inliers."""
    from scipy.special import logsumexp

    check_kernel_width("kde sigma", sigma)
    if inliers.d != query.d:
        raise InputError("inlier and query dimensions differ")
    d, n = inliers.d, inliers.m
    d2 = pairwise_sq_dists(query.features, inliers.features)
    logp = (
        logsumexp(-d2 / (2.0 * sigma**2), axis=1)
        - np.log(n)
        - 0.5 * d * np.log(2.0 * np.pi * sigma**2)
    )
    scores = np.exp(np.clip(logp, -EXP_CLAMP, EXP_CLAMP))
    return ScoreSet(sample_ids=query.sample_ids, scores=scores)


# ---------------------------------------------------------------------------
# LOF

def check_lof_k(K: int, m: float = math.inf) -> None:
    """Raise InputError unless 1 <= K < m, the number of reference samples."""
    if not 1 <= K < m:
        raise InputError(
            f"lof K must be at least 1 and below the number of reference samples, got {K}"
        )


def lof_score(reference: Dataset, query: Dataset, K: int) -> ScoreSet:
    """Inverted local outlier factor (1/LOF, higher = more inlier).

    g(z) is the inverse mean distance from z to its K nearest reference
    neighbors (self excluded for reference points); LOF averages the
    neighbors' g over the query's own g.
    """
    check_lof_k(K, reference.m)
    if reference.d != query.d:
        raise InputError("reference and query dimensions differ")
    ref = reference.features
    rd = np.sqrt(pairwise_sq_dists(ref, ref))
    np.fill_diagonal(rd, np.inf)
    rd_near = np.take_along_axis(rd, nearest(rd, K), axis=1)
    g_ref = 1.0 / np.maximum(rd_near.mean(axis=1), DIST_FLOOR)

    qd = np.sqrt(pairwise_sq_dists(query.features, ref))
    # a query coinciding with a reference point is that point: drop one
    # zero distance, mirroring the self-exclusion for reference points
    self_col = np.argmin(qd, axis=1)
    rows = np.arange(qd.shape[0])
    hit = qd[rows, self_col] < DIST_FLOOR
    qd[rows[hit], self_col[hit]] = np.inf
    near = nearest(qd, K)
    qd_near = np.take_along_axis(qd, near, axis=1)
    g_query = 1.0 / np.maximum(qd_near.mean(axis=1), DIST_FLOOR)
    lof = g_ref[near].mean(axis=1) / g_query
    return ScoreSet(sample_ids=query.sample_ids, scores=1.0 / np.maximum(lof, SCORE_FLOOR))


# ---------------------------------------------------------------------------
# One-class SVM

def box_simplex_threshold(v: np.ndarray, c: float) -> float:
    """Threshold theta with sum(clip(v - theta, 0, c)) = 1, exactly.

    f(theta) = sum(clip(v - theta, 0, c)) is piecewise linear and
    nonincreasing with breakpoints v_i and v_i - c (Wang & Lu 2015,
    "Projection onto the capped simplex").  f is evaluated at every
    breakpoint from prefix sums of the sorted v; on the segment where it
    crosses 1 the free entries (theta < v_i < theta + c) are fixed and
    theta = (sum_free v_i + c * n_capped - 1) / n_free.  O(n log n).
    """
    n = len(v)
    if c * n < 1.0 - 1e-12:
        raise InputError("box cap too small for the simplex constraint")
    s = np.sort(v)
    s_c = s - c
    prefix = np.concatenate(([0.0], np.cumsum(s)))
    bps = np.sort(np.concatenate((s_c, s)))
    # at theta = bp: entries up to n_zero are 0, entries from n_low on are c
    n_zero = np.searchsorted(s, bps, side="right")
    n_low = np.searchsorted(s_c, bps, side="left")
    f = prefix[n_low] - prefix[n_zero] - (n_low - n_zero) * bps + c * (n - n_low)
    # f(bps[-1]) = 0, so some breakpoint has f < 1; take the first.  Both
    # ends of a segment without free entries compute f identically, so f
    # cannot cross 1 there: (bps[k], bps[k + 1]) has free entries, hi > lo.
    k = int(np.argmax(f < 1.0)) - 1
    if k < 0:
        # c * n = 1 up to rounding: the box meets the simplex at a = c
        return float(s[0] - 2.0 * c)
    lo = int(np.searchsorted(s, bps[k], side="right"))
    hi = int(np.searchsorted(s_c, bps[k], side="right"))
    return float((np.sum(s[lo:hi]) + c * (n - hi) - 1.0) / (hi - lo))


def project_box_simplex(v: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= c, sum(a) = 1}."""
    return np.clip(v - box_simplex_threshold(v, c), 0.0, c)


def check_osvm_nu(nu: float) -> None:
    # written so that NaN fails it
    if not 0 < nu <= 1:
        raise InputError(f"osvm nu must lie in (0, 1], got {nu}")


def osvm_fit(samples: Dataset, nu: float, sigma: float) -> KernelModel:
    """Solve the one-class SVM dual by accelerated projected gradient
    (FISTA, Beck & Teboulle 2009) with gradient-based adaptive restart
    (O'Donoghue & Candes 2015); the model's kernel_model_score is the
    decision value without offset.

    Each step projects from the extrapolated point y.  Stops when that
    step moves no alpha by more than _OSVM_KKT_TOL * step from y;
    ``converged`` is False when it stops at _OSVM_MAX_ITERS instead.
    """
    check_osvm_nu(nu)
    check_kernel_width("osvm sigma", sigma)
    n = samples.m
    c = 1.0 / (n * nu)  # 0 < nu <= 1 gives c * n >= 1
    X = samples.features
    if nu == 1:
        # the box meets the simplex at the single point alpha = 1/n
        return KernelModel(centers=X, alphas=np.full(n, c), sigma2=sigma**2)
    K = gauss_design(X, X, sigma**2)
    L = float(np.linalg.eigvalsh(K)[-1])
    step = 1.0 / max(L, 1e-12)
    alpha = project_box_simplex(np.full(n, 1.0 / n), c)
    y, t = alpha, 1.0
    converged = False
    iterations = 0
    for iterations in range(1, _OSVM_MAX_ITERS + 1):
        alpha_new = project_box_simplex(y - step * (K @ y), c)
        converged = bool(np.max(np.abs(alpha_new - y)) <= _OSVM_KKT_TOL * step)
        if (y - alpha_new) @ (alpha_new - alpha) > 0:
            # restart: the move alpha -> alpha_new went uphill along the
            # gradient mapping (y - alpha_new) / step
            y, t = alpha_new, 1.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = alpha_new + ((t - 1.0) / t_new) * (alpha_new - alpha)
            t = t_new
        alpha = alpha_new
        if converged:
            break
    return KernelModel(
        centers=X, alphas=alpha, sigma2=sigma**2,
        converged=converged, iterations=iterations,
    )


# ---------------------------------------------------------------------------
# l1-regularized logistic regression

def _lr_loss_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray):
    from scipy.special import expit

    z = y * (X.T @ w)
    loss = float(np.sum(np.logaddexp(0.0, -z)))
    grad = X @ (-y * expit(-z))
    return loss, grad


def l1lr_subgrad_residual(w: np.ndarray, grad: np.ndarray, lam: float) -> float:
    """Max violation of the l1 optimality conditions."""
    res = np.where(
        w != 0.0,
        np.abs(grad + lam * np.sign(w)),
        np.maximum(np.abs(grad) - lam, 0.0),
    )
    return float(np.max(res))


def check_l1lr_lambda(lam: float) -> None:
    # written so that NaN and infinity fail it
    if not 0 <= lam < math.inf:
        raise InputError(f"l1lr lambda must be a nonnegative finite number, got {lam}")


def l1lr_fit(pooled: PooledDataset, lam: float) -> LinearModel:
    """Proximal gradient (soft-thresholding) with backtracking on the
    smooth-part Lipschitz estimate."""
    check_l1lr_lambda(lam)
    X = pooled.features
    y = pooled.labels.astype(float)
    w = np.zeros(pooled.d)
    loss, grad = _lr_loss_grad(w, X, y)
    L = 1.0
    converged = False
    for _ in range(_L1LR_MAX_ITERS):
        if l1lr_subgrad_residual(w, grad, lam) <= _L1LR_TOL:
            converged = True
            break
        while True:
            w_new = w - grad / L
            w_new = np.sign(w_new) * np.maximum(np.abs(w_new) - lam / L, 0.0)
            delta = w_new - w
            loss_new, grad_new = _lr_loss_grad(w_new, X, y)
            if loss_new <= loss + grad @ delta + 0.5 * L * float(delta @ delta) + 1e-12:
                break
            L *= 2.0
        w, loss, grad = w_new, loss_new, grad_new
        L = max(L * 0.9, 1e-6)  # allow the estimate to shrink again
    return LinearModel(w=w, converged=converged)


def l1lr_score(model: LinearModel, query: Dataset, n_test: int, n_inlier: int) -> ScoreSet:
    scores = ratio_from_logit(query.features.T @ model.w, n_inlier, n_test)
    return ScoreSet(sample_ids=query.sample_ids, scores=scores)


# ---------------------------------------------------------------------------
# KLIEP

def kliep_fit(inliers: Dataset, test: Dataset, tau: float, seed: int = 0) -> KernelModel:
    """Fit the inlier/test ratio by constrained log-likelihood ascent.

    Log-likelihood runs over the numerator (inlier) samples; the mean
    of the model over the denominator (test) samples is renormalized to
    1 after every step, and alpha stays entrywise nonnegative.  Every
    accepted step keeps or raises the log-likelihood.
    """
    check_kernel_width("kliep tau", tau)
    centers = _subsample_centers(inliers.features, seed)
    sigma2 = tau**2
    phi_nu = gauss_design(inliers.features, centers, sigma2)  # numerator terms
    phi_de = gauss_design(test.features, centers, sigma2)  # constraint terms

    def normalize(a):
        mean_de = float(np.mean(phi_de @ a))
        if mean_de <= 0:
            raise SolverFailure("projection annihilated alpha (degenerate width)")
        return a / mean_de

    def objective(a):
        vals = phi_nu @ a
        if np.any(vals <= 0):
            return -np.inf
        return float(np.sum(np.log(vals)))

    alpha = normalize(np.ones(centers.shape[1]))
    f = objective(alpha)
    eta = 1.0
    n_nu = inliers.m
    de_mean = phi_de.mean(axis=0)
    converged = False
    iterations = 0
    for iterations in range(1, _KLIEP_MAX_ITERS + 1):
        # gradient of the renormalized objective
        # sum log(phi_nu a) - n log(mean(phi_de a))
        g = phi_nu.T @ (1.0 / (phi_nu @ alpha)) - n_nu * de_mean / float(
            np.mean(phi_de @ alpha)
        )
        improved = False
        while eta >= 1e-14:
            cand = np.maximum(alpha + eta * g, 0.0)
            if not np.any(cand > 0):
                eta *= 0.5
                continue
            cand = normalize(cand)
            f_cand = objective(cand)
            if f_cand >= f:
                improved = f_cand > f + _KLIEP_TOL * (1.0 + abs(f))
                alpha, f = cand, f_cand
                eta *= 1.5
                break
            eta *= 0.5
        if not improved:
            converged = True
            break
    return KernelModel(
        centers=centers, alphas=alpha, sigma2=sigma2,
        converged=converged, iterations=iterations,
    )


def kliep_constraint_value(model: KernelModel, test: Dataset) -> float:
    phi_de = gauss_design(test.features, model.centers, model.sigma2)
    return float(np.mean(phi_de @ model.alphas))


# ---------------------------------------------------------------------------
# uLSIF / RuLSIF

def check_rulsif(beta: float, nu: float) -> None:
    # written so that NaN and infinity fail them
    if not 0 <= beta <= 1:
        raise InputError(f"rulsif beta must lie in [0, 1], got {beta}")
    if not 0 <= nu < math.inf:
        raise InputError(f"ulsif/rulsif nu must be a nonnegative finite number, got {nu}")


def rulsif_fit(
    inliers: Dataset,
    test: Dataset,
    beta: float,
    nu: float,
    sigma: float,
    seed: int = 0,
) -> KernelModel:
    """Closed-form (relative) least-squares importance fit.

    beta = 1 estimates the plain inlier/test ratio (uLSIF); beta in
    (0, 1) mixes the denominator toward the inlier density.
    """
    check_rulsif(beta, nu)
    check_kernel_width("ulsif/rulsif sigma", sigma)
    centers = _subsample_centers(inliers.features, seed)
    sigma2 = sigma**2
    phi_in = gauss_design(inliers.features, centers, sigma2)
    phi_te = gauss_design(test.features, centers, sigma2)
    H = (1.0 - beta) / inliers.m * (phi_in.T @ phi_in) + beta / test.m * (
        phi_te.T @ phi_te
    )
    h = phi_in.mean(axis=0)
    A = H + nu * np.eye(H.shape[0])
    # before the try, so that sla.LinAlgError is bound in the except
    import scipy.linalg as sla

    try:
        factor = sla.cho_factor(A)
        alpha = sla.cho_solve(factor, h)
    except sla.LinAlgError as exc:
        raise SingularSystem(
            "kernel Gram matrix is rank-deficient; use nu > 0"
        ) from exc
    residual = np.linalg.norm(A @ alpha - h)
    if residual > 1e-8 * max(np.linalg.norm(h), 1e-300):
        raise SingularSystem("linear solve failed to reach residual tolerance")
    return KernelModel(centers=centers, alphas=alpha, sigma2=sigma2)


def kernel_model_score(model: KernelModel, query: Dataset) -> ScoreSet:
    """Evaluate sum_l alpha_l kernel(x, c_l) at the query points,
    floored at SCORE_FLOOR."""
    phi = gauss_design(query.features, model.centers, model.sigma2)
    scores = np.maximum(phi @ model.alphas, SCORE_FLOOR)
    return ScoreSet(sample_ids=query.sample_ids, scores=scores)
