"""Reference detectors sharing the ScoreSet contract.

All methods emit scores with the same orientation as the ratio
detector: higher = more inlier-like.  KDE returns the mean Gaussian
kernel over the inliers, LOF the inverse factor, and the ratio methods
the estimated inlier/test ratio.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .data import Dataset, PooledDataset
from .errors import InputError, SingularSystem, SolverFailure, check_number
from .graph import check_neighbors, log_gauss, nearest, pairwise_sq_dists
from .scores import EXP_CLAMP, ScoreSet, ratio_from_logit
from .synth import check_seed

SCORE_FLOOR = 1e-12
DIST_FLOOR = 1e-12
# kernel centers of KLIEP, uLSIF and RuLSIF, subsampled from the inliers
DEFAULT_BASIS = 100
# iteration caps and stopping tolerances of the iterative fits
_OSVM_MAX_ITERS = 5000
_OSVM_GAP_TOL = 1e-9
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
    return np.exp(log_gauss(pairwise_sq_dists(query, centers), sigma2))


def check_kernel_width(name: str, sigma: float) -> None:
    """Raise InputError naming the width unless sigma > 0 and the kernel's divisor
    2 sigma**2 is normal and finite (subnormal at 1e-160, inf at 1e154)."""
    check_number(name, sigma, 0, open_low=True, open_high=True)
    divisor = 2.0 * (float(sigma) * float(sigma))  # Python floats overflow to inf without a warning
    if not sys.float_info.min <= divisor < math.inf:
        raise InputError(f"{name} must give a normal, finite 2 sigma**2, got {sigma!r}")


def _subsample_centers(samples: np.ndarray, seed: int) -> np.ndarray:
    """DEFAULT_BASIS columns drawn by a PCG64 generator, or all if fewer."""
    check_seed(seed)
    m = samples.shape[1]
    if DEFAULT_BASIS >= m:
        return samples
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(m, size=DEFAULT_BASIS, replace=False))
    return samples[:, idx]


# ---------------------------------------------------------------------------
# KDE

def kde_fit_score(inliers: Dataset, query: Dataset, sigma: float) -> ScoreSet:
    """Mean Gaussian kernel of each query point over the inliers: the
    density estimate without its factor (2 pi sigma**2)**(-d/2), which is
    the same for every query and would clamp every score at high d."""
    check_kernel_width("kde sigma", sigma)
    if inliers.d != query.d:
        raise InputError("inlier and query dimensions differ")
    a = log_gauss(pairwise_sq_dists(query.features, inliers.features), sigma**2)
    # log-sum shifted by each row's maximum, less log m; a row whose kernel is
    # 0 at every inlier keeps a shift of 0, so its log is -inf and the clamp holds
    top = a.max(axis=1)
    top[top == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        logp = np.log(np.exp(a - top[:, None]).sum(axis=1)) + top - np.log(inliers.m)
    scores = np.exp(np.clip(logp, -EXP_CLAMP, EXP_CLAMP))
    return ScoreSet(sample_ids=query.sample_ids, scores=scores)


# ---------------------------------------------------------------------------
# LOF

def lof_score(reference: Dataset, query: Dataset, K: int) -> ScoreSet:
    """Inverted local outlier factor (1/LOF, higher = more inlier).

    g(z) is the inverse mean distance from z to its K nearest reference
    neighbors (self excluded for reference points); LOF averages the
    neighbors' g over the query's own g.
    """
    check_neighbors("lof K", K, reference.m)
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
    "Projection onto the capped simplex").  f is evaluated at breakpoints
    from prefix sums of the sorted v; on the segment where it crosses 1
    the free entries (theta < v_i < theta + c) are fixed and
    theta = (sum_free v_i + c * n_capped - 1) / n_free.  O(n log n).

    osvm_fit no longer projects; this, _scan_breakpoint and
    project_box_simplex stay only while the benchmark traces
    project_box_simplex by name, and ROADMAP item 8 deletes them.
    """
    n = len(v)
    if c * n < 1.0 - 1e-12:
        raise InputError("box cap too small for the simplex constraint")
    s = np.sort(v)
    s_c = s - c
    prefix = np.concatenate(([0.0], np.cumsum(s)))
    b = _scan_breakpoint(s, s_c, prefix, c)
    if b is None:
        # c * n = 1 up to rounding: the box meets the simplex at a = c
        return float(s[0] - 2.0 * c)
    lo = int(s.searchsorted(b, "right"))
    hi = int(s_c.searchsorted(b, "right"))
    return float((np.sum(s[lo:hi]) + c * (n - hi) - 1.0) / (hi - lo))


def _scan_breakpoint(s: np.ndarray, s_c: np.ndarray, prefix: np.ndarray, c: float):
    """The last breakpoint before the first at which the computed f is
    below 1, or None when that is the lowest breakpoint."""
    n = len(s)
    bps = np.sort(np.concatenate((s_c, s)))
    # at theta = bp: entries up to n_zero are 0, entries from n_low on are c
    n_zero = np.searchsorted(s, bps, side="right")
    n_low = np.searchsorted(s_c, bps, side="left")
    f = prefix[n_low] - prefix[n_zero] - (n_low - n_zero) * bps + c * (n - n_low)
    # f(bps[-1]) = 0, so some breakpoint has f < 1; take the first.  Both
    # ends of a segment without free entries compute f identically, so f
    # cannot cross 1 there: (bps[k], bps[k + 1]) has free entries, hi > lo.
    k = int(np.argmax(f < 1.0)) - 1
    return None if k < 0 else bps[k]


def project_box_simplex(v: np.ndarray, c: float):
    """Euclidean projection onto {0 <= a <= c, sum(a) = 1} and its
    threshold theta (see box_simplex_threshold)."""
    theta = box_simplex_threshold(v, c)
    return np.clip(v - theta, 0.0, c), theta


def check_osvm_nu(nu: float) -> None:
    check_number("osvm nu", nu, 0, 1, open_low=True)


def osvm_fit(samples: Dataset, nu: float, sigma: float) -> KernelModel:
    """Solve the one-class SVM dual, min alpha^T K alpha / 2 over
    {0 <= alpha <= 1/(n nu), sum(alpha) = 1}, by SMO (Schoelkopf et al.
    2001) with second-order working-set selection (Fan, Chen & Lin 2005,
    as in LIBSVM); the model's kernel_model_score is the decision value
    without offset.

    With G = K alpha, each step takes i with the least G among the
    entries below the cap and, among the entries above 0 with a larger
    G, the j whose pair step lowers the objective most; it moves mass
    from j to i by the clipped Newton step.  Stops once the maximal
    violating pair's gap, max G over alpha > 0 minus G_i, is at most
    _OSVM_GAP_TOL * max(1, |G_i|); ``converged`` is False when it stops
    at _OSVM_MAX_ITERS instead.  ``iterations`` counts the pair
    selections, the last of which finds the gap closed.
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
    diag = K.diagonal()
    alpha = np.full(n, 1.0 / n)
    G = K @ alpha
    converged = False
    iterations = 0
    for iterations in range(1, _OSVM_MAX_ITERS + 1):
        i = int(np.argmin(np.where(alpha < c, G, np.inf)))
        low = alpha > 0.0
        if np.max(G[low]) - G[i] <= _OSVM_GAP_TOL * max(1.0, abs(G[i])):
            converged = True
            break
        gain = G - G[i]
        curv = np.maximum(diag[i] + diag - 2.0 * K[i], 1e-12)
        j = int(np.argmax(np.where(low & (gain > 0.0), gain * gain / curv, -np.inf)))
        room = c - alpha[i]
        delta = min(gain[j] / curv[j], room, alpha[j])
        # a step clipped at a bound lands on it exactly
        alpha[i] = c if delta == room else alpha[i] + delta
        alpha[j] -= delta
        G += delta * (K[i] - K[j])  # K is symmetric: rows are columns
    return KernelModel(
        centers=X, alphas=alpha, sigma2=sigma**2,
        converged=converged, iterations=iterations,
    )


# ---------------------------------------------------------------------------
# l1-regularized logistic regression

def _lr_loss(w: np.ndarray, X: np.ndarray, y: np.ndarray):
    """The logistic loss at w, and its margins y * (X^T w) for _lr_grad."""
    z = y * (X.T @ w)
    return float(np.sum(np.logaddexp(0.0, -z))), z


def _lr_grad(z: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    # -y sigma(-z), with sigma(-z) = exp(-log(1 + exp(z))) finite at any margin
    return X @ (-y * np.exp(-np.logaddexp(0.0, z)))


def l1lr_subgrad_residual(w: np.ndarray, grad: np.ndarray, lam: float) -> float:
    """Max violation of the l1 optimality conditions."""
    res = np.where(
        w != 0.0,
        np.abs(grad + lam * np.sign(w)),
        np.maximum(np.abs(grad) - lam, 0.0),
    )
    return float(np.max(res))


def check_l1lr_lambda(lam: float) -> None:
    check_number("l1lr lambda", lam, 0, open_high=True)


def l1lr_fit(pooled: PooledDataset, lam: float) -> LinearModel:
    """Proximal gradient (soft-thresholding) with backtracking on the
    smooth-part Lipschitz estimate."""
    check_l1lr_lambda(lam)
    X = pooled.features
    y = pooled.labels.astype(float)
    w = np.zeros(pooled.d)
    loss, z = _lr_loss(w, X, y)
    L = 1.0
    converged = False
    for _ in range(_L1LR_MAX_ITERS):
        grad = _lr_grad(z, X, y)  # only at accepted steps: backtracking needs the loss alone
        if l1lr_subgrad_residual(w, grad, lam) <= _L1LR_TOL:
            converged = True
            break
        while True:
            w_new = w - grad / L
            w_new = np.sign(w_new) * np.maximum(np.abs(w_new) - lam / L, 0.0)
            delta = w_new - w
            loss_new, z_new = _lr_loss(w_new, X, y)
            if loss_new <= loss + grad @ delta + 0.5 * L * float(delta @ delta) + 1e-12:
                break
            L *= 2.0
        w, loss, z = w_new, loss_new, z_new
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
    if not phi_nu.any(axis=1).all():
        # log(phi_nu @ alpha) is -inf there for every nonnegative alpha
        raise SolverFailure(f"kliep tau {tau}: an inlier sample has no kernel mass at any center")

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
    check_number("rulsif beta", beta, 0, 1)
    check_number("ulsif/rulsif nu", nu, 0, open_high=True)


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
    try:  # Cholesky raises unless A is positive definite
        L = np.linalg.cholesky(A)
        alpha = np.linalg.solve(L.T, np.linalg.solve(L, h))
    except np.linalg.LinAlgError as exc:
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
