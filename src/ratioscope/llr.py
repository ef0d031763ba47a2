"""Localized logistic regression fit by majorize-minimize iterations.

Each pooled sample i owns a coefficient column w_i.  The objective is

    J(W) = sum_i log(1 + exp(-y_i w_i.x_i))
         + lambda1 * sum_{i,j} r_ij ||w_i - w_j||_2
         + lambda2 * sum_i ||w_i||_1^2

with the double sum running over all ordered pairs of pooled samples.
Norms are smoothed as sqrt(. + eps) so that the reweighting matrices
stay finite and the outer loop provably never increases the traced
objective; eps defaults to 1e-10 and eps=0 recovers the exact norms.

The outer loop freezes the reweighting matrices Cg (a graph Laplacian
over samples) and Ce (entrywise positive), decreases the resulting
smooth convex surrogate by truncated Newton (Newton-CG), and repeats.
The surrogate plus the anchor constant from ``majorization_constant``
is tangent to J at the anchor and dominates it everywhere, so any
point with a lower surrogate value has a lower J: the outer loop needs
a surrogate decrease, not the surrogate's minimizer (the generalized
MM argument; Dempster, Laird & Rubin 1977; Hunter & Lange 2004).  Each
inner solve therefore stops once the surrogate gradient falls to
_INNER_REL_TOL = 10% of its value at the anchor, which by tangency is
the gradient of J there, so the inner tolerance tightens as the outer
loop converges; no CG solve within it aims below _CG_FLOOR = 0.9
times that stop.  ``solve_inner`` called directly stays exact.

Every fused-term quantity comes from one signed incidence matrix B0
over the graph's edges i < j, built once with the graph: the edge
distances are the row norms of B0 W^T, and Cg = B0^T diag(a) B0 for
edge weights a, assembled on the graph's fixed sparsity pattern
(``SimilarityGraph.laplacian``) with no sparse product.  ``anchor`` is
the one place the smoothed edge distances s_ij and sqrt(W^2 + eps) are
formed; objective_J, both majorizers and majorization_constant read
them from its record.  One MM step F of ``fit_pooled`` is
majorizer_Cg(A), majorizer_Ce(A), solve_inner from A.weights,
A = anchor(W, graph, eps) and objective_J(A, ...).  solve_inner carries
its penalty products through each Newton step, so it multiplies by Cg
once per solve plus once per CG step.

The loop starts at the minimizer of the surrogate at W = 0 without its
fused term.  At W = 0 every edge distance is sqrt(eps), so the fused
term's majorizer weighs edge ij by r_ij / sqrt(eps) and holds all
columns together for many steps.  Without it the surrogate splits into
one ridge-logistic problem per sample, which one exact solve_inner
from W = 0 minimizes in a few CG steps, its block preconditioner
being exact there.  The loop starts at that point when lambda2 > 0
and its J is below J(0), and at W = 0 otherwise (with lambda2 = 0 the
split problems are unregularized).

MM converges linearly, so the outer loop runs SQUAREM cycles (Varadhan
& Roland 2008; Zhou, Alexander & Lange 2011).  A cycle takes two MM
steps W1 = F(W0), W2 = F(W1); the fit has converged once the two
together lower J by less than outer_rel_tol (1 + |J(W0)|).  Otherwise
it extrapolates to W' = W0 - 2 alpha r + alpha^2 v, with r = W1 - W0,
v = W2 - 2 W1 + W0 and alpha = min(-||r|| / ||v||, -1), and takes one
MM step from W'.  The safeguard keeps F(W') only if its J is at most
J(W2), and otherwise continues from W2, so the traced J never rises.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

try:  # np.einsum without `optimize` returns this call, from behind two Python layers
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy 1.x
    _einsum = np.einsum

from .data import PooledDataset, StandardizationStats, as_matrix, read_json_object
from .errors import InputError, LineSearchFailure, NonDecrease, check_number
from .graph import SIGMA2_AUTO, SimilarityGraph, check_neighbors, check_sigma2, edge_list, knn_graph
# median_heuristic is unused here but stays importable as
# llr.median_heuristic, where ratiobench's tracer looks it up
from .graph import median_heuristic  # noqa: F401
# scipy.special's bits without its import: the fit's one scipy
# subpackage is scipy.sparse, loaded by _start and the graph
from .libm import expit, log_expit

if TYPE_CHECKING:
    import scipy.sparse as sp

# fit_pooled's inner solves stop at this fraction of the anchor's
# surrogate gradient norm.  Relative gap of the final J above a tight
# optimum (outer_rel_tol=1e-12), median / max over 20 standardized
# SynthSpec(seed=0) trials per d:
#   d     0.03, no CG floor    0.1 with _CG_FLOOR
#   10    2.85e-6 / 6.23e-6    3.41e-6 / 4.84e-6
#   50    6.04e-6 / 1.03e-5    5.79e-6 / 9.91e-6
#   100   6.84e-6 / 1.13e-5    4.08e-6 / 1.28e-5
# with CG steps per fit 526 -> 225, 101 -> 55 and 68 -> 46
_INNER_REL_TOL = 0.1
# CG's residual target never falls below this fraction of the gradient
# norm at which solve_inner stops.  Below 1, each Newton step still
# predicts a gradient under the stop; at 1.5, four inner solves of the
# d = 10 fits above ran to the Newton-step cap
_CG_FLOOR = 0.9
# solve_inner's absolute gradient tolerance, and its cap on Newton and on CG steps
_INNER_GRAD_TOL = 1e-6
_INNER_MAX_ITERS = 500


@dataclass(frozen=True)
class WeightMatrix:
    """d x (n + n') matrix whose column i is the coefficient vector w_i."""

    values: np.ndarray

    def __post_init__(self):
        values = as_matrix(self.values, "weights")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LlrHyperparams:
    lambda1: float = 0.1
    lambda2: float = 1.0
    k_neighbors: int = 7
    sigma2: float | str = SIGMA2_AUTO
    epsilon: float = 1e-10
    outer_max_iters: int = 100
    outer_rel_tol: float = 1e-6

    def __post_init__(self):
        check_number("lambda1", self.lambda1, 0, open_high=True)
        check_number("lambda2", self.lambda2, 0, open_high=True)
        # a column's smoothed l1 norm is at least d sqrt(eps): at eps = 1e-4 the smoothing
        # is already 2.6% of the final J at d = 10, and a larger eps swamps the objective
        check_number("epsilon", self.epsilon, 0, 1e-4, open_low=True)
        check_number("outer_rel_tol", self.outer_rel_tol, 0, open_low=True, open_high=True)
        check_number("outer_max_iters", self.outer_max_iters, 1, integer=True)
        check_neighbors("k_neighbors", self.k_neighbors)
        check_sigma2(self.sigma2)


@dataclass(frozen=True)
class FitResult:
    weights: WeightMatrix
    objective_trace: tuple[float, ...]
    converged: bool
    graph: SimilarityGraph = field(repr=False, compare=False, default=None)

    @property
    def iterations(self) -> int:
        return len(self.objective_trace) - 1


def _check_dims(W: np.ndarray, pooled: PooledDataset):
    if W.shape != pooled.features.shape:
        raise InputError(f"weights {W.shape} do not match pooled features {pooled.features.shape}")


def _logistic_loss(W: np.ndarray, pooled: PooledDataset) -> float:
    z = pooled.labels * _einsum("ki,ki->i", W, pooled.features)
    return float(np.sum(np.logaddexp(0.0, -z)))


def _edge_sq_dists(Wv: np.ndarray, B0: sp.csr_matrix) -> np.ndarray:
    """Squared column distances ||w_i - w_j||^2 per edge."""
    diff = B0 @ Wv.T
    return _einsum("ek,ek->e", diff, diff)


@dataclass(frozen=True)
class Anchor:
    """An iterate W with the smoothed quantities every MM step reads:
    ``edge_dists`` s_ij = sqrt(||w_i - w_j||^2 + eps) over graph.edges
    and ``smooth`` = sqrt(W^2 + eps), d x m.  Made by ``anchor``."""

    weights: WeightMatrix
    graph: SimilarityGraph
    epsilon: float
    edge_dists: np.ndarray
    smooth: np.ndarray


def anchor(W: WeightMatrix, graph: SimilarityGraph, epsilon: float) -> Anchor:
    """The record of W over ``graph``; epsilon = 0 gives the exact norms."""
    Wv = W.values
    B0, _ = graph.edges
    smooth = np.sqrt(Wv * Wv + epsilon) if epsilon > 0 else np.abs(Wv)
    return Anchor(W, graph, epsilon, np.sqrt(_edge_sq_dists(Wv, B0) + epsilon), smooth)


def objective_J(A: Anchor, pooled: PooledDataset, hp: LlrHyperparams) -> float:
    """Value of J at the anchor's weights, smoothed by A.epsilon."""
    Wv = A.weights.values
    _check_dims(Wv, pooled)
    _, r = A.graph.edges
    l1 = A.smooth.sum(axis=0)
    return (_logistic_loss(Wv, pooled)
            + hp.lambda1 * 2.0 * float(np.dot(r, A.edge_dists))
            + hp.lambda2 * float(np.sum(l1 * l1)))


def majorizer_Cg(A: Anchor) -> sp.csr_matrix:
    """Reweighted graph Laplacian B0^T diag(a) B0, a_ij = r_ij / s_ij,
    assembled on the graph's fixed sparsity pattern."""
    check_number("epsilon", A.epsilon, 0, open_low=True)
    _, r = A.graph.edges
    return A.graph.laplacian(r / A.edge_dists)


def majorizer_Ce(A: Anchor) -> np.ndarray:
    """Entrywise reweighting ||w_j||_{1,eps} / sqrt(W_kj^2 + eps)."""
    check_number("epsilon", A.epsilon, 0, open_low=True)
    return A.smooth.sum(axis=0)[None, :] / A.smooth


def majorization_constant(A: Anchor, hp: LlrHyperparams) -> float:
    """Anchor constant c_t with J(W) <= surrogate(W) + c_t everywhere
    and equality at the anchor.

    Fused part: the ordered-pair sum of r_ij s_ij, twice the sum over
    edges i < j, is bounded by tr(W Cg W^T) plus
    sum_{i<j} r_ij (s_ij^t + eps / s_ij^t).
    Exclusive part: Cauchy-Schwarz leaves the cross term
    lambda2 * eps * sum_j ||w_j||_{1,eps} sum_k 1/sqrt(w_kj^2 + eps).
    """
    eps = A.epsilon
    check_number("epsilon", eps, 0, open_low=True)
    _, r = A.graph.edges
    s, smooth = A.edge_dists, A.smooth
    cross = float(np.sum(smooth.sum(axis=0) * np.sum(1.0 / smooth, axis=0)))
    return hp.lambda1 * float(np.dot(r, s + eps / s)) + hp.lambda2 * eps * cross


def surrogate_Jtilde(
    W: WeightMatrix,
    Cg: sp.spmatrix,
    Ce: np.ndarray,
    pooled: PooledDataset,
    hp: LlrHyperparams,
) -> float:
    """Surrogate value.  The fused term tr(W Cg W^T) = ||B W^T||_F^2,
    B = diag(sqrt(a)) B0, is summed edgewise as a_ij ||w_i - w_j||^2:
    the column differences are taken before any weighting, so large,
    nearly fused columns lose no digits to cancellation."""
    Wv = W.values
    _check_dims(Wv, pooled)
    B0, off_diag = edge_list(Cg)  # -a_ij
    return (_logistic_loss(Wv, pooled)
            - hp.lambda1 * float(np.dot(off_diag, _edge_sq_dists(Wv, B0)))
            + hp.lambda2 * float(np.sum(Ce * Wv * Wv)))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product of two 2-D arrays.  einsum does not call
    BLAS, so the sum does not depend on the BLAS thread count, and a fit
    inside a thread pool does not start BLAS threads for it."""
    return float(_einsum("ik,ik->", a, b))


# The inner solve keeps samples along the rows: W, V, X and Ce are
# m x d arrays, so that sparse products with Cg stay contiguous.

def _penalty_hessp(V, Cg, Ce2, hp):
    """Hessian P of the quadratic penalties times V, also their gradient
    at V, given Ce2 = (2 lambda2) Ce: P V = Ce2 * V + 2 lambda1 Cg V."""
    out = Ce2 * V
    # scaling the product, not Cg: ((2 lambda1) Cg) V rounds differently,
    # and the moved bits turn one regression fit into NonDecrease
    CgV = Cg @ V
    CgV *= 2.0 * hp.lambda1
    out += CgV
    return out


def _surrogate_grad(X, y, z, g_pen):
    """(gradient, sigma(-z)) of the surrogate at W from z_i = y_i x_i.w_i
    and the penalty gradient g_pen = P W."""
    sig = expit(-z)
    return (-y * sig)[:, None] * X + g_pen, sig


def _hessp(V, X, c, Cg, Ce2, hp):
    """(H V, P V): the surrogate Hessian times V, c_i (x_i.v_i) x_i +
    P V with c_i = s_i (1 - s_i) the logistic curvature, and the
    penalty part P V = 2 lambda1 Cg V + Ce2 * V on its own, where
    Ce2 = (2 lambda2) Ce."""
    PV = _penalty_hessp(V, Cg, Ce2, hp)
    HV = (c * _einsum("ik,ik->i", X, V))[:, None] * X
    HV += PV
    return HV, PV


def _block_preconditioner(X, Cg, Ce2, hp):
    """solve_inner's block preconditioner as a function of the logistic
    curvature c, returning R -> M^-1 R with M_i = D_i + c_i x_i x_i^T,
    D = diag(2 lambda1 Cg_ii + Ce2_i), by Sherman-Morrison.  D^-1,
    U = D^-1 X and x_i.u_i do not depend on c, so a solve forms them once."""
    Dinv = 1.0 / np.maximum(2.0 * hp.lambda1 * Cg.diagonal()[:, None] + Ce2, 1e-12)
    U = Dinv * X
    XU = _einsum("ik,ik->i", X, U)

    def at(c):
        coef = c / (1.0 + c * XU)

        def precond(R):
            out = Dinv * R
            out -= U * (coef * _einsum("ik,ik->i", U, R))[:, None]
            return out

        return precond

    return at


def _logistic_change(z, sig, tdz):
    """Change of the logistic loss sum_i log(1 + exp(-z_i)) when the
    margins move to z + tdz, given sig = sigma(-z): the sum of
    log1p(sigma(-z_i) expm1(-tdz_i)), which keeps changes far below the
    loss's rounding.  Where that argument is below -0.5 it is taken as
    logaddexp(log sigma(z_i), log sigma(-z_i) - tdz_i) instead: the
    log1p form is -inf once sigma(-z_i) rounds to 1, though the change
    it stands for is finite."""
    u = sig * np.expm1(-tdz)
    terms = np.log1p(np.maximum(u, -0.5))
    far = u < -0.5
    if far.any():
        zf = z[far]
        terms[far] = np.logaddexp(log_expit(zf), log_expit(-zf) - tdz[far])
    return float(np.sum(terms))


def grad_Jtilde(
    W: WeightMatrix,
    Cg: sp.spmatrix,
    Ce: np.ndarray,
    pooled: PooledDataset,
    hp: LlrHyperparams,
) -> np.ndarray:
    Wv = W.values
    _check_dims(Wv, pooled)
    X, y = pooled.features.T, pooled.labels
    z = y * _einsum("ik,ik->i", X, Wv.T)
    g, _ = _surrogate_grad(X, y, z, _penalty_hessp(Wv.T, Cg, (2.0 * hp.lambda2) * Ce.T, hp))
    return np.ascontiguousarray(g.T)  # d x m in C order, as W.values is


# overflow and inf * 0 (a huge lambda) surface as a non-finite gradient
# or slope, each raised as a LineSearchFailure
@np.errstate(over="ignore", invalid="ignore")
def solve_inner(
    pooled: PooledDataset,
    Cg: sp.spmatrix,
    Ce: np.ndarray,
    hp: LlrHyperparams,
    W0: WeightMatrix,
    rel_tol: float = 0.0,
) -> WeightMatrix:
    """Minimize the surrogate by truncated Newton (Newton-CG), never
    increasing the surrogate value.

    Each Newton step solves H p = -g by preconditioned conjugate
    gradients to the Eisenstat-Walker residual ||r|| <= eta ||g||,
    eta = min(0.5, sqrt(||g||)), but never below _CG_FLOOR (0.9) times
    the gradient norm at which the solve stops: an inexact Newton step
    need only reach the solve's own stop (Dembo, Eisenstat & Steihaug
    1982), and a floor below 1 keeps each step's predicted gradient
    under it.  H is the exact surrogate Hessian,
    applied matrix-free by _hessp.  The preconditioner is the
    per-sample block diag(2 lambda1 Cg_ii + 2 lambda2 Ce_i) +
    c_i x_i x_i^T, inverted in O(d) by Sherman-Morrison.  Armijo
    backtracking sets the step length; it tests the surrogate change
    along p, computed as one expression rather than as a difference of
    two surrogate values, so rounding of the values cannot stall it.

    The penalties are quadratic, so their gradient P W is linear in W.
    The solver forms it once, at W0, and carries it: CG accumulates P p
    from the products P q it makes anyway, the line search's quadratic
    term is <p, P p> / 2, and a step W += t p updates P W += t P p and
    the margins z += t dz.  A solve makes 1 + (CG steps) products with
    Cg, and the next gradient needs no sparse product.

    Stops when ||grad||_F <= _INNER_GRAD_TOL * (1 + |Jtilde|), checked
    before the first step (an optimal W0 comes back unchanged), or
    after _INNER_MAX_ITERS Newton steps, logging a warning on the
    ratioscope.llr logger; _INNER_MAX_ITERS also caps the CG steps
    within each Newton step.  Called directly, with the default
    rel_tol = 0, that is the whole rule and the solve is exact.
    A positive rel_tol also stops it once ||grad||_F <= rel_tol *
    ||grad(W0)||_F, which for rel_tol < 1 comes after at least one
    Newton step.  fit_pooled passes rel_tol = _INNER_REL_TOL (0.1):
    the outer loop needs only a surrogate decrease, since a surrogate
    that dominates J and touches it at the anchor turns any decrease
    into a decrease of J (generalized MM; Hunter & Lange 2004).

    Raises LineSearchFailure when the gradient is not finite, as when
    a huge lambda overflows, or when no step decreases the surrogate.
    """
    X = np.ascontiguousarray(pooled.features.T)
    y = pooled.labels
    # every penalty product scales Ce by 2 lambda2 first, so scale it once
    Ce2 = np.multiply(2.0 * hp.lambda2, Ce.T, order="C")
    precond_at = _block_preconditioner(X, Cg, Ce2, hp)

    W = np.array(W0.values.T, order="C")
    z = y * _einsum("ik,ik->i", X, W)
    g_pen = _penalty_hessp(W, Cg, Ce2, hp)
    # the penalties are quadratic with gradient g_pen, so their value
    # is <W, g_pen> / 2
    f = float(np.sum(np.logaddexp(0.0, -z))) + 0.5 * _dot(W, g_pen)
    for it in range(_INNER_MAX_ITERS + 1):
        g, sig = _surrogate_grad(X, y, z, g_pen)
        gnorm = math.sqrt(_dot(g, g))
        if not math.isfinite(gnorm):
            raise LineSearchFailure(
                "surrogate gradient is not finite (regularization too large?)"
            )
        if it == 0:
            stop = rel_tol * gnorm
        grad_tol = max(_INNER_GRAD_TOL * (1.0 + abs(f)), stop)
        if gnorm <= grad_tol:
            break
        if it == _INNER_MAX_ITERS:
            logging.getLogger(__name__).warning(
                "warning: solve_inner stopped at its cap of %d Newton steps, gradient"
                " norm %.3g above its tolerance %.3g", it, gnorm, grad_tol)
            break
        c = sig * (1.0 - sig)
        precond = precond_at(c)

        # truncated preconditioned CG on H p = -g, from p = 0, carrying
        # Pp = P p along with p.  The updates run in place and round as
        # r - alpha Hq and q = pr + beta q do
        tol = max(min(0.5, math.sqrt(gnorm)) * gnorm, _CG_FLOOR * grad_tol)
        p = np.zeros_like(W)
        Pp = np.zeros_like(W)
        r = -g
        q = precond(r)
        rq = _dot(r, q)
        for _ in range(_INNER_MAX_ITERS):
            Hq, Pq = _hessp(q, X, c, Cg, Ce2, hp)
            qHq = _dot(q, Hq)
            if not qHq > 0:
                break
            alpha = rq / qHq
            p += alpha * q
            Pq *= alpha
            Pp += Pq
            Hq *= alpha
            r -= Hq
            if math.sqrt(_dot(r, r)) <= tol:
                break
            pr = precond(r)
            rpr = _dot(r, pr)
            q *= rpr / rq
            q += pr
            rq = rpr
        if not p.any():
            p = precond(-g)
            Pp = _penalty_hessp(p, Cg, Ce2, hp)

        # Armijo backtracking on the surrogate change along p,
        #   (loss change, _logistic_change) + t lin + t^2 quad,
        # the penalties being quadratic with gradient g_pen at W
        slope = _dot(g, p)
        if not slope < 0:
            raise LineSearchFailure("Newton direction is not a descent direction")
        dz = y * _einsum("ik,ik->i", X, p)
        lin = _dot(g_pen, p)
        quad = 0.5 * _dot(p, Pp)
        step = 1.0
        while True:
            change = (_logistic_change(z, sig, step * dz)
                      + step * lin + step * step * quad)
            if change <= 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-20:
                raise LineSearchFailure(
                    "no decreasing step at machine precision "
                    "(ill-conditioned surrogate)"
                )
        W += step * p
        g_pen += step * Pp
        z += step * dz
        f += change

    return WeightMatrix(values=np.ascontiguousarray(W.T))


def _mm_step(A: Anchor, J: float | None, pooled: PooledDataset, hp: LlrHyperparams):
    """One MM step from the anchor A, whose objective is J (objective_J(A)
    if None): majorizer_Cg(A) and majorizer_Ce(A), solve_inner from
    A.weights with rel_tol=_INNER_REL_TOL, then the anchor of the new
    iterate and its objective, returned as (anchor, objective).  Raises
    NonDecrease if the objective rose above J, which majorization rules
    out."""
    if J is None:
        J = objective_J(A, pooled, hp)
    W = solve_inner(pooled, majorizer_Cg(A), majorizer_Ce(A), hp, A.weights,
                    rel_tol=_INNER_REL_TOL)
    A_new = anchor(W, A.graph, A.epsilon)
    J_new = objective_J(A_new, pooled, hp)
    if J_new > J + 1e-8 * (1.0 + abs(J)):
        raise NonDecrease(f"objective increased from {J!r} to {J_new!r}; this is a bug")
    return A_new, J_new


def _extrapolate(W0: np.ndarray, W1: np.ndarray, W2: np.ndarray) -> WeightMatrix | None:
    """SQUAREM's point W0 - 2 alpha r + alpha^2 v from two MM steps
    W1 = F(W0) and W2 = F(W1), with r = W1 - W0, v = W2 - 2 W1 + W0 and
    alpha = min(-||r|| / ||v||, -1); None when v = 0."""
    r = W1 - W0
    v = W2 - W1 - r
    vv = _dot(v, v)
    if vv == 0:
        return None
    alpha = min(-math.sqrt(_dot(r, r) / vv), -1.0)
    return WeightMatrix(values=W0 - 2.0 * alpha * r + alpha * alpha * v)


def _start(pooled: PooledDataset, hp: LlrHyperparams, graph: SimilarityGraph):
    """(anchor, objective) at which the MM loop starts.  The unfused
    point comes from one exact solve_inner from W = 0 with a zero
    Laplacian and majorizer_Ce at W = 0, through the module attributes
    that a tracer wraps."""
    import scipy.sparse as sp

    A = anchor(WeightMatrix(values=np.zeros_like(pooled.features)), graph, hp.epsilon)
    J = objective_J(A, pooled, hp)
    if hp.lambda2 > 0:
        W = solve_inner(pooled, sp.csr_matrix((pooled.m, pooled.m)), majorizer_Ce(A), hp,
                        A.weights)
        A_W = anchor(W, graph, hp.epsilon)
        J_W = objective_J(A_W, pooled, hp)
        if J_W < J:
            return A_W, J_W
    return A, J


def fit_pooled(
    pooled: PooledDataset,
    hp: LlrHyperparams,
    graph: SimilarityGraph | None = None,
) -> FitResult:
    """Run the outer reweighting loop on already-pooled data over
    ``graph``, by default knn_graph(features, min(k_neighbors, m - 1), sigma2).

    The loop starts (``_start``) at the minimizer of the surrogate at
    W = 0 without its fused term when lambda2 > 0 and its J is below
    J(0), and at W = 0 otherwise; the first trace entry is J there.

    The loop is MM accelerated by SQUAREM (Varadhan & Roland 2008).
    Each cycle takes two MM steps W1 = F(W0), W2 = F(W1) (``_mm_step``),
    stops if together they lowered J by less than
    outer_rel_tol * (1 + |J(W0)|), and otherwise extrapolates along
    r = W1 - W0 and v = W2 - 2 W1 + W0 to
    W' = W0 - 2 alpha r + alpha^2 v, alpha = min(-||r|| / ||v||, -1),
    and takes one MM step from there.  F(W') is kept only if its J is at
    most J(W2); else the next cycle starts from W2.  A cycle with v = 0
    skips the extrapolation.

    Every MM step, the one from W' included, goes through
    majorizer_Cg, majorizer_Ce, solve_inner, anchor and objective_J,
    and raises NonDecrease if J rose above J at the step's own start
    point, so J(W') is computed too.  ``iterations`` and the objective
    trace count every MM step, rejected ones included (a rejected step
    repeats J(W2)), but not the start's solve; hp.outer_max_iters caps
    them, and the last trace entry is J of the returned weights."""
    if graph is None:
        graph = knn_graph(pooled.features, min(hp.k_neighbors, pooled.m - 1), hp.sigma2)
    A, J = _start(pooled, hp, graph)
    trace = [J]
    cap = hp.outer_max_iters
    converged = False
    while len(trace) <= cap:
        # W0 and W1 are kept as arrays, not as anchor records
        W0, J0 = A.weights.values, J
        A, J = _mm_step(A, J, pooled, hp)
        trace.append(J)
        if len(trace) > cap:
            break
        W1 = A.weights.values
        A, J = _mm_step(A, J, pooled, hp)
        trace.append(J)
        if J0 - J < hp.outer_rel_tol * (1.0 + abs(J0)):
            converged = True
            break
        if len(trace) > cap:
            break
        W = _extrapolate(W0, W1, A.weights.values)
        if W is None:
            continue
        # keep F(W') if its J is at most J(W2): min returns the first of
        # equals, and binds no name that would keep a third anchor alive
        A, J = min(_mm_step(anchor(W, graph, hp.epsilon), None, pooled, hp), (A, J),
                   key=lambda step: step[1])
        trace.append(J)
    return FitResult(
        weights=A.weights,
        objective_trace=tuple(trace),
        converged=converged,
        graph=graph,
    )


def save_model(
    path,
    result: FitResult,
    pooled: PooledDataset,
    hp: LlrHyperparams,
    stats: StandardizationStats | None,
) -> None:
    """Write the fitted weights with the K and bandwidth the fit's graph used."""
    doc = {
        "feature_names": list(pooled.feature_names),
        "n_inlier": pooled.n_inlier,
        "n_test": pooled.n_test,
        "lambda1": hp.lambda1,
        "lambda2": hp.lambda2,
        "k_neighbors": result.graph.k_neighbors,
        "sigma2": result.graph.sigma2,
        "epsilon": hp.epsilon,
        "weights": result.weights.values.ravel(order="C").tolist(),
        "objective_trace": list(result.objective_trace),
        "standardizer": None
        if stats is None
        else {"mean": stats.mean.tolist(), "scale": stats.scale.tolist()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, default=np.generic.item))  # numpy scalars as Python's


def load_model(path) -> dict:
    """Load a model JSON document; "weights" becomes a d x (n+n') array.
    A document that save_model could not have written raises InputError
    naming the file."""
    def bad(why):
        return InputError(f"model file {path}: {why}")

    def vector(value, n, key):
        # numpy alone would also read true, null and "1.5" as numbers
        if not (isinstance(value, list) and len(value) == n
                and set(map(type, value)) <= {int, float}):
            raise bad(f"{key} must be a list of {n} numbers")
        # json reads NaN, Infinity, 1e400 and ints past 1e308
        return as_matrix(value, f"model file {path}: {key}", ndim=1)

    doc = read_json_object(path, "model file")
    keys = ("feature_names", "n_inlier", "n_test", "weights")
    if not all(k in doc for k in keys):
        raise bad(f"needs the keys {', '.join(keys)}")
    names, counts = doc["feature_names"], (doc["n_inlier"], doc["n_test"])
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
            and all(type(c) is int and c >= 1 for c in counts)):
        raise bad("needs a list of feature names and positive integer sample counts")
    d, m = len(names), sum(counts)
    doc["weights"] = vector(doc["weights"], d * m, "weights").reshape(d, m)
    std = doc.get("standardizer")
    if std is not None:
        std = std if isinstance(std, dict) else {}
        mean, scale = (vector(std.get(k), d, f"standardizer {k}") for k in ("mean", "scale"))
        if np.any(scale <= 0):
            raise bad("standardizer scale entries must be positive")
        doc["standardizer"] = StandardizationStats(mean=mean, scale=scale)
    return doc
