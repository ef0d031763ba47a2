import itertools
import json
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar
from scipy.special import expit
from scipy.stats import spearmanr

from conftest import make_dataset, random_instance, standardized_pool
from ratioscope import graph as graph_module
from ratioscope import harness, llr
from ratioscope.data import PooledDataset, pool
from ratioscope.errors import NonDecrease
from ratioscope.evaluation import auc
from ratioscope.graph import SimilarityGraph, knn_graph, median_heuristic
from ratioscope.llr import (
    LlrHyperparams,
    WeightMatrix,
    _hessp,
    _surrogate_grad,
    fit_pooled,
    grad_Jtilde,
    load_model,
    majorization_constant,
    majorizer_Ce,
    majorizer_Cg,
    objective_J,
    save_model,
    solve_inner,
    surrogate_Jtilde,
)
from ratioscope.scores import ratio_score
from ratioscope.synth import SynthSpec, generate


def zero_weights(pooled):
    return WeightMatrix(values=np.zeros_like(pooled.features))


def single_sample_pooled(x, d=1):
    features = np.full((d, 1), float(x))
    return PooledDataset(
        features=features, n_inlier=1, n_test=0,
        feature_names=tuple(f"f{k}" for k in range(d)), sample_ids=("s0",),
    )


def trivial_graph(m):
    return SimilarityGraph(
        weights=sp.csr_matrix((m, m)), k_neighbors=1, sigma2=1.0
    )


def two_node_graph(r12=1.0):
    w = sp.csr_matrix(np.array([[0.0, r12], [r12, 0.0]]))
    return SimilarityGraph(weights=w, k_neighbors=1, sigma2=1.0)


class TestObjective:
    def test_zero_weights(self):
        rng = np.random.default_rng(0)
        pooled, graph = random_instance(rng)
        hp = LlrHyperparams()
        J = objective_J(llr.anchor(zero_weights(pooled), graph, 0.0), pooled, hp)
        assert J == pytest.approx(pooled.m * np.log(2.0), rel=1e-12)

    def test_scalar_logistic(self):
        pooled = single_sample_pooled(1.0)
        hp = LlrHyperparams(lambda1=0.0, lambda2=0.0)
        W = WeightMatrix(values=np.array([[1.0]]))
        J = objective_J(llr.anchor(W, trivial_graph(1), hp.epsilon), pooled, hp)
        assert J == pytest.approx(np.log1p(np.exp(-1.0)), abs=1e-10)
        assert J == pytest.approx(0.31326, abs=1e-5)

    def test_exclusive_term(self):
        # equal columns: fused term vanishes, exclusive term is 2 * (2)^2
        pooled = pool(
            make_dataset([[0.5], [1.0]], "a"), make_dataset([[2.0], [-1.0]], "b")
        )
        W = WeightMatrix(values=np.array([[1.0, 1.0], [-1.0, -1.0]]))
        graph = two_node_graph()
        hp = LlrHyperparams(lambda1=0.3, lambda2=1.0)
        hp0 = LlrHyperparams(lambda1=0.0, lambda2=0.0)
        A = llr.anchor(W, graph, 0.0)
        logistic = objective_J(A, pooled, hp0)
        J = objective_J(A, pooled, hp)
        assert J - logistic == pytest.approx(8.0, abs=1e-12)


class TestMajorizerCg:
    def test_two_sample_unit(self):
        W = WeightMatrix(values=np.zeros((2, 2)))
        Cg = majorizer_Cg(llr.anchor(W, two_node_graph(), 1.0)).toarray()
        assert np.allclose(Cg, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_row_sums_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            pooled, graph = random_instance(rng)
            W = WeightMatrix(values=rng.normal(size=pooled.features.shape))
            Cg = majorizer_Cg(llr.anchor(W, graph, 1e-10))
            sums = np.asarray(Cg.sum(axis=1)).ravel()
            assert np.max(np.abs(sums)) <= 1e-12

    def test_matches_sparse_diagonal_product(self):
        # the assembly on the graph's fixed pattern gives the arrays of
        # B0^T diag(a) B0, formed as a sparse product with diag(a) and
        # with the scaled incidence matrix, bit for bit
        rng = np.random.default_rng(3)
        for _ in range(40):
            pooled, graph = random_instance(rng)
            B0, r = graph.edges
            for scale, eps in itertools.product((0.0, 1e-3, 1.0, 30.0), (1e-10, 1e-4, 0.3)):
                W = WeightMatrix(values=scale * rng.normal(size=pooled.features.shape))
                diff = B0 @ W.values.T
                a = r / np.sqrt(np.einsum("ek,ek->e", diff, diff) + eps)
                scaled = sp.csr_matrix((B0.data * np.repeat(a, 2), B0.indices, B0.indptr),
                                       shape=B0.shape)
                Cg = majorizer_Cg(llr.anchor(W, graph, eps))
                for expected in ((B0.T @ (sp.diags(a) @ B0)).tocsr(), (B0.T @ scaled).tocsr()):
                    for name in ("indptr", "indices", "data"):
                        assert np.array_equal(getattr(Cg, name), getattr(expected, name))

    def test_exact_anchor_rejected(self):
        # epsilon = 0 anchors serve the exact J; the reweightings need s_ij > 0
        W = WeightMatrix(values=np.zeros((2, 2)))
        A = llr.anchor(W, two_node_graph(), 0.0)
        for majorizer in (majorizer_Cg, majorizer_Ce):
            with pytest.raises(ValueError, match=r"epsilon must be a number in \(0, inf\]"):
                majorizer(A)
        with pytest.raises(ValueError, match=r"epsilon must be a number in \(0, inf\]"):
            majorization_constant(A, LlrHyperparams())

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(2)
        pooled, graph = random_instance(rng, d=3, n_inlier=3, n_test=2)
        W = WeightMatrix(values=rng.normal(size=pooled.features.shape))
        Cg = majorizer_Cg(llr.anchor(W, graph, 1e-8)).toarray()
        assert np.array_equal(Cg, Cg.T)
        assert np.linalg.eigvalsh(Cg).min() >= -1e-10


class TestMajorizerCe:
    def test_unit_column(self):
        W = WeightMatrix(values=np.array([[1.0], [1.0]]))
        Ce = majorizer_Ce(llr.anchor(W, trivial_graph(W.m), 1e-12))
        assert Ce == pytest.approx(np.array([[2.0], [2.0]]), rel=1e-6)

    def test_zero_weights_gives_d(self):
        W = WeightMatrix(values=np.zeros((3, 4)))
        Ce = majorizer_Ce(llr.anchor(W, trivial_graph(W.m), 0.5))
        assert np.array_equal(Ce, np.full((3, 4), 3.0))

    def test_anchor_identity(self):
        rng = np.random.default_rng(3)
        Wv = rng.normal(size=(4, 7))
        W = WeightMatrix(values=Wv)
        Ce = majorizer_Ce(llr.anchor(W, trivial_graph(W.m), 1e-12))
        lhs = float(np.sum(Ce * Wv * Wv))
        rhs = float(np.sum(np.sum(np.abs(Wv), axis=0) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-6)


class TestSurrogate:
    def test_zero_weights(self):
        rng = np.random.default_rng(4)
        pooled, graph = random_instance(rng)
        W = zero_weights(pooled)
        hp = LlrHyperparams()
        anchor = WeightMatrix(values=rng.normal(size=pooled.features.shape))
        A = llr.anchor(anchor, graph, hp.epsilon)
        Cg = majorizer_Cg(A)
        Ce = majorizer_Ce(A)
        val = surrogate_Jtilde(W, Cg, Ce, pooled, hp)
        assert val == pytest.approx(pooled.m * np.log(2.0), rel=1e-12)

    def test_tangency(self):
        rng = np.random.default_rng(5)
        eps = 1e-12
        hp = LlrHyperparams()
        for _ in range(10):
            pooled, graph = random_instance(rng)
            anchor = WeightMatrix(values=rng.normal(size=pooled.features.shape))
            A = llr.anchor(anchor, graph, eps)
            Cg = majorizer_Cg(A)
            Ce = majorizer_Ce(A)
            c = majorization_constant(A, hp)
            lhs = surrogate_Jtilde(anchor, Cg, Ce, pooled, hp) + c
            rhs = objective_J(A, pooled, hp)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_domination(self):
        rng = np.random.default_rng(6)
        eps = 1e-12
        hp = LlrHyperparams()
        pooled, graph = random_instance(rng)
        anchor = WeightMatrix(values=rng.normal(size=pooled.features.shape))
        A = llr.anchor(anchor, graph, eps)
        Cg = majorizer_Cg(A)
        Ce = majorizer_Ce(A)
        c = majorization_constant(A, hp)
        for _ in range(100):
            W = WeightMatrix(
                values=anchor.values + rng.normal(scale=0.5, size=anchor.values.shape)
            )
            J = objective_J(llr.anchor(W, graph, eps), pooled, hp)
            Jt = surrogate_Jtilde(W, Cg, Ce, pooled, hp)
            assert J <= Jt + c + 1e-8

    def test_convexity(self):
        rng = np.random.default_rng(7)
        hp = LlrHyperparams()
        pooled, graph = random_instance(rng)
        anchor = WeightMatrix(values=rng.normal(size=pooled.features.shape))
        A = llr.anchor(anchor, graph, hp.epsilon)
        Cg = majorizer_Cg(A)
        Ce = majorizer_Ce(A)
        for _ in range(30):
            Wa = rng.normal(size=anchor.values.shape)
            Wb = rng.normal(size=anchor.values.shape)
            theta = rng.random()
            mid = surrogate_Jtilde(
                WeightMatrix(values=theta * Wa + (1 - theta) * Wb), Cg, Ce, pooled, hp
            )
            ends = theta * surrogate_Jtilde(
                WeightMatrix(values=Wa), Cg, Ce, pooled, hp
            ) + (1 - theta) * surrogate_Jtilde(
                WeightMatrix(values=Wb), Cg, Ce, pooled, hp
            )
            assert mid <= ends + 1e-10


    def test_fused_term_exact_for_large_fused_columns(self):
        # columns near 100 that differ by ~1e-3 and Laplacian weights near
        # 5e3: tr(W Cg W^T) loses ~1e-6 to cancellation here, the edge sum
        # does not
        rng = np.random.default_rng(18)
        pooled, graph = random_instance(rng, d=4, n_inlier=15, n_test=8)
        base = 100.0 + rng.normal(size=(pooled.d, 1))
        anchor = WeightMatrix(values=base + 1e-4 * rng.normal(size=pooled.features.shape))
        Cg = majorizer_Cg(llr.anchor(anchor, graph, 1e-10))
        dense = Cg.toarray()
        assert 1e3 <= -dense.min() <= 1e5
        W = WeightMatrix(values=base + 1e-3 * rng.normal(size=pooled.features.shape))
        Ce = np.ones_like(W.values)
        fused_hp = LlrHyperparams(lambda1=1.0, lambda2=0.0)
        none_hp = LlrHyperparams(lambda1=0.0, lambda2=0.0)
        fused = (surrogate_Jtilde(W, Cg, Ce, pooled, fused_hp)
                 - surrogate_Jtilde(W, Cg, Ce, pooled, none_hp))
        Wv = W.values
        brute = sum(
            -dense[i, j] * float(np.sum((Wv[:, i] - Wv[:, j]) ** 2))
            for i in range(pooled.m) for j in range(i + 1, pooled.m)
        )
        assert fused == pytest.approx(brute, abs=1e-10)


class TestGrad:
    def test_zero_weights_no_regularization(self):
        rng = np.random.default_rng(8)
        pooled, graph = random_instance(rng)
        hp = LlrHyperparams(lambda1=0.0, lambda2=0.0)
        W = zero_weights(pooled)
        Cg = sp.csr_matrix((pooled.m, pooled.m))
        Ce = np.ones_like(pooled.features)
        g = grad_Jtilde(W, Cg, Ce, pooled, hp)
        expected = -0.5 * pooled.labels[None, :] * pooled.features
        assert np.allclose(g, expected, atol=1e-15)

    def test_finite_differences(self):
        rng = np.random.default_rng(9)
        hp = LlrHyperparams()
        step = 1e-6
        for _ in range(20):
            pooled, graph = random_instance(rng, d=3, n_inlier=5, n_test=4)
            anchor = WeightMatrix(values=rng.normal(size=pooled.features.shape))
            A = llr.anchor(anchor, graph, hp.epsilon)
            Cg = majorizer_Cg(A)
            Ce = majorizer_Ce(A)
            Wv = rng.normal(size=anchor.values.shape)
            g = grad_Jtilde(WeightMatrix(values=Wv), Cg, Ce, pooled, hp)
            g_fd = np.empty_like(g)
            for k in range(Wv.shape[0]):
                for j in range(Wv.shape[1]):
                    Wp, Wm = Wv.copy(), Wv.copy()
                    Wp[k, j] += step
                    Wm[k, j] -= step
                    fp = surrogate_Jtilde(WeightMatrix(values=Wp), Cg, Ce, pooled, hp)
                    fm = surrogate_Jtilde(WeightMatrix(values=Wm), Cg, Ce, pooled, hp)
                    g_fd[k, j] = (fp - fm) / (2 * step)
            rel = np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g))
            assert rel <= 1e-5
            assert g.flags.c_contiguous

    @pytest.mark.parametrize("lam1, lam2", [(0.1, 1.0), (0.0, 1.0), (0.1, 0.0), (0.0, 0.0)])
    def test_solver_hessp_matches_gradient_differences(self, lam1, lam2):
        # the Hessian product solve_inner runs, against central
        # differences of grad_Jtilde along random directions
        rng = np.random.default_rng(12)
        hp = LlrHyperparams(lambda1=lam1, lambda2=lam2)
        step = 1e-5
        for _ in range(5):
            pooled, graph = random_instance(rng)
            W = WeightMatrix(values=rng.normal(size=pooled.features.shape))
            A = llr.anchor(W, graph, hp.epsilon)
            Cg = majorizer_Cg(A)
            Ce = majorizer_Ce(A)
            # the solver keeps samples along the rows
            X, y = pooled.features.T, pooled.labels
            _, sig = _surrogate_grad(X, y, y * np.einsum("ik,ik->i", X, W.values.T), 0.0)
            for _ in range(3):
                V = rng.normal(size=W.values.shape)
                Hv = _hessp(V.T, X, sig * (1.0 - sig), Cg, (2.0 * lam2) * Ce.T, hp)[0].T
                gp = grad_Jtilde(WeightMatrix(values=W.values + step * V), Cg, Ce, pooled, hp)
                gm = grad_Jtilde(WeightMatrix(values=W.values - step * V), Cg, Ce, pooled, hp)
                fd = (gp - gm) / (2 * step)
                assert np.linalg.norm(Hv - fd) <= 1e-6 * max(1.0, np.linalg.norm(Hv))

    @pytest.mark.parametrize("lam1, lam2", itertools.product((0.0, 0.1, 1.0), repeat=2))
    def test_solver_products_match_the_unscaled_expressions(self, lam1, lam2):
        # solve_inner scales Ce by 2 lambda2 and forms the preconditioner's
        # D^-1, U = D^-1 X and X.U once per solve; the expressions it ran
        # before, from the unscaled Ce, are the bitwise reference
        def reference_hessp(V, X, c, Cg, Ce, hp):
            PV = 2.0 * hp.lambda2 * Ce * V
            PV += 2.0 * hp.lambda1 * (Cg @ V)
            return (c * np.einsum("ik,ik->i", X, V))[:, None] * X + PV, PV

        def reference_precond(R, X, c, Cg, Ce, hp):
            Dinv = 1.0 / np.maximum(
                2.0 * hp.lambda1 * Cg.diagonal()[:, None] + 2.0 * hp.lambda2 * Ce, 1e-12
            )
            U = Dinv * X
            coef = c / (1.0 + c * np.einsum("ik,ik->i", X, U))
            return Dinv * R - U * (coef * np.einsum("ik,ik->i", U, R))[:, None]

        rng = np.random.default_rng(31)
        hp = LlrHyperparams(lambda1=lam1, lambda2=lam2)
        for _ in range(3):
            pooled, graph = random_instance(rng)
            A = llr.anchor(WeightMatrix(values=rng.normal(size=pooled.features.shape)),
                           graph, hp.epsilon)
            Cg, Ce = majorizer_Cg(A), np.ascontiguousarray(majorizer_Ce(A).T)
            X = np.ascontiguousarray(pooled.features.T)
            c = expit(rng.normal(size=pooled.m)) * expit(rng.normal(size=pooled.m))
            Ce2 = (2.0 * lam2) * Ce
            precond = llr._block_preconditioner(X, Cg, Ce2, hp)(c)
            for _ in range(3):
                V = rng.normal(size=X.shape)
                for got, want in zip(_hessp(V, X, c, Cg, Ce2, hp),
                                     reference_hessp(V, X, c, Cg, Ce, hp)):
                    assert np.array_equal(got, want)
                assert np.array_equal(precond(V), reference_precond(V, X, c, Cg, Ce, hp))

    def test_small_gradient_at_inner_solution(self):
        rng = np.random.default_rng(10)
        hp = LlrHyperparams()
        pooled, graph = random_instance(rng)
        W0 = zero_weights(pooled)
        A = llr.anchor(W0, graph, hp.epsilon)
        Cg = majorizer_Cg(A)
        Ce = majorizer_Ce(A)
        W = solve_inner(pooled, Cg, Ce, hp, W0)
        g = grad_Jtilde(W, Cg, Ce, pooled, hp)
        val = surrogate_Jtilde(W, Cg, Ce, pooled, hp)
        assert np.linalg.norm(g) <= llr._INNER_GRAD_TOL * (1.0 + abs(val))


class TestSolveInner:
    def test_cap_logs_one_warning(self, monkeypatch, caplog):
        # a solve that stopped at its Newton-step cap used to return silently
        monkeypatch.setattr(llr, "_INNER_MAX_ITERS", 1)
        hp = LlrHyperparams()
        pooled, graph = random_instance(np.random.default_rng(24))
        W0 = zero_weights(pooled)
        A = llr.anchor(W0, graph, hp.epsilon)
        solve_inner(pooled, majorizer_Cg(A), majorizer_Ce(A), hp, W0)
        assert [(r.name, r.levelname) for r in caplog.records] == [("ratioscope.llr", "WARNING")]
        assert "cap of 1 Newton steps" in caplog.text

    def test_already_optimal(self):
        rng = np.random.default_rng(11)
        hp = LlrHyperparams()
        pooled, graph = random_instance(rng)
        W0 = zero_weights(pooled)
        A = llr.anchor(W0, graph, hp.epsilon)
        Cg = majorizer_Cg(A)
        Ce = majorizer_Ce(A)
        W = solve_inner(pooled, Cg, Ce, hp, W0)
        again = solve_inner(pooled, Cg, Ce, hp, W)
        assert np.array_equal(again.values, W.values)

    def test_penalty_products_carried_through_newton_steps(self, monkeypatch):
        # the penalty gradient P W is formed once, at W0, and carried
        # through each step, so the only other products with Cg are the
        # CG steps' P q; the gradient after each step and the line
        # search's quadratic term each used to take one more
        class CountingCsr(sp.csr_matrix):
            def __matmul__(self, other):
                self.products += 1
                return super().__matmul__(other)

        cg_steps = []
        original = llr._hessp

        def counting_hessp(*args):
            cg_steps.append(1)
            return original(*args)

        monkeypatch.setattr(llr, "_hessp", counting_hessp)
        rng = np.random.default_rng(23)
        hp = LlrHyperparams()
        for cap, rel_tol in ((1, 0.0), (500, 0.0), (500, 0.03)):
            monkeypatch.setattr(llr, "_INNER_MAX_ITERS", cap)
            for _ in range(3):
                pooled, graph = random_instance(rng)
                W0 = WeightMatrix(values=rng.normal(size=pooled.features.shape))
                A = llr.anchor(W0, graph, hp.epsilon)
                Cg = CountingCsr(majorizer_Cg(A))
                Cg.products = 0
                cg_steps.clear()
                solve_inner(pooled, Cg, majorizer_Ce(A), hp, W0, rel_tol=rel_tol)
                assert Cg.products == 1 + len(cg_steps)
                if cap == 1:
                    assert Cg.products == 2  # 3 when each step re-formed P W

    def test_regularization_dominated(self):
        rng = np.random.default_rng(12)
        hp = LlrHyperparams(lambda1=0.0, lambda2=1e6)
        pooled, _ = random_instance(rng, d=2, n_inlier=4, n_test=3)
        W0 = zero_weights(pooled)
        Cg = sp.csr_matrix((pooled.m, pooled.m))
        Ce = majorizer_Ce(llr.anchor(W0, trivial_graph(pooled.m), hp.epsilon))
        W = solve_inner(pooled, Cg, Ce, hp, W0)
        val = surrogate_Jtilde(W, Cg, Ce, pooled, hp)
        assert val == pytest.approx(pooled.m * np.log(2.0), rel=1e-3)
        assert np.max(np.abs(W.values)) < 1e-2

    def test_scalar_bisection_oracle(self, monkeypatch):
        monkeypatch.setattr(llr, "_INNER_GRAD_TOL", 1e-10)
        x, lam2, c = 1.3, 0.7, 2.0
        pooled = single_sample_pooled(x)
        hp = LlrHyperparams(lambda1=0.0, lambda2=lam2)
        Cg = sp.csr_matrix((1, 1))
        Ce = np.array([[c]])
        W = solve_inner(pooled, Cg, Ce, hp, zero_weights(pooled))

        def f(w):
            return np.log1p(np.exp(-w * x)) + lam2 * c * w * w

        oracle = minimize_scalar(f, bounds=(-10.0, 10.0), method="bounded",
                                 options={"xatol": 1e-12})
        assert W.values[0, 0] == pytest.approx(oracle.x, abs=1e-6)

    def test_matches_lbfgs_oracle(self, monkeypatch):
        monkeypatch.setattr(llr, "_INNER_GRAD_TOL", 1e-10)
        rng = np.random.default_rng(16)
        hp = LlrHyperparams(lambda1=0.5, lambda2=0.5)
        for _ in range(4):
            pooled, graph = random_instance(rng)
            anchor = WeightMatrix(values=rng.normal(size=pooled.features.shape))
            A = llr.anchor(anchor, graph, hp.epsilon)
            Cg = majorizer_Cg(A)
            Ce = majorizer_Ce(A)
            W = solve_inner(pooled, Cg, Ce, hp, zero_weights(pooled))
            shape = pooled.features.shape

            def f(x):
                return surrogate_Jtilde(WeightMatrix(values=x.reshape(shape)), Cg, Ce, pooled, hp)

            def g(x):
                return grad_Jtilde(WeightMatrix(values=x.reshape(shape)), Cg, Ce, pooled, hp).ravel()

            oracle = minimize(f, np.zeros(pooled.features.size), jac=g, method="L-BFGS-B",
                              options={"maxiter": 20000, "ftol": 1e-16, "gtol": 1e-11})
            assert f(W.values.ravel()) <= oracle.fun + 1e-10
            assert np.max(np.abs(W.values.ravel() - oracle.x)) <= 1e-6

    def test_one_newton_step_never_increases(self, monkeypatch):
        monkeypatch.setattr(llr, "_INNER_MAX_ITERS", 1)
        rng = np.random.default_rng(17)
        for lam1, lam2 in [(0.1, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 1.0)]:
            hp = LlrHyperparams(lambda1=lam1, lambda2=lam2)
            for _ in range(5):
                pooled, graph = random_instance(rng)
                anchor = WeightMatrix(values=rng.normal(size=pooled.features.shape))
                A = llr.anchor(anchor, graph, hp.epsilon)
                Cg = majorizer_Cg(A)
                Ce = majorizer_Ce(A)
                W0 = WeightMatrix(values=anchor.values + rng.normal(size=anchor.values.shape))
                W = solve_inner(pooled, Cg, Ce, hp, W0)
                assert not np.array_equal(W.values, W0.values)
                assert (surrogate_Jtilde(W, Cg, Ce, pooled, hp)
                        <= surrogate_Jtilde(W0, Cg, Ce, pooled, hp))

    def test_relative_stop(self):
        # rel_tol = 0.03 ends the solve once the gradient is 3% of its
        # value at W0, after at least one Newton step, with the surrogate
        # not above its value at W0
        rng = np.random.default_rng(19)
        rel_tol = 0.03
        ended_by_relative_rule = False
        for lam1, lam2 in itertools.product([0.0, 0.1, 1.0], repeat=2):
            hp = LlrHyperparams(lambda1=lam1, lambda2=lam2)
            for _ in range(3):
                pooled, graph = random_instance(rng)
                W0 = WeightMatrix(values=rng.normal(size=pooled.features.shape))
                A = llr.anchor(W0, graph, hp.epsilon)
                Cg = majorizer_Cg(A)
                Ce = majorizer_Ce(A)
                W = solve_inner(pooled, Cg, Ce, hp, W0, rel_tol=rel_tol)
                assert not np.array_equal(W.values, W0.values)
                g0 = np.linalg.norm(grad_Jtilde(W0, Cg, Ce, pooled, hp))
                g = np.linalg.norm(grad_Jtilde(W, Cg, Ce, pooled, hp))
                val = surrogate_Jtilde(W, Cg, Ce, pooled, hp)
                absolute = llr._INNER_GRAD_TOL * (1.0 + abs(val))
                assert g <= rel_tol * g0 or g <= absolute
                assert val <= surrogate_Jtilde(W0, Cg, Ce, pooled, hp)
                ended_by_relative_rule |= g > absolute
        # an exact solve would meet the absolute tolerance every time
        assert ended_by_relative_rule

    def test_logistic_change_finite_where_sigma_rounds_to_one(self):
        # at z = -800, sigma(-z) rounds to 1, and log1p(sigma(-z)
        # expm1(-1000)) used to be log1p(-1) = -inf for a change of -800
        z = np.array([-800.0, -800.0, 3.0, -2.0])
        tdz = np.array([1000.0, 10.0, -0.5, 1.5])
        direct = np.logaddexp(0.0, -(z + tdz)) - np.logaddexp(0.0, -z)
        with np.errstate(divide="raise", invalid="raise"):
            change = llr._logistic_change(z, expit(-z), tdz)
        assert change == pytest.approx(float(np.sum(direct)), rel=1e-12)

    def test_fit_where_the_line_search_met_log1p_of_minus_one(self):
        # 48 standardized samples at (lambda1, lambda2, eps, K) = (1e6, 0,
        # 1e-10, 1): the line search's log1p term raised a divide-by-zero
        # warning
        pooled = standardized_pool(
            SynthSpec(d=5, n_inlier=30, n_test_inlier=15, n_test_outlier=3, seed=0))
        hp = LlrHyperparams(lambda1=1e6, lambda2=0.0, epsilon=1e-10, k_neighbors=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = fit_pooled(pooled, hp)
        assert result.converged


class TestFit:
    def test_default_fit_logs_no_cap_warning(self, caplog):
        inliers, test, _ = generate(SynthSpec(d=10, seed=0), trial=0)
        fit_pooled(pool(inliers, test), LlrHyperparams())
        assert caplog.records == []

    def test_cg_steps_sized_to_the_inner_stop(self, monkeypatch):
        # 370 Hessian products (533 when the MM loop started at W = 0).
        # The bound is about 1.2 times the count; a change that lowers
        # the count tightens it
        products = []
        original = llr._hessp

        def counting_hessp(*args):
            products.append(1)
            return original(*args)

        monkeypatch.setattr(llr, "_hessp", counting_hessp)
        result = fit_pooled(standardized_pool(SynthSpec(d=10, seed=0)), LlrHyperparams())
        assert result.converged
        assert len(products) <= 445

    @pytest.mark.parametrize("d, bound", [(10, 110), (100, 132)])
    def test_mm_steps_on_fixed_trials(self, d, bound, monkeypatch):
        # MM steps (majorizer_Cg calls, which ratiobench reports as
        # llr.outer_iters) summed over standardized SynthSpec(seed=0)
        # trials 0-3: 92 at d=10 and 110 at d=100, against 119 and 137
        # when the loop started at W = 0.  Each bound is about 1.2 times
        # the count; a change that lowers a count tightens its bound
        calls = []
        original = llr.majorizer_Cg

        def counting(A):
            calls.append(1)
            return original(A)

        monkeypatch.setattr(llr, "majorizer_Cg", counting)
        for trial in range(4):
            pooled = standardized_pool(SynthSpec(d=d, seed=0), trial)
            assert fit_pooled(pooled, LlrHyperparams()).converged
        assert len(calls) <= bound

    def test_trace_strictly_decreasing_unregularized(self):
        pooled = single_sample_pooled(2.0)
        hp = LlrHyperparams(lambda1=0.0, lambda2=0.0, outer_max_iters=5)
        result = fit_pooled(pooled, hp, graph=trivial_graph(1))
        trace = result.objective_trace
        assert trace[1] < trace[0]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert len(trace) == result.iterations + 1

    def test_outer_loop_calls_the_public_functions(self, monkeypatch):
        # wrap the module attributes, as a tracer does: each MM step
        # must go through them, not through a private copy
        calls = []

        def counting(name):
            original = getattr(llr, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("majorizer_Cg", "majorizer_Ce", "solve_inner", "objective_J", "anchor"):
            monkeypatch.setattr(llr, name, counting(name))
        pooled, graph = random_instance(np.random.default_rng(16))
        result = fit_pooled(pooled, LlrHyperparams(outer_max_iters=20), graph=graph)
        assert result.iterations == 20 and not result.converged
        step = ["majorizer_Cg", "majorizer_Ce", "solve_inner", "anchor", "objective_J"]
        # W = 0 and the unfused solve from it, whose point starts the
        # loop, then six cycles of two plain steps and one step from the
        # extrapolated point, whose anchor and J come first, then the
        # seventh cycle's two plain steps at the cap
        start = ["anchor", "objective_J", "majorizer_Ce", "solve_inner", "anchor", "objective_J"]
        cycle = step + step + ["anchor", "objective_J"] + step
        assert calls == start + 6 * cycle + 2 * step

    def test_edge_distances_gathered_once_per_iterate(self, monkeypatch):
        # objective_J at the end of one step and majorizer_Cg at the
        # start of the next read the same anchor; they used to gather
        # the edge distances of that iterate once each
        calls = []
        original = llr._edge_sq_dists

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(llr, "_edge_sq_dists", counting)
        pooled, graph = random_instance(np.random.default_rng(16))
        result = fit_pooled(pooled, LlrHyperparams(outer_max_iters=20), graph=graph)
        assert result.iterations == 20 and not result.converged
        # one per MM step, one at W = 0, one at the unfused start and one
        # per extrapolated point
        assert len(calls) == 20 + 2 + 6

    def test_graph_computes_pairwise_distances_once(self, monkeypatch):
        # the "auto" bandwidth comes from the distances knn_graph builds;
        # the median heuristic used to compute them a second time
        calls = []
        original = graph_module.pairwise_sq_dists

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(graph_module, "pairwise_sq_dists", counting)
        inliers, test, _ = generate(
            SynthSpec(d=3, n_inlier=15, n_test_inlier=8, n_test_outlier=2, seed=2)
        )
        pooled = pool(inliers, test)
        result = fit_pooled(pooled, LlrHyperparams())
        assert len(calls) == 1
        assert result.graph.sigma2 == median_heuristic(pooled.features) ** 2

    def test_monotone_descent_random(self):
        rng = np.random.default_rng(13)
        hp = LlrHyperparams(outer_max_iters=20)
        for _ in range(10):
            pooled, graph = random_instance(rng)
            result = fit_pooled(pooled, hp, graph=graph)
            trace = np.asarray(result.objective_trace)
            slack = 1e-8 * (1.0 + np.abs(trace[:-1]))
            assert np.all(trace[1:] <= trace[:-1] + slack)
            # the loop starts at the unfused point, whose J is below J(0) =
            # m log 2 plus O(sqrt(eps)) smoothing residue
            _, J_start = self.unfused_start(pooled, graph, hp)
            assert trace[0] == J_start < pooled.m * np.log(2.0)

    @staticmethod
    def unfused_start(pooled, graph, hp):
        """The minimizer of the surrogate at W = 0 without its fused term,
        and its J."""
        A0 = llr.anchor(zero_weights(pooled), graph, hp.epsilon)
        W = solve_inner(pooled, sp.csr_matrix((pooled.m, pooled.m)), majorizer_Ce(A0), hp,
                        zero_weights(pooled))
        return W, objective_J(llr.anchor(W, graph, hp.epsilon), pooled, hp)

    @staticmethod
    def first_solves(monkeypatch, pooled, hp):
        """Fit, recording the start point W0 of every solve_inner call."""
        starts = []
        original = llr.solve_inner

        def recording(pooled, Cg, Ce, hp, W0, rel_tol=0.0):
            starts.append(W0.values)
            return original(pooled, Cg, Ce, hp, W0, rel_tol)

        monkeypatch.setattr(llr, "solve_inner", recording)
        return fit_pooled(pooled, hp), starts

    def test_default_fit_starts_at_the_unfused_point(self, monkeypatch):
        hp = LlrHyperparams()
        for trial in range(3):
            pooled = standardized_pool(SynthSpec(d=10, seed=0), trial)
            result, starts = self.first_solves(monkeypatch, pooled, hp)
            W, J_start = self.unfused_start(pooled, result.graph, hp)
            J0 = self.J_of(zero_weights(pooled), pooled, result.graph, hp)
            assert result.objective_trace[0] == J_start < J0
            # one solve for the start, then one per MM step from its point
            assert len(starts) == result.iterations + 1
            assert not starts[0].any() and np.array_equal(starts[1], W.values)

    def test_start_at_zero_when_the_unfused_point_is_worse(self, monkeypatch):
        # at lambda1 = 1 the unfused point has a J above J(0), so the loop
        # starts from W = 0, after the start's solve
        hp = LlrHyperparams(lambda1=1.0)
        for trial in range(3):
            pooled = standardized_pool(SynthSpec(d=10, seed=0), trial)
            result, starts = self.first_solves(monkeypatch, pooled, hp)
            _, J_start = self.unfused_start(pooled, result.graph, hp)
            J0 = self.J_of(zero_weights(pooled), pooled, result.graph, hp)
            assert J_start > result.objective_trace[0] == J0
            # m log 2 plus the smoothing residue lambda1 sqrt(eps) sum r
            assert J0 == pytest.approx(pooled.m * np.log(2.0), rel=1e-3)
            assert len(starts) == result.iterations + 1
            assert not starts[0].any() and not starts[1].any()

    def test_start_at_zero_without_the_exclusive_term(self, monkeypatch):
        # with lambda2 = 0 the unfused surrogate is unregularized: no start solve
        pooled, _ = random_instance(np.random.default_rng(13))
        hp = LlrHyperparams(lambda2=0.0, outer_max_iters=20)
        result, starts = self.first_solves(monkeypatch, pooled, hp)
        assert result.objective_trace[0] == pytest.approx(pooled.m * np.log(2.0), abs=1e-3)
        assert len(starts) == result.iterations
        assert not starts[0].any()

    def test_lemma2_inequality(self):
        rng = np.random.default_rng(14)
        hp = LlrHyperparams()
        pooled, graph = random_instance(rng, d=4, n_inlier=12, n_test=8)
        W = zero_weights(pooled)
        for _ in range(5):
            A = llr.anchor(W, graph, hp.epsilon)
            Cg = majorizer_Cg(A)
            Ce = majorizer_Ce(A)
            W_new = solve_inner(pooled, Cg, Ce, hp, W)
            dJ = (objective_J(llr.anchor(W_new, graph, hp.epsilon), pooled, hp)
                  - objective_J(A, pooled, hp))
            dJt = surrogate_Jtilde(W_new, Cg, Ce, pooled, hp) - surrogate_Jtilde(
                W, Cg, Ce, pooled, hp
            )
            assert dJ <= dJt + 1e-8
            W = W_new

    def test_synthetic_defaults_converge(self):
        inliers, test, _ = generate(SynthSpec(d=10, seed=0))
        result = fit_pooled(pool(inliers, test), LlrHyperparams())
        assert result.converged
        assert result.iterations <= 50

    def test_column_collapse_large_lambda1(self):
        rng = np.random.default_rng(15)
        pooled, _ = random_instance(rng, d=3, n_inlier=12, n_test=8)
        # fully connected graph so large lambda1 forces a shared column
        hp = LlrHyperparams(lambda1=1e4, k_neighbors=pooled.m - 1, sigma2=100.0)
        result = fit_pooled(pooled, hp)
        W = result.weights.values
        norms = np.linalg.norm(W, axis=0)
        diffs = [
            np.linalg.norm(W[:, i] - W[:, j])
            for i in range(pooled.m)
            for j in range(i + 1, pooled.m)
        ]
        assert max(diffs) <= 1e-3 * (1.0 + norms.max())

    def test_reduction_to_logistic_regression(self, monkeypatch):
        # huge lambda1 collapses the columns; freezing Ce at W ~ 0 turns
        # the exclusive term into a plain ridge, so the shared column
        # should rank test samples like an l2-regularized logistic fit
        inliers, test, _ = generate(
            SynthSpec(d=10, n_inlier=60, n_test_inlier=25, n_test_outlier=5, seed=1)
        )
        pooled = pool(inliers, test)
        lam2 = 1e-3
        monkeypatch.setattr(llr, "_INNER_GRAD_TOL", 1e-9)
        monkeypatch.setattr(llr, "_INNER_MAX_ITERS", 4000)
        hp = LlrHyperparams(lambda1=1e3, lambda2=lam2, k_neighbors=pooled.m - 1, sigma2=1e4)
        graph = knn_graph(pooled.features, min(hp.k_neighbors, pooled.m - 1), hp.sigma2)
        W0 = zero_weights(pooled)
        # eps=1 keeps the frozen couplings well conditioned; Ce is the
        # constant d, so the exclusive term is a plain ridge
        eps = 1.0
        A = llr.anchor(W0, graph, eps)
        Cg = majorizer_Cg(A)
        Ce = majorizer_Ce(A)
        W = solve_inner(pooled, Cg, Ce, hp, W0)
        llr_margin = np.einsum(
            "ki,ki->i", W.values[:, pooled.n_inlier:], pooled.features[:, pooled.n_inlier:]
        )

        X, y = pooled.features, pooled.labels
        ridge = lam2 * pooled.d * pooled.m  # total frozen exclusive weight

        def loss(w):
            z = y * (w @ X)
            return float(np.sum(np.logaddexp(0.0, -z)) + ridge * np.dot(w, w))

        w_lr = minimize(loss, np.zeros(pooled.d), method="BFGS").x
        lr_margin = w_lr @ pooled.features[:, pooled.n_inlier:]
        rho = spearmanr(llr_margin, lr_margin).statistic
        assert rho >= 0.99

    @staticmethod
    def plain_mm(pooled, graph, hp, rel_tol=0.0):
        """The outer loop without extrapolation, stopping once one MM step
        lowers J by less than hp.outer_rel_tol relative; solve_inner gets
        rel_tol, so the default 0 makes the inner solves exact.
        Returns the final (W, J) and the number of MM steps."""
        A = llr.anchor(zero_weights(pooled), graph, hp.epsilon)
        J = objective_J(A, pooled, hp)
        for steps in range(1, hp.outer_max_iters + 1):
            W = solve_inner(pooled, majorizer_Cg(A), majorizer_Ce(A), hp, A.weights, rel_tol)
            A = llr.anchor(W, graph, hp.epsilon)
            prev, J = J, objective_J(A, pooled, hp)
            if abs(prev - J) < hp.outer_rel_tol * (1.0 + abs(prev)):
                break
        return A.weights, J, steps

    def test_matches_exact_inner_reference(self):
        # fit_pooled, with inexact inner solves and extrapolation, ends no
        # higher than plain MM with exact inner solves, ranking the test
        # samples alike
        hp = LlrHyperparams()
        inliers, test, labels = generate(SynthSpec(d=10, seed=0), trial=0)
        cases = [(pool(inliers, test), labels)]
        rng = np.random.default_rng(20)
        for _ in range(3):
            pooled, _ = random_instance(rng, n_inlier=15, n_test=10)
            cases.append((pooled, ["inlier"] * 7 + ["outlier"] * 3))
        for pooled, labels in cases:
            graph = knn_graph(pooled.features, min(hp.k_neighbors, pooled.m - 1), hp.sigma2)
            W_ref, J_ref, _ = self.plain_mm(pooled, graph, hp)
            result = fit_pooled(pooled, hp, graph=graph)
            trace = result.objective_trace
            assert all(b <= a for a, b in zip(trace, trace[1:]))
            assert result.converged
            assert trace[-1] <= J_ref
            aucs = [auc(ratio_score(W, pooled, which="test", labels=labels))
                    for W in (result.weights, W_ref)]
            assert aucs[0] == aucs[1]

    def test_reaches_the_plain_mm_optimum_in_fewer_steps(self):
        hp = LlrHyperparams(outer_rel_tol=1e-12, outer_max_iters=2000)
        pooled, graph = random_instance(np.random.default_rng(22), n_inlier=20, n_test=10)
        _, J_ref, ref_steps = self.plain_mm(pooled, graph, hp, llr._INNER_REL_TOL)
        result = fit_pooled(pooled, hp, graph=graph)
        assert result.converged
        assert result.objective_trace[-1] == pytest.approx(J_ref, rel=1e-9)
        assert result.iterations < ref_steps  # 95 against 391

    @staticmethod
    def J_of(W, pooled, graph, hp):
        return objective_J(llr.anchor(W, graph, hp.epsilon), pooled, hp)

    def test_rejected_extrapolation_continues_from_W2(self, monkeypatch):
        pooled, graph = random_instance(np.random.default_rng(16))
        hp = LlrHyperparams(outer_max_iters=2)
        two = fit_pooled(pooled, hp, graph=graph)
        original = llr._mm_step
        steps = []

        def rejecting(A, J, *args):
            # the third step starts at the extrapolated point; report
            # its end point as worse than W2
            steps.append(A.weights.values)
            A_new, J_new = original(A, J, *args)
            return A_new, (J_new + 1.0 if len(steps) == 3 else J_new)

        monkeypatch.setattr(llr, "_mm_step", rejecting)
        for cap in (3, 4):
            steps.clear()
            result = fit_pooled(pooled, LlrHyperparams(outer_max_iters=cap), graph=graph)
            trace = result.objective_trace
            assert trace[:3] == two.objective_trace and trace[3] == trace[2]
            assert result.iterations == len(steps) == cap
            assert not np.array_equal(steps[2], two.weights.values)
            if cap == 3:
                assert np.array_equal(result.weights.values, two.weights.values)
            else:  # the next cycle starts from W2
                assert np.array_equal(steps[3], two.weights.values)
            assert trace[-1] == self.J_of(result.weights, pooled, graph, hp)

    def test_extrapolated_step_guarded_against_its_own_start(self, monkeypatch):
        # an extrapolated point may have a higher J than W2; the step from
        # it must be checked against J there, and a rise raises
        pooled, graph = random_instance(np.random.default_rng(16))
        hp = LlrHyperparams(outer_max_iters=3)
        W2 = fit_pooled(pooled, LlrHyperparams(outer_max_iters=2), graph=graph).weights
        original = llr.solve_inner
        starts = []

        def raising_fourth(pooled, Cg, Ce, hp, W0, rel_tol=0.0):
            # the unfused start's solve, the two plain steps, then the
            # step from the extrapolated point, which returns a worse W
            starts.append(W0)
            if len(starts) == 4:
                return WeightMatrix(values=-1e3 * pooled.labels * pooled.features)
            return original(pooled, Cg, Ce, hp, W0, rel_tol)

        monkeypatch.setattr(llr, "solve_inner", raising_fourth)
        with pytest.raises(NonDecrease) as info:
            fit_pooled(pooled, hp, graph=graph)
        assert len(starts) == 4
        assert not np.array_equal(starts[3].values, W2.values)
        J_start = self.J_of(starts[3], pooled, graph, hp)
        assert f"objective increased from {J_start!r} to" in str(info.value)

    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_cap_counts_every_step_of_a_cycle(self, cap, caplog, monkeypatch):
        # 1 and 2: the plain steps, 3: the step from the extrapolated
        # point, 4: the next cycle's first step
        inliers, test, labels = generate(
            SynthSpec(d=5, n_inlier=30, n_test_inlier=15, n_test_outlier=3, seed=0)
        )
        pooled = pool(inliers, test)
        hp = LlrHyperparams(outer_max_iters=cap)
        calls = []
        original = llr.majorizer_Cg

        def counting(A):
            calls.append(A)
            return original(A)

        monkeypatch.setattr(llr, "majorizer_Cg", counting)
        result = fit_pooled(pooled, hp)
        assert result.iterations == len(calls) == cap
        assert not result.converged
        assert result.objective_trace[-1] == self.J_of(result.weights, pooled, result.graph, hp)
        harness.run_method("llr", inliers, test, labels,
                           {**harness.DEFAULT_PARAMS, "outer_max_iters": cap}, 0)
        assert [r.getMessage() for r in caplog.records] == [
            "warning: llr stopped at its iteration cap without converging"]

    def test_keeps_no_anchor_record_for_W0_or_W1(self, monkeypatch):
        # the unfused start's solve sees only W = 0's anchor; during a
        # plain step the only live anchor is the step's start; during the
        # step from the extrapolated point, W2's is live too
        pooled, graph = random_instance(np.random.default_rng(16))
        made = []
        original_anchor, original_solve = llr.anchor, llr.solve_inner
        live = []

        def recording_anchor(*args):
            A = original_anchor(*args)
            made.append(weakref.ref(A))
            return A

        def counting_solve(*args, **kwargs):
            live.append(sum(ref() is not None for ref in made))
            return original_solve(*args, **kwargs)

        monkeypatch.setattr(llr, "anchor", recording_anchor)
        monkeypatch.setattr(llr, "solve_inner", counting_solve)
        fit_pooled(pooled, LlrHyperparams(outer_max_iters=9), graph=graph)
        assert live == [1] + [1, 1, 2] * 3

    def test_saved_k_neighbors_is_the_graphs(self, tmp_path):
        # the graph caps K at m - 1; the file used to record hp.k_neighbors
        pooled = pool(make_dataset([[0.0, 1.0, 2.0]], "a"), make_dataset([[0.5, 3.0]], "b"))
        hp = LlrHyperparams(outer_max_iters=2)
        save_model(tmp_path / "m.json", fit_pooled(pooled, hp), pooled, hp, None)
        assert hp.k_neighbors == 7
        assert json.loads((tmp_path / "m.json").read_text())["k_neighbors"] == 4

    def test_model_roundtrip(self, tmp_path):
        from ratioscope.data import fit_standardizer

        inliers, test, _ = generate(
            SynthSpec(d=3, n_inlier=15, n_test_inlier=8, n_test_outlier=2, seed=2)
        )
        pooled = pool(inliers, test)
        hp = LlrHyperparams(outer_max_iters=5)
        result = fit_pooled(pooled, hp)
        stats = fit_standardizer(inliers)
        path = tmp_path / "model.json"
        save_model(path, result, pooled, hp, stats)
        doc = load_model(path)
        assert doc["sigma2"] == result.graph.sigma2
        assert doc["feature_names"] == list(pooled.feature_names)
        assert doc["n_inlier"] == pooled.n_inlier
        assert doc["n_test"] == pooled.n_test
        assert np.array_equal(doc["weights"], result.weights.values)
        assert doc["objective_trace"] == list(result.objective_trace)
        assert np.array_equal(doc["standardizer"].mean, stats.mean)
        assert np.array_equal(doc["standardizer"].scale, stats.scale)
        # the text is json.dumps' own rendering of the document, weights in C order
        text = path.read_text(encoding="utf-8")
        raw = json.loads(text)
        assert text == json.dumps(raw)
        assert raw["weights"] == [float(v) for v in result.weights.values.ravel()]

    @pytest.mark.parametrize("name, value", [
        ("lambda1", np.float32(0.1)), ("lambda2", np.int64(1)), ("epsilon", np.float32(1e-10)),
        ("k_neighbors", np.int64(3)), ("sigma2", np.float32(2.5))])
    def test_numpy_hyperparameter_saved_as_its_python_value(self, tmp_path, name, value):
        # the range checks accept numpy scalars, but json.dumps raised
        # "Object of type float32 is not JSON serializable"
        pooled = pool(make_dataset([[0.0, 1.0, 2.0]], "a"), make_dataset([[0.5, 3.0]], "b"))
        hp = LlrHyperparams(outer_max_iters=2, **{name: value})
        result = fit_pooled(pooled, hp)
        save_model(tmp_path / "m.json", result, pooled, hp, None)
        doc = load_model(tmp_path / "m.json")
        assert doc[name] == value.item() and type(doc[name]) is type(value.item())
        assert np.array_equal(doc["weights"], result.weights.values)

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            LlrHyperparams(lambda1=-0.1)
        with pytest.raises(ValueError):
            LlrHyperparams(epsilon=0.0)
        with pytest.raises(ValueError):
            LlrHyperparams(epsilon=2e-4)
        LlrHyperparams(epsilon=1e-4)  # the bound itself is allowed
        with pytest.raises(ValueError):
            LlrHyperparams(sigma2=-1.0)
        with pytest.raises(ValueError):
            LlrHyperparams(outer_max_iters=0)

    @pytest.mark.parametrize("name", ["lambda1", "lambda2", "epsilon", "outer_rel_tol"])
    def test_nan_hyperparameter_rejected(self, name):
        # NaN used to pass every `x < 0` / `x <= 0` check
        with pytest.raises(ValueError):
            LlrHyperparams(**{name: float("nan")})

    @pytest.mark.parametrize("name", [
        "lambda1", "lambda2", "epsilon", "outer_rel_tol", "sigma2"])
    def test_infinite_hyperparameter_rejected(self, name):
        # each used to pass: tol inf stopped after one iteration, sigma2 inf
        # set every graph weight to 1, the others ended in a solver failure
        with pytest.raises(ValueError):
            LlrHyperparams(**{name: float("inf")})


def fit_or_error(pooled):
    """fit_pooled's result at the default hyperparameters, or the type
    of the error it raised."""
    try:
        return fit_pooled(pooled, LlrHyperparams())
    except Exception as exc:  # compared between the two fits
        return type(exc)


class TestSymmetry:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 20),
           n_inlier=st.integers(5, 40), n_test=st.integers(3, 20), k=st.integers(0, 19))
    def test_sign_flip_negates_one_row_exactly(self, seed, d, n_inlier, n_test, k):
        # IEEE rounding is symmetric in sign, so negating feature k in both
        # sets leaves the graph as it was and negates w_k bit for bit
        k %= d
        rng = np.random.default_rng(seed)
        inliers, test = rng.normal(size=(d, n_inlier)), rng.normal(size=(d, n_test))
        flip = np.ones((d, 1))
        flip[k] = -1.0
        plain, flipped = (
            fit_or_error(pool(make_dataset(inliers * sign, "a"), make_dataset(test * sign, "b")))
            for sign in (1.0, flip))
        if isinstance(plain, type):
            assert flipped is plain
            return
        W, Wf = plain.weights.values, flipped.weights.values
        assert np.array_equal(Wf, W * flip)
        assert flipped.objective_trace == plain.objective_trace

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 20),
           n_inlier=st.integers(3, 39), n_test=st.integers(2, 20))
    @pytest.mark.parametrize("axis", ["test", "inliers", "features"])
    def test_permutation_keeps_final_objective(self, axis, seed, d, n_inlier, n_test):
        # J is a sum over samples, edges and features, so reordering any of
        # them changes only the order of float sums.  That can move the outer
        # stop by a step, and W with it (by up to 4.4e-2 of max |w| in 96 of
        # 1500 random test-sample permutations), but J stays within a few
        # outer_rel_tol: the largest gap over 1500 random instances of each
        # axis was 6.4e-6 (1 + |J|)
        rng = np.random.default_rng(seed)
        inliers, test = rng.normal(size=(d, n_inlier)), rng.normal(size=(d, n_test))
        permuted = {
            "test": (inliers, test[:, rng.permutation(n_test)]),
            "inliers": (inliers[:, rng.permutation(n_inlier)], test),
            "features": (inliers[(p := rng.permutation(d))], test[p]),
        }[axis]
        plain, moved = (fit_or_error(pool(make_dataset(a, "a"), make_dataset(b, "b")))
                        for a, b in [(inliers, test), permuted])
        if isinstance(plain, type):
            assert moved is plain
            return
        J = plain.objective_trace[-1]
        assert abs(moved.objective_trace[-1] - J) <= 1e-4 * (1.0 + abs(J))
