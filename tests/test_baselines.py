import numpy as np
import pytest
from scipy.optimize import bisect, minimize

from conftest import make_dataset, standardized_pool
from ratioscope.baselines import (
    KernelModel,
    box_simplex_threshold,
    gauss_design,
    kde_fit_score,
    kernel_model_score,
    kliep_constraint_value,
    kliep_fit,
    l1lr_fit,
    l1lr_score,
    l1lr_subgrad_residual,
    lof_score,
    osvm_fit,
    project_box_simplex,
    rulsif_fit,
)
from ratioscope import baselines, harness
from ratioscope.data import PooledDataset, fit_standardizer, pool
from ratioscope.errors import InputError, SingularSystem
from ratioscope.graph import median_heuristic, pairwise_sq_dists
from ratioscope.llr import WeightMatrix
from ratioscope.scores import ratio_score
from ratioscope.synth import SynthSpec, generate


class TestKde:
    def test_standard_normal_peak(self):
        inl = make_dataset([[0.0]])
        s = kde_fit_score(inl, make_dataset([[0.0]], "q"), sigma=1.0)
        assert s.scores[0] == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-12)

    def test_multivariate_normalization(self):
        inl = make_dataset(np.zeros((2, 1)))
        s = kde_fit_score(inl, make_dataset(np.zeros((2, 1)), "q"), sigma=0.5)
        assert s.scores[0] == pytest.approx(1.0 / (2.0 * np.pi * 0.25), rel=1e-12)

    def test_far_query_decays(self):
        inl = make_dataset([[0.0, 1.0]])
        s = kde_fit_score(inl, make_dataset([[1e4]], "q"), sigma=1.0)
        assert s.scores[0] < 1e-100

    def test_density_integrates_to_one(self):
        inl = make_dataset([[-1.0, 0.0, 2.0]])
        grid = np.linspace(-12.0, 14.0, 4001)
        s = kde_fit_score(inl, make_dataset(grid[None, :], "q"), sigma=0.8)
        integral = np.trapezoid(s.scores, grid)
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_bad_sigma(self):
        inl = make_dataset([[0.0, 1.0]])
        with pytest.raises(ValueError):
            kde_fit_score(inl, inl, sigma=0.0)


def brute_force_inv_lof(ref, query, K):
    """Direct O(n^2) LOF with the same self-exclusion convention."""
    ref = np.asarray(ref, float)
    query = np.asarray(query, float)

    def g(point, exclude_idx):
        dists = sorted(
            np.linalg.norm(point - ref[:, j])
            for j in range(ref.shape[1])
            if j != exclude_idx
        )
        return 1.0 / max(np.mean(dists[:K]), 1e-12)

    out = []
    for i in range(query.shape[1]):
        q = query[:, i]
        dists = [np.linalg.norm(q - ref[:, j]) for j in range(ref.shape[1])]
        self_idx = int(np.argmin(dists))
        if dists[self_idx] >= 1e-12:
            self_idx = -1
        order = sorted(
            (j for j in range(ref.shape[1]) if j != self_idx),
            key=lambda j: (dists[j], j),
        )
        neighbors = order[:K]
        g_q = 1.0 / max(np.mean([dists[j] for j in neighbors]), 1e-12)
        lof = np.mean([g(ref[:, j], j) for j in neighbors]) / g_q
        out.append(1.0 / max(lof, 1e-12))
    return np.array(out)


def full_sort_inv_lof(ref, query, K):
    """lof_score as it was before it shared graph.nearest: a full sort of
    each reference row and a stable argsort of each query row."""
    rd = np.sqrt(pairwise_sq_dists(ref, ref))
    np.fill_diagonal(rd, np.inf)
    g_ref = 1.0 / np.maximum(np.sort(rd, axis=1)[:, :K].mean(axis=1), baselines.DIST_FLOOR)
    qd = np.sqrt(pairwise_sq_dists(query, ref))
    self_col = np.argmin(qd, axis=1)
    rows = np.arange(qd.shape[0])
    hit = qd[rows, self_col] < baselines.DIST_FLOOR
    qd[rows[hit], self_col[hit]] = np.inf
    nearest = np.argsort(qd, axis=1, kind="stable")[:, :K]
    qd_near = np.take_along_axis(qd, nearest, axis=1)
    g_query = 1.0 / np.maximum(qd_near.mean(axis=1), baselines.DIST_FLOOR)
    lof = g_ref[nearest].mean(axis=1) / g_query
    return 1.0 / np.maximum(lof, baselines.SCORE_FLOOR)


class TestLof:
    def test_uniform_grid_interior(self):
        grid = np.arange(10.0)[None, :]
        ref = make_dataset(grid)
        s = lof_score(ref, make_dataset([[5.0]], "q"), K=2)
        assert s.scores[0] == pytest.approx(1.0, abs=0.05)

    def test_far_point_flagged(self):
        rng = np.random.default_rng(0)
        ref = make_dataset(rng.normal(scale=0.5, size=(2, 10)))
        s = lof_score(ref, make_dataset([[50.0], [50.0]], "q"), K=3)
        assert 1.0 / s.scores[0] > 2.0  # LOF > 2

    def test_cluster_member_not_flagged(self):
        # query sits on a point in the middle of a uniform 5x5 grid
        xx, yy = np.meshgrid(np.arange(5.0), np.arange(5.0))
        pts = np.vstack([xx.ravel(), yy.ravel()])
        ref = make_dataset(pts)
        s = lof_score(ref, make_dataset([[2.0], [2.0]], "q"), K=4)
        assert 1.0 / s.scores[0] <= 1.1

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        ref = rng.normal(size=(3, 12))
        query = np.hstack([rng.normal(size=(3, 5)), ref[:, [0]]])
        for K in (1, 3, 5):
            s = lof_score(make_dataset(ref), make_dataset(query, "q"), K)
            oracle = brute_force_inv_lof(ref, query, K)
            assert s.scores == pytest.approx(oracle, abs=1e-9)

    def test_neighbor_selection_matches_the_full_sort(self):
        # half the cases lie on an integer lattice, full of distance ties
        rng = np.random.default_rng(11)
        for case in range(300):
            d, m, n = int(rng.integers(1, 6)), int(rng.integers(2, 40)), int(rng.integers(1, 20))
            K = int(rng.integers(1, m))
            draw = ((lambda *s: rng.integers(-2, 3, size=s).astype(float)) if case % 2
                    else (lambda *s: rng.normal(size=s)))
            ref, query = draw(d, m), draw(d, n)
            query[:, : n // 2] = ref[:, rng.integers(0, m, size=n // 2)]  # coinciding rows
            s = lof_score(make_dataset(ref), make_dataset(query, "q"), K)
            assert np.array_equal(s.scores, full_sort_inv_lof(ref, query, K))

    def test_invalid_k(self):
        ref = make_dataset([[0.0, 1.0, 2.0]])
        with pytest.raises(InputError, match="lof K must"):
            lof_score(ref, ref, K=0)
        with pytest.raises(InputError, match="lof K must"):
            lof_score(ref, ref, K=3)


def bisection_projection(v, c):
    """The 200-step bisection the exact projection replaced, kept as an oracle."""
    lo = np.min(v) - c - 1.0
    hi = np.max(v)
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        total = np.sum(np.clip(v - theta, 0.0, c))
        if total > 1.0:
            lo = theta
        else:
            hi = theta
    return np.clip(v - 0.5 * (lo + hi), 0.0, c)


def assert_matches_oracle(v, c):
    a = project_box_simplex(v, c)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(v))))
    assert np.max(np.abs(a - bisection_projection(v, c))) <= tol
    return a


def projected_gradient_osvm(data, nu, sigma, iters=5000):
    """Plain projected gradient on the OSVM dual, every step taken: the
    loop the accelerated solver replaced, kept as an oracle."""
    n = data.m
    c = 1.0 / (n * nu)
    K = gauss_design(data.features, data.features, sigma**2)
    step = 1.0 / float(np.linalg.eigvalsh(K)[-1])
    alpha = project_box_simplex(np.full(n, 1.0 / n), c)
    for _ in range(iters):
        alpha = project_box_simplex(alpha - step * (K @ alpha), c)
    return KernelModel(centers=data.features, alphas=alpha, sigma2=sigma**2)


def osvm_dual_objective(model):
    """The OSVM dual objective alpha^T K alpha / 2 of a fitted model."""
    K = gauss_design(model.centers, model.centers, model.sigma2)
    return 0.5 * float(model.alphas @ K @ model.alphas)


def osvm_kkt_residual(model, nu):
    """Largest KKT violation of the OSVM dual relative to |rho|, with g =
    K alpha and rho the median of g over the free coefficients."""
    a = model.alphas
    c = 1.0 / (len(a) * nu)
    g = gauss_design(model.centers, model.centers, model.sigma2) @ a
    zero, capped = a <= 0.0, a >= c
    free = ~(zero | capped)
    rho = np.median(g[free])
    violations = np.concatenate((
        np.abs(g[free] - rho),
        np.maximum(rho - g[zero], 0.0),
        np.maximum(g[capped] - rho, 0.0),
    ))
    return float(np.max(violations)) / abs(rho)


def sweep_osvm_data(d):
    """The pooled, standardized data the bench's OSVM fits on SynthSpec trial 0."""
    pooled = standardized_pool(SynthSpec(d=d, seed=0))
    merged = make_dataset(pooled.features)
    return merged, median_heuristic(pooled.features)


class TestProjection:
    def test_feasibility(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            c = 1.0 / (n * rng.uniform(0.05, 1.0))
            a = project_box_simplex(rng.normal(size=n), c)
            assert abs(a.sum() - 1.0) <= 1e-10
            assert np.all(a >= -1e-12) and np.all(a <= c + 1e-12)

    def test_idempotent_on_feasible(self):
        a = np.array([0.2, 0.3, 0.5])
        assert project_box_simplex(a, 0.6) == pytest.approx(a, abs=1e-10)

    def test_infeasible_cap(self):
        with pytest.raises(InputError, match="box cap too small"):
            project_box_simplex(np.ones(3), 0.1)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(400):
            n = int(rng.integers(1, 401))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            c = 1.0 / (n * rng.uniform(0.01, 1.0)) if rng.random() < 0.8 else rng.uniform(1.0, 3.0)
            assert_matches_oracle(scale * rng.normal(size=n), c)

    def test_single_entry(self):
        for v in (-5.0, 0.0, 0.3, 1e3):
            a = assert_matches_oracle(np.array([v]), 1.5)
            assert a == pytest.approx([1.0], abs=1e-12 * max(1.0, abs(v)))

    def test_box_meets_simplex_in_one_point(self):
        rng = np.random.default_rng(21)
        for n in (2, 4, 5, 8, 10):
            # c * n = 1 exactly, and just below it within the feasibility slack
            for c in (1.0 / n, (1.0 - 1e-13) / n):
                assert 1.0 - 1e-12 <= c * n <= 1.0
                a = assert_matches_oracle(rng.normal(size=n), c)
                assert a == pytest.approx(np.full(n, c), abs=1e-12)

    def test_plain_simplex(self):
        # c >= 1 never binds: the plain simplex projection, sort-based
        rng = np.random.default_rng(22)
        for c in (1.0, 2.5):
            v = rng.normal(size=30)
            u = np.sort(v)[::-1]
            css = np.cumsum(u) - 1.0
            rho = np.nonzero(u - css / np.arange(1, 31) > 0)[0][-1]
            expected = np.maximum(v - css[rho] / (rho + 1), 0.0)
            a = assert_matches_oracle(v, c)
            assert a == pytest.approx(expected, abs=1e-12)

    def test_ties(self):
        v = np.array([1.0, 1.0, 1.0, 0.0, 0.0, -2.0, 1.0, 0.0])
        for c in (0.125, 0.2, 0.3, 0.5, 1.0):
            a = assert_matches_oracle(v, c)
            for value in np.unique(v):
                assert np.ptp(a[v == value]) == 0.0

    def test_all_equal(self):
        for n, c in ((7, 0.2), (7, 1.0 / 7.0), (50, 0.5)):
            a = assert_matches_oracle(np.full(n, 3.0), c)
            assert a == pytest.approx(np.full(n, 1.0 / n), abs=1e-12)

    def test_optimality_conditions(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            c = 1.0 / (n * rng.uniform(0.05, 1.0))
            v = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
            theta = box_simplex_threshold(v, c)
            a = project_box_simplex(v, c)
            tol = 1e-12 * max(1.0, float(np.max(np.abs(v))))
            zero, capped = v <= theta, v >= theta + c
            free = ~(zero | capped)
            assert np.all(a[zero] == 0.0)
            assert np.all(np.abs(a[capped] - c) <= tol)
            assert np.all(np.abs(a[free] - (v[free] - theta)) <= tol)
            assert abs(a.sum() - 1.0) <= 1e-12 * n


class TestOsvm:
    def test_nu_one_uniform(self):
        rng = np.random.default_rng(4)
        data = make_dataset(rng.normal(size=(2, 7)))
        model = osvm_fit(data, nu=1.0, sigma=1.0)
        assert np.array_equal(model.alphas, np.full(7, 1.0 / 7.0))
        assert model.converged

    @pytest.mark.parametrize("n", [49, 98])
    def test_nu_one_where_c_times_n_rounds_below_one(self, n):
        # 1 / (n * 1.0) * n < 1.0 in floating point at these sizes
        assert 1.0 / n * n < 1.0
        data = make_dataset(np.random.default_rng(n).normal(size=(2, n)))
        model = osvm_fit(data, nu=1.0, sigma=1.0)
        assert np.array_equal(model.alphas, np.full(n, 1.0 / n))

    def test_single_sample(self):
        model = osvm_fit(make_dataset([[0.3]]), nu=0.5, sigma=1.0)
        assert model.alphas == pytest.approx([1.0], abs=1e-12)
        assert model.converged and model.iterations == 1

    def test_feasibility_and_uniform_bound(self):
        rng = np.random.default_rng(5)
        data = make_dataset(rng.normal(size=(2, 15)))
        nu = 0.4
        model = osvm_fit(data, nu=nu, sigma=1.5)
        c = 1.0 / (15 * nu)
        assert abs(model.alphas.sum() - 1.0) <= 1e-10
        assert np.all(model.alphas >= -1e-12)
        assert np.all(model.alphas <= c + 1e-12)
        uniform = KernelModel(
            centers=model.centers,
            alphas=np.full(15, 1.0 / 15.0),
            sigma2=model.sigma2,
        )
        assert osvm_dual_objective(model) <= osvm_dual_objective(uniform) + 1e-12

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(6)
        n, nu, sigma = 20, 0.5, 1.0
        data = make_dataset(rng.normal(size=(2, n)))
        model = osvm_fit(data, nu=nu, sigma=sigma)
        K = gauss_design(data.features, data.features, sigma**2)
        c = 1.0 / (n * nu)

        def obj(a):
            return 0.5 * a @ K @ a

        best = np.inf
        for _ in range(10):
            a0 = rng.dirichlet(np.ones(n))
            a0 = project_box_simplex(a0, c)
            res = minimize(
                obj,
                a0,
                jac=lambda a: K @ a,
                method="SLSQP",
                bounds=[(0.0, c)] * n,
                constraints=[{"type": "eq", "fun": lambda a: a.sum() - 1.0}],
                options={"maxiter": 500, "ftol": 1e-12},
            )
            best = min(best, res.fun)
        assert osvm_dual_objective(model) == pytest.approx(best, abs=1e-6)

    def test_sweep_fit_converges_before_cap(self):
        # 420 FISTA steps at d=10 and 387 at d=100.  Each bound is about
        # 1.2 times the count; a change that lowers a count tightens it
        for d, bound in ((10, 504), (100, 465)):
            data, sigma = sweep_osvm_data(d)
            model = osvm_fit(data, nu=0.1, sigma=sigma)
            assert model.converged and model.iterations <= bound
            assert osvm_kkt_residual(model, 0.1) <= 1e-5

    def test_sweep_fit_no_worse_than_plain_projected_gradient(self):
        data, sigma = sweep_osvm_data(10)
        model = osvm_fit(data, nu=0.1, sigma=sigma)
        oracle = projected_gradient_osvm(data, 0.1, sigma)
        assert osvm_dual_objective(model) <= osvm_dual_objective(oracle)

    @pytest.mark.parametrize("nu", [0.05, 0.1, 0.3, 0.7])
    def test_sweep_data_converges_across_nu(self, nu):
        data, sigma = sweep_osvm_data(10)
        model = osvm_fit(data, nu=nu, sigma=sigma)
        assert model.converged
        assert osvm_kkt_residual(model, nu) <= 1e-5

    def test_stops_unconverged_at_cap(self, monkeypatch):
        data, sigma = sweep_osvm_data(10)
        monkeypatch.setattr(baselines, "_OSVM_MAX_ITERS", 3)
        model = osvm_fit(data, nu=0.1, sigma=sigma)
        assert not model.converged
        assert model.iterations == 3

    def test_sweep_fit_matches_bisection_oracle(self, monkeypatch):
        data, sigma = sweep_osvm_data(10)
        model = osvm_fit(data, nu=0.1, sigma=sigma)
        # osvm_fit looks the projection up by its module-level name
        monkeypatch.setattr(baselines, "project_box_simplex", bisection_projection)
        oracle = osvm_fit(data, nu=0.1, sigma=sigma)
        assert oracle.iterations == model.iterations
        assert np.max(np.abs(model.alphas - oracle.alphas)) <= 1e-12

    def test_bad_nu(self):
        data = make_dataset([[0.0, 1.0]])
        with pytest.raises(InputError, match="osvm nu must"):
            osvm_fit(data, nu=0.0, sigma=1.0)
        with pytest.raises(InputError, match="osvm nu must"):
            osvm_fit(data, nu=1.5, sigma=1.0)
        with pytest.raises(InputError, match="osvm nu must"):
            osvm_fit(data, nu=float("nan"), sigma=1.0)


class TestOsvmScore:
    def test_query_at_lone_center(self):
        model = osvm_fit(make_dataset([[0.3]]), nu=0.5, sigma=1.0)
        s = kernel_model_score(model, make_dataset([[0.3]], "q"))
        assert s.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_distant_query(self):
        model = osvm_fit(make_dataset([[0.0]]), nu=0.5, sigma=1.0)
        s = kernel_model_score(model, make_dataset([[100.0]], "q"))
        assert s.scores[0] <= 1e-12 * 1.001  # clamped at the floor

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(7)
        data = make_dataset(rng.normal(size=(2, 10)))
        model = osvm_fit(data, nu=0.3, sigma=1.0)
        s = kernel_model_score(model, make_dataset(rng.normal(size=(2, 20)), "q"))
        assert np.all(s.scores > 0.0) and np.all(s.scores <= 1.0 + 1e-12)


def small_pooled(x_vals, y_vals):
    x = np.asarray(x_vals, float)[None, :]
    y = np.asarray(y_vals, int)
    order = np.argsort(-y, kind="stable")
    x, y = x[:, order], y[order]
    return PooledDataset(
        features=x,
        n_inlier=int(np.sum(y == 1)),
        n_test=int(np.sum(y == -1)),
        feature_names=("f0",),
        sample_ids=tuple(f"s{i}" for i in range(len(y))),
    )


class TestL1lr:
    def test_lambda_max_zero_solution(self):
        rng = np.random.default_rng(8)
        inl = make_dataset(rng.normal(size=(3, 10)), "a")
        test = make_dataset(rng.normal(size=(3, 6)), "b")
        pooled = pool(inl, test)
        grad0 = 0.5 * np.abs(pooled.features @ pooled.labels.astype(float))
        model = l1lr_fit(pooled, lam=float(grad0.max()) + 1e-9)
        assert np.array_equal(model.w, np.zeros(3))
        assert model.converged

    def test_unregularized_bisection_oracle(self, monkeypatch):
        # two positives and one negative at x=1: optimum sigma(w) = 2/3
        pooled = small_pooled([1.0, 1.0, 1.0], [1, 1, -1])
        monkeypatch.setattr(baselines, "_L1LR_TOL", 1e-9)
        model = l1lr_fit(pooled, lam=0.0)

        def fprime(w):
            return -2.0 / (1.0 + np.exp(w)) + 1.0 / (1.0 + np.exp(-w))

        oracle = bisect(fprime, -10.0, 10.0, xtol=1e-12)
        assert oracle == pytest.approx(np.log(2.0), abs=1e-9)
        assert model.w[0] == pytest.approx(oracle, abs=1e-6)

    def test_subgradient_residual_postcondition(self):
        rng = np.random.default_rng(9)
        inl = make_dataset(rng.normal(size=(4, 25)), "a")
        test = make_dataset(rng.normal(size=(4, 15)) + 0.5, "b")
        pooled = pool(inl, test)
        for lam in (0.01, 0.1, 1.0):
            model = l1lr_fit(pooled, lam)
            assert model.converged
            from ratioscope.baselines import _lr_loss_grad

            _, grad = _lr_loss_grad(
                model.w, pooled.features, pooled.labels.astype(float)
            )
            assert l1lr_subgrad_residual(model.w, grad, lam) <= 1e-5
            zero = model.w == 0.0
            assert np.all(np.abs(grad[zero]) <= lam + 1e-5)

    def test_negative_lambda(self):
        pooled = small_pooled([1.0, -1.0], [1, -1])
        with pytest.raises(ValueError):
            l1lr_fit(pooled, lam=-0.1)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_nonfinite_lambda(self, lam):
        # NaN used to double the Lipschitz estimate forever in the
        # backtracking loop; infinity fitted through a raw RuntimeWarning
        pooled = small_pooled([1.0, -1.0], [1, -1])
        with pytest.raises(ValueError, match="l1lr lambda"):
            l1lr_fit(pooled, lam=lam)


class TestL1lrScore:
    def test_zero_weights_prior(self):
        rng = np.random.default_rng(10)
        query = make_dataset(rng.normal(size=(2, 5)), "q")
        from ratioscope.baselines import LinearModel

        model = LinearModel(w=np.zeros(2))
        s = l1lr_score(model, query, n_test=11, n_inlier=20)
        assert np.all(s.scores == 11.0 / 20.0)

    def test_monotone_in_margin(self):
        from ratioscope.baselines import LinearModel

        query = make_dataset([[1.0, 2.0, 3.0]], "q")
        s = l1lr_score(LinearModel(w=np.array([0.7])), query, 3, 4)
        assert np.all(np.diff(s.scores) > 0)

    def test_matches_ratio_score_on_shared_column(self):
        rng = np.random.default_rng(11)
        inl = make_dataset(rng.normal(size=(3, 6)), "a")
        test = make_dataset(rng.normal(size=(3, 4)), "b")
        pooled = pool(inl, test)
        w = rng.normal(size=3)
        from ratioscope.baselines import LinearModel

        s_lin = l1lr_score(LinearModel(w=w), test, pooled.n_test, pooled.n_inlier)
        W = WeightMatrix(values=np.tile(w[:, None], (1, pooled.m)))
        s_llr = ratio_score(W, pooled, which="test")
        assert s_lin.scores == pytest.approx(s_llr.scores, rel=1e-12)


class TestKliep:
    def test_sweep_fit_steps(self):
        # the bench's trial-0 KLIEP fits take 14 steps at d=10 and 6 at
        # d=100.  Each bound is about 1.2 times the count; a change that
        # lowers a count tightens it
        for d, bound in ((10, 17), (100, 8)):
            inliers, test, _ = generate(SynthSpec(d=d, seed=0), trial=0)
            inliers, test = harness.standardized(inliers, test, fit_standardizer(inliers))
            sigma = median_heuristic(pool(inliers, test).features)
            model = kliep_fit(inliers, test, sigma, seed=harness._trial_seed(0, d, 0))
            assert model.converged and model.iterations <= bound

    def test_constraint_and_nonnegativity(self):
        rng = np.random.default_rng(12)
        inl = make_dataset(rng.normal(size=(2, 40)), "a")
        test = make_dataset(rng.normal(size=(2, 30)) + 0.3, "b")
        model = kliep_fit(inl, test, tau=1.0, seed=5)
        assert np.all(model.alphas >= 0.0)
        assert kliep_constraint_value(model, test) == pytest.approx(1.0, abs=1e-6)

    def test_identical_distributions_single_basis(self, monkeypatch):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(1, 20))
        data_a = make_dataset(pts, "a")
        data_b = make_dataset(pts, "b")
        monkeypatch.setattr(baselines, "DEFAULT_BASIS", 1)
        model = kliep_fit(data_a, data_b, tau=50.0, seed=0)
        s = kernel_model_score(model, data_b)
        assert s.scores == pytest.approx(np.ones(20), abs=0.1)

    def test_ascent_trace_nondecreasing(self, monkeypatch):
        rng = np.random.default_rng(14)
        inl = make_dataset(rng.normal(size=(2, 30)), "a")
        test = make_dataset(rng.normal(size=(2, 25)) + 0.5, "b")

        def loglik(max_iters):
            # the fit's objective: log-likelihood of the inliers under the
            # model, whose mean over the test samples is 1
            monkeypatch.setattr(baselines, "_KLIEP_MAX_ITERS", max_iters)
            model = kliep_fit(inl, test, tau=1.2, seed=1)
            return float(np.sum(np.log(kernel_model_score(model, inl).scores)))

        full = kliep_fit(inl, test, tau=1.2, seed=1)
        assert full.converged and full.iterations >= 3
        values = [loglik(j) for j in range(1, full.iterations + 1)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]

    def test_convergence_flags(self, monkeypatch):
        rng = np.random.default_rng(15)
        inl = make_dataset(rng.normal(size=(2, 30)), "a")
        test = make_dataset(rng.normal(size=(2, 25)) + 0.5, "b")
        model = kliep_fit(inl, test, tau=1.2, seed=1)
        assert model.converged and 1 <= model.iterations < 2000
        monkeypatch.setattr(baselines, "_KLIEP_MAX_ITERS", 2)
        capped = kliep_fit(inl, test, tau=1.2, seed=1)
        assert not capped.converged and capped.iterations == 2

    def test_bad_tau(self):
        data = make_dataset([[0.0, 1.0]])
        with pytest.raises(ValueError):
            kliep_fit(data, data, tau=0.0)


class TestRulsif:
    def test_ridge_limit(self):
        rng = np.random.default_rng(15)
        inl = make_dataset(rng.normal(size=(2, 20)), "a")
        test = make_dataset(rng.normal(size=(2, 15)), "b")
        model = rulsif_fit(inl, test, beta=1.0, nu=1e12, sigma=1.0)
        assert np.linalg.norm(model.alphas) <= 1e-10

    def test_single_basis_closed_form(self):
        inl = make_dataset([[0.5]], "a")
        test = make_dataset([[0.0, 1.0, 2.0]], "b")
        beta, nu, sigma = 0.5, 0.1, 1.0
        model = rulsif_fit(inl, test, beta, nu, sigma)
        phi_te = np.exp(-((np.array([0.0, 1.0, 2.0]) - 0.5) ** 2) / (2.0 * sigma**2))
        H11 = (1.0 - beta) * 1.0 + beta * np.mean(phi_te**2)
        h1 = 1.0
        assert model.alphas == pytest.approx([h1 / (H11 + nu)], rel=1e-12)

    def test_self_ratio_near_one(self):
        rng = np.random.default_rng(16)
        pts = rng.normal(size=(2, 200))
        data_a = make_dataset(pts, "a")
        data_b = make_dataset(pts, "b")
        model = rulsif_fit(data_a, data_b, beta=1.0, nu=0.1, sigma=1.0, seed=2)
        s = kernel_model_score(model, data_b)
        assert float(np.mean(s.scores)) == pytest.approx(1.0, abs=0.15)

    def test_residual_tolerance(self):
        rng = np.random.default_rng(17)
        inl = make_dataset(rng.normal(size=(3, 50)), "a")
        test = make_dataset(rng.normal(size=(3, 40)) + 0.2, "b")
        beta, nu, sigma = 0.5, 0.05, 1.3
        model = rulsif_fit(inl, test, beta, nu, sigma, seed=3)
        phi_in = gauss_design(inl.features, model.centers, model.sigma2)
        phi_te = gauss_design(test.features, model.centers, model.sigma2)
        H = (1 - beta) / inl.m * (phi_in.T @ phi_in) + beta / test.m * (
            phi_te.T @ phi_te
        )
        h = phi_in.mean(axis=0)
        A = H + nu * np.eye(H.shape[0])
        assert np.linalg.norm(A @ model.alphas - h) <= 1e-8 * np.linalg.norm(h)

    def test_singular_without_ridge(self):
        dup = make_dataset(np.zeros((1, 3)), "a")
        test = make_dataset([[0.0, 1.0]], "b")
        with pytest.raises(SingularSystem):
            rulsif_fit(dup, test, beta=1.0, nu=0.0, sigma=1.0)

    def test_parameter_validation(self):
        data = make_dataset([[0.0, 1.0]])
        with pytest.raises(ValueError):
            rulsif_fit(data, data, beta=1.5, nu=0.1, sigma=1.0)
        with pytest.raises(ValueError):
            rulsif_fit(data, data, beta=0.5, nu=-1.0, sigma=1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="nu"):
                rulsif_fit(data, data, beta=0.5, nu=bad, sigma=1.0)
            with pytest.raises(ValueError, match="beta"):
                rulsif_fit(data, data, beta=bad, nu=0.1, sigma=1.0)


class TestKernelWidth:
    # each width failed late or not at all: OSVM and RuLSIF raised raw
    # numpy and scipy errors at 0, NaN and 1e-200 (which squares to 0)
    # and scored every point alike at infinity; KLIEP and KDE took NaN
    # and infinity; 1e200, whose square overflows, raised a raw
    # OverflowError, or with a numpy float an overflow warning; and the
    # kernel divisor 2 sigma**2 is inf at 1e154 and subnormal at 1e-160
    FITS = {
        "osvm sigma": lambda a, b, s: osvm_fit(a, nu=0.1, sigma=s),
        "ulsif/rulsif sigma": lambda a, b, s: rulsif_fit(a, b, beta=0.5, nu=0.1, sigma=s),
        "kliep tau": lambda a, b, s: kliep_fit(a, b, tau=s),
        "kde sigma": lambda a, b, s: kde_fit_score(a, b, sigma=s),
    }

    @pytest.mark.parametrize(
        "sigma", [0.0, -1.0, float("nan"), float("inf"), 1e-200, 1e-160, 1e154, 1e200,
                  np.float64(1e200)])
    @pytest.mark.parametrize("name", list(FITS))
    def test_unusable_width_raises_one_input_error(self, name, sigma):
        rng = np.random.default_rng(20)
        a = make_dataset(rng.normal(size=(2, 20)), "a")
        b = make_dataset(rng.normal(size=(2, 20)), "b")
        with pytest.raises(InputError, match=f"^{name} must be positive"):
            self.FITS[name](a, b, sigma)


class TestKernelModelScore:
    def test_zero_alpha_clamped(self):
        model = KernelModel(
            centers=np.zeros((1, 1)), alphas=np.zeros(1), sigma2=1.0
        )
        s = kernel_model_score(model, make_dataset([[0.0]], "q"))
        assert s.scores[0] == 1e-12

    def test_query_at_single_center(self):
        model = KernelModel(
            centers=np.array([[1.5]]), alphas=np.array([0.7]), sigma2=2.0
        )
        s = kernel_model_score(model, make_dataset([[1.5]], "q"))
        assert s.scores[0] == pytest.approx(0.7, rel=1e-12)

    def test_additive_in_alpha(self):
        rng = np.random.default_rng(18)
        centers = rng.normal(size=(2, 5))
        a1, a2 = rng.random(5), rng.random(5)
        query = make_dataset(rng.normal(size=(2, 8)), "q")

        def scores(a):
            return kernel_model_score(
                KernelModel(centers=centers, alphas=a, sigma2=1.0), query
            ).scores

        assert scores(a1 + a2) == pytest.approx(scores(a1) + scores(a2), rel=1e-12)


class TestOrientation:
    def test_every_method_ranks_planted_outlier_last(self):
        rng = np.random.default_rng(19)
        inl_pts = rng.normal(scale=0.5, size=(3, 60))
        test_pts = np.hstack([rng.normal(scale=0.5, size=(3, 6)), np.full((3, 1), 8.0)])
        inl = make_dataset(inl_pts, "a")
        test = make_dataset(test_pts, "b")

        from ratioscope.harness import METHODS, run_method

        labels = ["inlier"] * 6 + ["outlier"]
        # osvm_nu = 0.5: a loose box cap would let the isolated outlier
        # keep enough dual mass to tie the inlier decision values
        params = {
            "lambda1": 0.1, "lambda2": 1.0, "k_neighbors": 5, "epsilon": 1e-10,
            "outer_max_iters": 100, "outer_rel_tol": 1e-6, "lof_k": 5,
            "osvm_nu": 0.5, "l1lr_lambda": 0.1, "ulsif_nu": 0.1, "rulsif_beta": 0.5,
        }
        for method in METHODS:
            s = run_method(method, inl, test, labels, params, seed=0)
            assert np.argmin(s.scores) == 6, method
            assert s.scores[6] < np.min(s.scores[:6]), method
