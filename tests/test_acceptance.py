"""Release acceptance suite.

Twelve numbered criteria covering the solver guarantees (monotone
descent, surrogate inequality, gradients, majorization), the synthetic
benchmarks, baseline correctness oracles, AUC exactness, score
orientation, and end-to-end determinism.  Each criterion asserts its
stated tolerance and contributes one PASS/FAIL line, echoed after the
pytest summary via the terminal-summary hook in conftest.
"""

import itertools
import sys
import time

import numpy as np
import pytest

import conftest
from conftest import make_dataset, random_instance, standardized_pool
from ratioscope import baselines, cli, harness, llr
from ratioscope.data import pool
from ratioscope.evaluation import auc, roc_auc, roc_curve
from ratioscope.graph import median_heuristic
from ratioscope.scores import ScoreSet
from ratioscope.synth import SynthSpec


def report(num, desc, ok, t0=None):
    status = "PASS" if ok else "FAIL"
    timing = "" if t0 is None else f" ({time.perf_counter() - t0:.1f}s)"
    line = f"criterion {num:2d} [{status}] {desc}{timing}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__)
    assert ok, f"criterion {num} failed: {desc}"


def _solver_instances(count):
    """Seeded random instances with d <= 20, n+n' <= 60 and lambda grid
    {0, 0.1, 1}^2, as fixed by the descent/surrogate criteria, which
    cap the inner solve at 200 steps (llr._INNER_MAX_ITERS)."""
    rng = np.random.default_rng(0)
    combos = list(itertools.product([0.0, 0.1, 1.0], repeat=2))
    out = []
    for i in range(count):
        d = int(rng.integers(2, 21))
        n_inlier = int(rng.integers(5, 40))
        n_test = int(rng.integers(3, min(12, 61 - n_inlier)))
        pooled, graph = random_instance(rng, d=d, n_inlier=n_inlier, n_test=n_test)
        lam1, lam2 = combos[i % len(combos)]
        hp = llr.LlrHyperparams(
            lambda1=lam1, lambda2=lam2,
            k_neighbors=min(5, pooled.m - 1),
            outer_max_iters=8,
        )
        out.append((pooled, graph, hp))
    return out


@pytest.fixture(scope="module")
def solver_instances():
    return _solver_instances(100)


@pytest.fixture(scope="module")
def high_d_bench():
    doc, _, n_failures = harness.run_bench(
        dims=[100], trials=20, methods=["llr", "ulsif", "l1lr"], seed=0, threads=8,
    )
    assert n_failures == 0
    return {m["name"]: m["mean"] for m in doc["per_dim"][0]["methods"]}


def test_criterion_01_monotone_descent(solver_instances, monkeypatch):
    monkeypatch.setattr(llr, "_INNER_MAX_ITERS", 200)
    t0 = time.perf_counter()
    ok = True
    for pooled, graph, hp in solver_instances:
        trace = llr.fit_pooled(pooled, hp, graph=graph).objective_trace
        ok &= all(
            b <= a + 1e-8 * (1.0 + abs(a)) for a, b in zip(trace, trace[1:])
        )
    ok &= time.perf_counter() - t0 <= 120
    report(1, "monotone descent on 100 random instances", ok, t0)


def test_criterion_02_surrogate_inequality(solver_instances, monkeypatch):
    monkeypatch.setattr(llr, "_INNER_MAX_ITERS", 200)
    t0 = time.perf_counter()
    ok = True
    for pooled, graph, hp in solver_instances[:20]:
        W = llr.WeightMatrix(values=np.zeros(pooled.features.shape))
        for _ in range(5):
            A = llr.anchor(W, graph, hp.epsilon)
            Cg = llr.majorizer_Cg(A)
            Ce = llr.majorizer_Ce(A)
            J0 = llr.objective_J(A, pooled, hp)
            S0 = llr.surrogate_Jtilde(W, Cg, Ce, pooled, hp)
            W1 = llr.solve_inner(pooled, Cg, Ce, hp, W)
            J1 = llr.objective_J(llr.anchor(W1, graph, hp.epsilon), pooled, hp)
            S1 = llr.surrogate_Jtilde(W1, Cg, Ce, pooled, hp)
            ok &= J1 - J0 <= S1 - S0 + 1e-8
            W = W1
    ok &= time.perf_counter() - t0 <= 60
    report(2, "per-iteration descent bounded by surrogate decrease (20 instances)", ok, t0)


def test_criterion_03_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(20):
        pooled, graph = random_instance(rng, d=3, n_inlier=5, n_test=4)
        hp = llr.LlrHyperparams(lambda1=0.1, lambda2=1.0, k_neighbors=3)
        W = llr.WeightMatrix(values=0.5 * rng.normal(size=pooled.features.shape))
        A = llr.anchor(W, graph, hp.epsilon)
        Cg = llr.majorizer_Cg(A)
        Ce = llr.majorizer_Ce(A)
        g = llr.grad_Jtilde(W, Cg, Ce, pooled, hp)
        num = np.zeros_like(g)
        step = 1e-6
        flat = W.values.ravel()
        for k in range(flat.size):
            for sign in (1.0, -1.0):
                v = flat.copy()
                v[k] += sign * step
                Wk = llr.WeightMatrix(values=v.reshape(W.values.shape))
                num.ravel()[k] += sign * llr.surrogate_Jtilde(Wk, Cg, Ce, pooled, hp)
        num /= 2.0 * step
        ok &= np.linalg.norm(num - g) <= 1e-5 * max(1.0, np.linalg.norm(g))
    report(3, "surrogate gradient matches central differences (rel 1e-5)", ok, t0)


def test_criterion_04_tangency_and_domination():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    eps = 1e-12
    ok = True
    for _ in range(10):
        pooled, graph = random_instance(rng)
        hp = llr.LlrHyperparams(lambda1=0.1, lambda2=1.0, k_neighbors=min(5, pooled.m - 1))
        W = llr.WeightMatrix(values=0.5 * rng.normal(size=pooled.features.shape))
        A = llr.anchor(W, graph, eps)
        Cg = llr.majorizer_Cg(A)
        Ce = llr.majorizer_Ce(A)
        c = llr.majorization_constant(A, hp)
        J_anchor = llr.objective_J(A, pooled, hp)
        S_anchor = llr.surrogate_Jtilde(W, Cg, Ce, pooled, hp)
        ok &= abs(J_anchor - (S_anchor + c)) <= 1e-8
        for _ in range(100):
            scale = rng.choice([1e-3, 0.1, 1.0])
            Wp = llr.WeightMatrix(
                values=W.values + scale * rng.normal(size=W.values.shape)
            )
            J = llr.objective_J(llr.anchor(Wp, graph, eps), pooled, hp)
            S = llr.surrogate_Jtilde(Wp, Cg, Ce, pooled, hp)
            ok &= J <= S + c + 1e-8
    report(4, "majorizer tangent at the anchor and dominating at 100 perturbations", ok, t0)


def test_criterion_05_low_dimensional_accuracy():
    # Threshold 0.85 was fixed after a 100-trial calibration at d=10,
    # seed 0, package defaults (mean 0.9423, std 0.0427, min 0.8250,
    # 5th pct 0.8623); the 20-trial mean at these settings is 0.9457.
    t0 = time.perf_counter()
    doc, _, n_failures = harness.run_bench(
        dims=[10], trials=20, methods=["llr"], seed=0, threads=8,
    )
    mean = doc["per_dim"][0]["methods"][0]["mean"]
    ok = n_failures == 0 and mean >= 0.85 and time.perf_counter() - t0 <= 300
    report(5, f"d=10 mean AUC {mean:.4f} >= 0.85 over 20 trials", ok, t0)


def test_criterion_06_high_dimensional_separation(high_d_bench):
    t0 = time.perf_counter()
    means = high_d_bench
    margin_u = means["llr"] - means["ulsif"]
    margin_l = means["llr"] - means["l1lr"]
    ok = margin_u >= 0.05 and margin_l >= 0.05
    report(
        6,
        f"d=100 LLR {means['llr']:.4f} beats uLSIF by {margin_u:.4f} "
        f"and l1-LR by {margin_l:.4f} (>= 0.05)",
        ok,
    )


def test_criterion_07_feature_recovery():
    t0 = time.perf_counter()
    hits = 0
    for trial in range(20):
        pooled = standardized_pool(SynthSpec(d=50, seed=0), trial)
        res = llr.fit_pooled(pooled, llr.LlrHyperparams())
        out_cols = res.weights.values[:, pooled.n_inlier + 100 :]
        mean_abs = np.abs(out_cols).mean(axis=1)
        hits += set(np.argsort(-mean_abs)[:2]) == {0, 1}
    ok = hits >= 16
    report(7, f"shifted features carry the two largest mean |w| in {hits}/20 trials (>= 16)", ok, t0)


def test_criterion_08_convergence_speed():
    t0 = time.perf_counter()
    ok = True
    hp = llr.LlrHyperparams(outer_max_iters=50)
    for trial in range(20):
        res = llr.fit_pooled(standardized_pool(SynthSpec(d=10, seed=0), trial), hp)
        ok &= res.converged and res.iterations <= 50
    report(8, "d=10 fits reach rel-dJ < 1e-6 within 50 outer iterations (20 trials)", ok, t0)


def test_criterion_09_baseline_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    ok = True

    inliers = make_dataset(rng.normal(size=(4, 40)), "a")
    test = make_dataset(rng.normal(size=(4, 30)), "b")
    pooled = pool(inliers, test)
    sigma = median_heuristic(pooled.features)

    # uLSIF: linear-system residual
    model = baselines.rulsif_fit(inliers, test, beta=1.0, nu=0.1, sigma=sigma, seed=0)
    phi_in = baselines.gauss_design(inliers.features, model.centers, model.sigma2)
    phi_te = baselines.gauss_design(test.features, model.centers, model.sigma2)
    H = phi_te.T @ phi_te / test.m
    h = phi_in.mean(axis=0)
    A = H + 0.1 * np.eye(H.shape[0])
    ok &= np.linalg.norm(A @ model.alphas - h) <= 1e-8 * np.linalg.norm(h)

    # KLIEP: normalization constraint and nonnegativity
    km = baselines.kliep_fit(inliers, test, tau=sigma, seed=0)
    ok &= abs(baselines.kliep_constraint_value(km, test) - 1.0) <= 1e-6
    ok &= np.all(km.alphas >= 0)

    # OSVM: nu = 1 forces the uniform dual solution exactly
    om = baselines.osvm_fit(inliers, nu=1.0, sigma=sigma)
    ok &= np.array_equal(om.alphas, np.full(inliers.m, 1.0 / inliers.m))

    # l1-LR: subgradient optimality residual
    lm = baselines.l1lr_fit(pooled, 0.1)
    _, grad = baselines._lr_loss_grad(
        lm.w, pooled.features, pooled.labels.astype(float)
    )
    ok &= baselines.l1lr_subgrad_residual(lm.w, grad, 0.1) <= 1e-5

    # LOF: ~1 on interior points of a uniform grid
    gx, gy = np.meshgrid(np.arange(5.0), np.arange(5.0))
    grid = make_dataset(np.vstack([gx.ravel(), gy.ravel()]), "g")
    interior = make_dataset(np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]]), "q")
    lof = baselines.lof_score(grid, interior, K=4)
    # lof_score returns inverse-LOF (higher = more inlier-like)
    ok &= np.all(np.abs(1.0 / lof.scores - 1.0) <= 0.05)

    ok &= time.perf_counter() - t0 <= 60
    report(9, "baseline oracles (ulsif residual, kliep constraint, osvm nu=1, "
              "l1lr subgradient, lof grid)", ok, t0)


def test_criterion_10_auc_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    ok = True
    for _ in range(200):
        n_in = int(rng.integers(2, 15))
        n_out = int(rng.integers(2, 15))
        # coarse value set forces plenty of ties
        values = rng.choice(np.arange(1, 8) / 4.0, size=n_in + n_out)
        labels = ("inlier",) * n_in + ("outlier",) * n_out
        s = ScoreSet(
            sample_ids=tuple(f"s{i}" for i in range(n_in + n_out)),
            scores=values,
            labels=labels,
        )
        a = auc(s)
        inl, out = values[:n_in], values[n_in:]
        brute = sum(
            1.0 if o < i else (0.5 if o == i else 0.0) for i in inl for o in out
        ) / (n_in * n_out)
        ok &= abs(a - brute) <= 1e-12
        ok &= abs(roc_auc(roc_curve(s)) - a) <= 1e-12
    report(10, "rank AUC equals brute-force pair counting and ROC area (200 instances)", ok, t0)


def test_criterion_11_orientation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(19)
    inl = make_dataset(rng.normal(scale=0.5, size=(3, 60)), "a")
    test = make_dataset(
        np.hstack([rng.normal(scale=0.5, size=(3, 6)), np.full((3, 1), 8.0)]), "b"
    )
    labels = ["inlier"] * 6 + ["outlier"]
    params = {**harness.DEFAULT_PARAMS, "lof_k": 5, "osvm_nu": 0.5}
    ok = True
    for method in harness.METHODS:
        s = harness.run_method(method, inl, test, labels, params, seed=0)
        ok &= int(np.argmin(s.scores)) == 6 and s.scores[6] < np.min(s.scores[:6])
    report(11, "every method scores the planted far outlier strictly lowest", ok, t0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / f"{name}.json"
        code = cli.main([
            "bench", "--methods", "kde,lof,ulsif", "--dims", "6", "--trials", "3",
            "--seed", "0", "--threads", threads, "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(12, "results.json byte-identical across reruns and thread counts 1/8", ok, t0)
