"""Every numeric argument of the exported callables, and of the baseline
fits and run_bench, fails by name: called with a drawn value, each call
succeeds or raises an InputError whose message starts with the
parameter's name.  The values are the kinds a caller gets wrong:
fractional floats, strings, None, bools, NaN, infinities, negatives and
small numbers, some of which are valid; the data arrays are drawn in
bad shapes or with non-finite entries.  A valid value may still give a
numerical failure, a SolverFailure (as a KLIEP width too small for any
test sample to carry kernel mass does), never a raw error.  Valid sizes
stay small, so no call builds or fits more than a few hundred values."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from ratioscope import (
    LlrHyperparams,
    PooledDataset,
    SynthSpec,
    detect,
    explain,
    fit_pooled,
    generate,
    knn_graph,
    median_heuristic,
    pool,
    ratio_score,
)
from ratioscope import baselines, harness
from ratioscope.errors import InputError, SolverFailure

RNG = np.random.default_rng(31)
INLIERS = make_dataset(RNG.normal(size=(3, 20)), "a")
TEST = make_dataset(RNG.normal(size=(3, 12)), "b")
POOLED = pool(INLIERS, TEST)
FIT = fit_pooled(POOLED, LlrHyperparams())
SCORES = ratio_score(FIT.weights, POOLED)
SMALL_SPEC = {"d": 3, "n_inlier": 5, "n_test_inlier": 4, "n_test_outlier": 2}


class PoolStarted(Exception):
    """Raised in place of starting run_bench's thread pool."""


def stop_at_pool(max_workers):
    raise PoolStarted


def bench(**kwargs):
    """run_bench up to its thread pool, with kwargs over a small valid run."""
    args = {"dims": [3], "trials": 1, "methods": list(harness.METHODS), "seed": 0,
            "threads": 1, **kwargs}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "ThreadPoolExecutor", stop_at_pool)
        try:
            harness.run_bench(**args)
        except PoolStarted:
            pass


def pooled_with_n_inlier(v):
    """POOLED's columns as v inliers and the rest test samples, so that the
    two counts add up to the column count whenever v is a number."""
    n_test = POOLED.m - v if type(v) in (int, float) else 0
    return PooledDataset(features=POOLED.features, feature_names=POOLED.feature_names,
                         sample_ids=POOLED.sample_ids, n_inlier=v, n_test=n_test)


def bench_param(name):
    return lambda v: bench(params={name: v})


# target -> (call with the drawn value, the name its message starts with)
TARGETS = {
    **{f"SynthSpec.{field}": (
        lambda v, field=field: generate(SynthSpec(**{**SMALL_SPEC, field: v})), field)
       for field in ("d", "n_inlier", "n_test_inlier", "n_test_outlier", "seed")},
    "generate.trial": (lambda v: generate(SynthSpec(**SMALL_SPEC), trial=v), "trial"),
    "PooledDataset.n_inlier": (pooled_with_n_inlier, "n_inlier"),
    **{f"LlrHyperparams.{field}": (
        lambda v, field=field: fit_pooled(POOLED, LlrHyperparams(**{field: v})), field)
       for field in ("lambda1", "lambda2", "k_neighbors", "sigma2", "epsilon",
                     "outer_max_iters", "outer_rel_tol")},
    "knn_graph.K": (lambda v: knn_graph(POOLED.features, v, "auto"), "K"),
    "knn_graph.sigma2": (lambda v: knn_graph(POOLED.features, 3, v), "sigma2"),
    "knn_graph.data": (lambda v: knn_graph(v, 3, "auto"), "data"),
    "median_heuristic.data": (median_heuristic, "data"),
    "explain.top_k": (lambda v: explain(FIT.weights, POOLED, ["b0", "b5"], v), "top_k"),
    "detect.tau": (lambda v: detect(SCORES, v), "tau"),
    "lof_score.K": (lambda v: baselines.lof_score(INLIERS, TEST, v), "lof K"),
    "osvm_fit.nu": (lambda v: baselines.osvm_fit(INLIERS, v, 1.0), "osvm nu"),
    "osvm_fit.sigma": (lambda v: baselines.osvm_fit(INLIERS, 0.5, v), "osvm sigma"),
    "l1lr_fit.lam": (lambda v: baselines.l1lr_fit(POOLED, v), "l1lr lambda"),
    "kliep_fit.tau": (lambda v: baselines.kliep_fit(INLIERS, TEST, v), "kliep tau"),
    "kliep_fit.seed": (lambda v: baselines.kliep_fit(INLIERS, TEST, 1.0, seed=v), "seed"),
    "rulsif_fit.beta": (lambda v: baselines.rulsif_fit(INLIERS, TEST, v, 0.1, 1.0),
                        "rulsif beta"),
    "rulsif_fit.nu": (lambda v: baselines.rulsif_fit(INLIERS, TEST, 0.5, v, 1.0),
                      "ulsif/rulsif nu"),
    "rulsif_fit.sigma": (lambda v: baselines.rulsif_fit(INLIERS, TEST, 0.5, 0.1, v),
                         "ulsif/rulsif sigma"),
    "rulsif_fit.seed": (lambda v: baselines.rulsif_fit(INLIERS, TEST, 0.5, 0.1, 1.0, seed=v),
                        "seed"),
    "kde_fit_score.sigma": (lambda v: baselines.kde_fit_score(INLIERS, TEST, v), "kde sigma"),
    "run_bench.dims": (lambda v: bench(dims=[3, v]), "d"),
    "run_bench.trials": (lambda v: bench(trials=v), "trials"),
    "run_bench.seed": (lambda v: bench(seed=v), "seed"),
    "run_bench.threads": (lambda v: bench(threads=v), "threads"),
    **{f"run_bench.{name}": (bench_param(name), message) for name, message in (
        ("lambda1", "lambda1"), ("lambda2", "lambda2"), ("k_neighbors", "k_neighbors"),
        ("epsilon", "epsilon"), ("outer_max_iters", "outer_max_iters"),
        ("outer_rel_tol", "outer_rel_tol"), ("lof_k", "lof K"), ("osvm_nu", "osvm nu"),
        ("l1lr_lambda", "l1lr lambda"), ("ulsif_nu", "ulsif/rulsif nu"),
        ("rulsif_beta", "rulsif beta"))},
}
# the data parameters are drawn from BAD_ARRAYS instead
DATA_TARGETS = ("knn_graph.data", "median_heuristic.data")

BAD_VALUES = st.sampled_from([
    2.5, 0.5, -0.5, 1e-3, -1, 0, "1", "x", "auto", "", None, True, False,
    math.nan, math.inf, -math.inf, np.float64(2.5), np.int64(-2), [3], (),
]) | st.integers(-3, 12) | st.floats(-3.0, 12.0)
BAD_ARRAYS = st.sampled_from([
    np.zeros(12), np.zeros((2, 3, 4)), np.float64(1.0), None, np.zeros((3, 0)),
    np.zeros((0, 5)), np.full((2, 6), np.nan), np.array([[1.0, math.inf], [0.0, 1.0]]),
    "x", [[1.0], [1.0, 2.0]], [[1.0, 10**400]],
])


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(sorted(TARGETS)), value=BAD_VALUES, data=st.data())
# the probe calls that used to fail inside numpy or Python with no name
@example(target="LlrHyperparams.k_neighbors", value=2.5, data=None)
@example(target="LlrHyperparams.lambda1", value="1", data=None)
@example(target="knn_graph.sigma2", value="x", data=None)
@example(target="knn_graph.K", value=2.5, data=None)
@example(target="knn_graph.data", value=np.zeros(12), data=None)
@example(target="median_heuristic.data", value=np.zeros(12), data=None)
@example(target="knn_graph.data", value="x", data=None)
@example(target="median_heuristic.data", value=[[1.0], [1.0, 2.0]], data=None)
@example(target="explain.top_k", value=1.5, data=None)
@example(target="detect.tau", value="x", data=None)
@example(target="SynthSpec.d", value=2.5, data=None)
@example(target="generate.trial", value=1.5, data=None)
@example(target="lof_score.K", value=2.5, data=None)
@example(target="osvm_fit.nu", value="x", data=None)
@example(target="l1lr_fit.lam", value="x", data=None)
@example(target="kliep_fit.tau", value="x", data=None)
@example(target="rulsif_fit.beta", value="x", data=None)
# ran without complaint
@example(target="run_bench.threads", value=1.5, data=None)
# built labels one short of the 32 samples
@example(target="PooledDataset.n_inlier", value=2.5, data=None)
def test_bad_argument_succeeds_or_names_itself(target, value, data):
    call, name = TARGETS[target]
    if target in DATA_TARGETS and data is not None:
        value = data.draw(BAD_ARRAYS)
    try:
        call(value)
    except SolverFailure:
        pass
    except InputError as exc:
        assert str(exc).startswith(f"{name} must "), (target, value, str(exc))
