"""Every numeric argument of the exported callables, and of the baseline
fits and run_bench, fails by name: called with a drawn value, each call
succeeds or raises an InputError whose message starts with the
parameter's name.  The values are the kinds a caller gets wrong:
fractional floats, strings, None, bools, NaN, infinities, negatives and
small numbers, some of which are valid; the data arrays are drawn in
bad shapes or with non-finite entries, and the data vectors (a
standardizer's mean and scale, a ScoreSet's scores, a t-test sample)
with NaN or infinite entries, empty, of the wrong length, 2-D, as
strings or None.  A valid value may still give a
numerical failure, a SolverFailure (as a KLIEP width too small for any
test sample to carry kernel mass does), never a raw error.  run_bench
runs for real, serially, on the methods that read the drawn value, and
a run its checks let start must score every trial or fail it with a
SolverFailure.  Valid sizes stay small, so no call builds more than a
few thousand values.

The categorical arguments (labels, decisions, method and parameter names,
ratio_score's selector) fail by name the same way: label and decision
sequences are drawn wrong-case, unknown, not strings, None or of the
wrong length, and names unknown or not strings; run_bench's dims,
methods and params are drawn as scalars, strings and other values that
are no sequence or no mapping.  A call that runs must have been given a
valid value, and a file writer that raises leaves no file."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bench_failures, make_dataset
from ratioscope import (
    LlrHyperparams,
    PooledDataset,
    ScoreSet,
    SynthSpec,
    detect,
    explain,
    fit_pooled,
    generate,
    knn_graph,
    median_heuristic,
    pool,
    ratio_score,
    welch_ttest,
)
from ratioscope import baselines, harness
from ratioscope.data import LABEL_INLIER, LABEL_OUTLIER, LABELS, StandardizationStats, save_csv
from ratioscope.errors import InputError, SolverFailure
from ratioscope.scores import SELECTORS, save_scores_csv

RNG = np.random.default_rng(31)
INLIERS = make_dataset(RNG.normal(size=(3, 20)), "a")
TEST = make_dataset(RNG.normal(size=(3, 12)), "b")
POOLED = pool(INLIERS, TEST)
FIT = fit_pooled(POOLED, LlrHyperparams())
SCORES = ratio_score(FIT.weights, POOLED)
SMALL_SPEC = {"d": 3, "n_inlier": 5, "n_test_inlier": 4, "n_test_outlier": 2}


# run_bench's data: POOLED's samples as a labeled dataset, each trial
# resplitting its 20 inliers and drawing 10 of its 12 outliers
DATASET = make_dataset(POOLED.features, "c")
DATASET_LABELS = [LABEL_INLIER] * INLIERS.m + [LABEL_OUTLIER] * TEST.m


class TrialRaised(BaseException):
    """A bench trial's error other than SolverFailure, raised past
    run_bench's per-method catch, which takes only Exceptions."""


def bench(methods, **kwargs):
    """run_bench run for real on ``methods``, with kwargs over a small valid
    serial run on DATASET.  If the run starts, every trial must score, or
    fail with a SolverFailure."""
    args = {"dims": [3], "trials": 1, "methods": methods, "seed": 0, "threads": 1,
            "dataset": DATASET, "dataset_labels": DATASET_LABELS, **kwargs}
    run_method, solver_failures = harness.run_method, []

    def checked_run_method(*a):
        try:
            return run_method(*a)
        except SolverFailure as exc:
            solver_failures.append(exc)
            raise
        except Exception as exc:
            raise TrialRaised(args) from exc

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_method", checked_run_method)
        doc = harness.run_bench(**args)
    # a trial can fail outside run_method too, as in the pooled median heuristic
    assert bench_failures(doc) == len(solver_failures), (args, doc)


def pooled_with_n_inlier(v):
    """POOLED's columns as v inliers and the rest test samples, so that the
    two counts add up to the column count whenever v is a number."""
    n_test = POOLED.m - v if type(v) in (int, float) else 0
    return PooledDataset(features=POOLED.features, feature_names=POOLED.feature_names,
                         sample_ids=POOLED.sample_ids, n_inlier=v, n_test=n_test)


def bench_param(name, methods):
    return lambda v: bench(methods, params={name: v})


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
    # KLIEP's trial seed is built from the dim, and from the seed
    "run_bench.dims": (lambda v: bench(["kliep"], dims=[v], dataset=None), "d"),
    "run_bench.dims with a dataset": (lambda v: bench(["kliep"], dims=[3, v]), "dims"),
    "run_bench.trials": (lambda v: bench(["kde"], trials=v), "trials"),
    "run_bench.seed": (lambda v: bench(["kliep"], seed=v), "seed"),
    "run_bench.threads": (lambda v: bench(["kde"], threads=v), "threads"),
    "run_bench.dataset_labels": (
        lambda v: bench(["kde"], dataset_labels=[*DATASET_LABELS[:-1], v]), "dataset_labels"),
    **{f"run_bench.{name}": (bench_param(name, methods), message)
       for name, message, methods in (
           ("lambda1", "lambda1", ["llr"]), ("lambda2", "lambda2", ["llr"]),
           ("k_neighbors", "k_neighbors", ["llr"]), ("epsilon", "epsilon", ["llr"]),
           ("outer_max_iters", "outer_max_iters", ["llr"]),
           ("outer_rel_tol", "outer_rel_tol", ["llr"]), ("lof_k", "lof K", ["lof"]),
           ("osvm_nu", "osvm nu", ["osvm"]), ("l1lr_lambda", "l1lr lambda", ["l1lr"]),
           ("ulsif_nu", "ulsif/rulsif nu", ["ulsif", "rulsif"]),
           ("rulsif_beta", "rulsif beta", ["rulsif"]))},
}
# the data parameters are drawn from BAD_ARRAYS instead
DATA_TARGETS = ("knn_graph.data", "median_heuristic.data")

BAD_VALUES = st.sampled_from([
    2.5, 0.5, -0.5, 1e-3, -1, 0, "1", "x", "auto", "", "outlier", None, True, False,
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
@example(target="run_bench.dims with a dataset", value=1.5, data=None)
@example(target="run_bench.dims with a dataset", value=3, data=None)
# ran on 31 of the 32 samples, or dropped one and failed every trial
@example(target="run_bench.dataset_labels", value=None, data=None)
@example(target="run_bench.dataset_labels", value="x", data=None)
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


def stats_with_mean(v):
    """StandardizationStats of mean v and a unit scale of v's length, so
    that a length mismatch, which names the scale, hides no fault of v."""
    try:
        d = len(v)
    except TypeError:
        d = 3
    return StandardizationStats(v, np.ones(d))


def bad_vectors(n):
    """Vectors meant to hold n numbers: valid, with one NaN or infinite
    entry, empty, of another length, 2-D, negative, strings, None, a
    scalar, ragged or past the float range."""
    good = np.linspace(1.0, 2.0, n)
    return st.sampled_from([
        good, good.tolist(), np.zeros(0), [], good[:-1], np.append(good, 1.0), good[None, :],
        good[:, None], -good, "x" * n, ["x"] * n, None, np.float64(1.0), [[1.0], [1.0, 2.0]],
        [10**400] * n,
    ]) | st.builds(lambda k, bad: np.where(np.arange(n) == k, bad, good),
                   st.integers(0, n - 1), st.sampled_from([math.nan, math.inf, -math.inf]))


def finite_entries(v):
    """v as a float array if it is a 1-D float array or a list of floats,
    all finite; else None."""
    if (isinstance(v, np.ndarray) and v.ndim == 1
            or isinstance(v, list) and all(isinstance(x, float) for x in v)):
        arr = np.asarray(v, dtype=float)
        return arr if np.isfinite(arr).all() else None
    return None


# target -> (call with the drawn vector, the name its message starts with,
# the length of the vectors drawn, whether the call may accept finite entries)
VECTOR_TARGETS = {
    "StandardizationStats.mean": (stats_with_mean, "mean", 3, lambda a: a.size >= 1),
    "StandardizationStats.scale": (lambda v: StandardizationStats(np.zeros(3), v), "scale", 3,
                                   lambda a: a.size == 3 and (a > 0).all()),
    "ScoreSet.scores": (lambda v: ScoreSet(SCORES.sample_ids, v), "scores", TEST.m,
                        lambda a: a.size == TEST.m and (a > 0).all()),
    "welch_ttest.a": (lambda v: welch_ttest(v, [0.5, 0.7, 0.9]), "a", 3, lambda a: a.size >= 2),
}


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(sorted(VECTOR_TARGETS)).flatmap(
    lambda target: st.tuples(st.just(target), bad_vectors(VECTOR_TARGETS[target][2]))))
# these constructed a record, or returned a p-value, from NaN, infinite or 2-D entries
@example(case=("StandardizationStats.mean", np.array([math.nan, 1.0, 1.0])))
@example(case=("StandardizationStats.scale", np.array([1.0, math.inf, 1.0])))
@example(case=("StandardizationStats.mean", np.zeros(0)))
@example(case=("welch_ttest.a", np.array([1.0, math.nan, 2.0])))
@example(case=("welch_ttest.a", np.ones((2, 3))))
# these raised numpy's ValueError or a TypeError
@example(case=("StandardizationStats.mean", "xxx"))
@example(case=("ScoreSet.scores", "x" * TEST.m))
@example(case=("welch_ttest.a", None))
def test_bad_vector_succeeds_or_names_itself(case):
    target, value = case
    call, name, _, accepts = VECTOR_TARGETS[target]
    try:
        call(value)
    except InputError as exc:
        assert str(exc).startswith(f"{name} must "), (target, value, str(exc))
        return
    # a call that ran took a valid vector
    entries = finite_entries(value)
    assert entries is not None and accepts(entries), (target, value)


LABEL_CELLS = st.sampled_from([
    "Outlier", "INLIER", " inlier", "maybe", "", "test", None, 1, -1, True, 0.5, b"inlier",
    ("inlier",), np.str_(LABEL_OUTLIER),
])
METHOD_NAMES = st.sampled_from([*harness.METHODS, "LLR", "Kde", "knn", "svm", "", " lof", None,
                                1, ("llr",)])
PARAM_NAMES = st.sampled_from([*harness.DEFAULT_PARAMS, "l1lr_lamda", "lambda", "Lambda1",
                               "sigma2", "lof_K", "k", "", None, 1])
SELECTOR_NAMES = st.sampled_from([*SELECTORS, "Test", "tests", "outlier", "", None, 0, b"all"])


def label_sequences(m):
    """Sequences meant to hold m labels: all valid, some cells bad, of
    another length, or no sequence of labels at all."""
    return st.one_of(
        st.lists(st.sampled_from(LABELS), min_size=m, max_size=m),
        st.lists(st.sampled_from(LABELS) | LABEL_CELLS, min_size=m, max_size=m).map(tuple),
        st.lists(st.sampled_from(LABELS), max_size=m + 3).filter(lambda v: len(v) != m),
        st.sampled_from([None, 3, 2.5, "inlier", np.array([LABEL_INLIER] * m)]),
    )


def labels_of(m, optional):
    """Whether a value holds one of LABELS for each of m samples (or is
    None, where the labels are ``optional``)."""
    return lambda v: (v is None and optional) or (
        isinstance(v, (list, tuple, np.ndarray)) and len(v) == m
        and all(isinstance(x, str) and x in LABELS for x in v))


def one_of(choices):
    return lambda v: isinstance(v, str) and v in choices


# run_bench's containers drawn as scalars, strings, None and falsy values,
# beside a valid value of each
NOT_SEQUENCES = [5, 2.5, True, False, 0, None, ""]
NOT_MAPPINGS = [["lof_k"], [("lof_k", 10)], "lof_k", 5, 2.5, True, False, 0, [], ""]


def run_method_named(v):
    return harness.run_method(v, INLIERS, TEST, DATASET_LABELS[INLIERS.m:],
                              dict(harness.DEFAULT_PARAMS), 0)


# target -> (call with the drawn value and a path to write, the name its
# message starts with, the values to draw, the values the call may accept)
CHOICE_TARGETS = {
    "ScoreSet.labels": (lambda v, _: ScoreSet(SCORES.sample_ids, SCORES.scores, labels=v),
                        "labels", label_sequences(TEST.m), labels_of(TEST.m, True)),
    "ratio_score.labels": (lambda v, _: ratio_score(FIT.weights, POOLED, labels=v),
                           "labels", label_sequences(TEST.m), labels_of(TEST.m, True)),
    "ratio_score.which": (lambda v, _: ratio_score(FIT.weights, POOLED, which=v),
                          "which", SELECTOR_NAMES, one_of(SELECTORS)),
    "save_csv.labels": (lambda v, path: save_csv(path, TEST, labels=v),
                        "labels", label_sequences(TEST.m), labels_of(TEST.m, True)),
    "save_scores_csv.decisions": (lambda v, path: save_scores_csv(path, SCORES, decisions=v),
                                  "decisions", label_sequences(TEST.m), labels_of(TEST.m, True)),
    "resplit_dataset.labels": (lambda v, _: harness.resplit_dataset(DATASET, v, 0, 0),
                               "labels", label_sequences(DATASET.m), labels_of(DATASET.m, False)),
    "run_method.method": (lambda v, _: run_method_named(v), "method", METHOD_NAMES,
                          one_of(harness.METHODS)),
    "run_bench.methods": (lambda v, _: bench(v), "methods",
                          st.lists(METHOD_NAMES, max_size=2),
                          lambda v: all(map(one_of(harness.METHODS), v)) and len(set(v)) == len(v)
                          and len(v) > 0),
    "run_bench.params": (
        lambda v, _: bench(["kde"], params={v: harness.DEFAULT_PARAMS.get(v, 1.0)}),
        "params", PARAM_NAMES, one_of(harness.DEFAULT_PARAMS)),
    "run_bench.dims container": (lambda v, _: bench(["kde"], dims=v), "dims",
                                 st.sampled_from([*NOT_SEQUENCES, "3", [3], (3, 4),
                                                  np.array([3, 4])]),
                                 lambda v: isinstance(v, (list, tuple, np.ndarray))),
    "run_bench.methods container": (lambda v, _: bench(v), "methods",
                                    st.sampled_from([*NOT_SEQUENCES, "kde", ("kde", "lof"),
                                                     np.array(["kde", "lof"])]),
                                    lambda v: isinstance(v, (list, tuple, np.ndarray))),
    "run_bench.params container": (lambda v, _: bench(["lof"], params=v), "params",
                                   st.sampled_from([*NOT_MAPPINGS, None, {}, {"lof_k": 3}]),
                                   lambda v: v is None or isinstance(v, dict)),
    "run_bench.dataset_labels sequence": (lambda v, _: bench(["kde"], dataset_labels=v),
                                          "dataset_labels", label_sequences(DATASET.m),
                                          labels_of(DATASET.m, False)),
}


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(CHOICE_TARGETS)).flatmap(
    lambda target: st.tuples(st.just(target), CHOICE_TARGETS[target][2])))
# counted as neither class, dropped from the AUC without a word
@example(case=("ScoreSet.labels", ("Outlier",) + (LABEL_OUTLIER,) * (TEST.m - 1)))
# raised zip's ValueError after writing a row, or wrote "maybe"
@example(case=("save_scores_csv.decisions", (LABEL_INLIER,)))
@example(case=("save_scores_csv.decisions", ("maybe",) + (LABEL_INLIER,) * (TEST.m - 1)))
# split anyway, logging "only 0 outliers available"
@example(case=("resplit_dataset.labels", [LABEL_INLIER] * 30 + ["Outlier", "x"]))
# ran with the misspelt or unused parameter ignored
@example(case=("run_bench.params", "l1lr_lamda"))
@example(case=("run_bench.params", "sigma2"))
# raised "a bench run needs at least one dimension and method"
@example(case=("run_bench.methods", []))
# raised a raw TypeError: "'list' object is not a mapping", "'int' object is not iterable"
@example(case=("run_bench.params container", ["lof_k"]))
@example(case=("run_bench.params container", 5))
@example(case=("run_bench.methods container", 5))
@example(case=("run_bench.dims container", 5))
# raised numpy's "truth value of an array ... is ambiguous"
@example(case=("run_bench.dims container", np.array([3, 4])))
@example(case=("run_bench.methods container", np.array(["kde", "lof"])))
# ran with the default parameters
@example(case=("run_bench.params container", []))
# pooled the data, then raised "unknown method 'x'", naming no argument
@example(case=("run_method.method", "x"))
@example(case=("ratio_score.which", "x"))
def test_bad_choice_succeeds_or_names_itself(tmp_path_factory, case):
    target, value = case
    call, name, _, accepts = CHOICE_TARGETS[target]
    path = tmp_path_factory.getbasetemp() / "choice_fuzz.csv"
    path.unlink(missing_ok=True)
    try:
        call(value, path)
    except InputError as exc:
        assert str(exc).startswith(f"{name} must "), (target, value, str(exc))
        assert not path.exists(), (target, value)
        return
    except SolverFailure:
        pass
    # a call that ran took a valid value
    assert accepts(value), (target, value)
