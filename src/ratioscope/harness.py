"""Benchmark harness: seeded trials, method registry, aggregation.

Each trial builds an (inliers, test, labels) triple, standardizes by
inlier statistics, runs every requested method, and records the AUC.
Trials fan out over a thread pool; their AUCs are keyed by (dim, trial)
and aggregated in one pass (mean, sample std, Welch's t-test per method
pair), so the output is independent of scheduling.
"""

from __future__ import annotations

import logging
import os
import numpy as np

from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

from . import baselines, llr
from .data import (
    LABEL_INLIER,
    LABEL_OUTLIER,
    Dataset,
    StandardizationStats,
    apply_standardizer,
    check_labels,
    fit_standardizer,
    pool,
)
from .errors import InputError, check_choice, check_number, check_sequence
from .evaluation import auc, welch_ttest
from .graph import check_neighbors, median_heuristic
from .scores import ScoreSet, ratio_score, save_scores_csv
from .synth import ROLE_RESPLIT, SynthSpec, check_seed, generate, trial_stream

_log = logging.getLogger(__name__)

METHODS = ("llr", "kde", "lof", "osvm", "l1lr", "kliep", "ulsif", "rulsif")
# the methods whose kernel width is the pooled set's median heuristic
POOLED_SIGMA_METHODS = ("osvm", "kliep", "ulsif", "rulsif")
# what `ratioscope bench` runs when --methods is not given
DEFAULT_BENCH_METHODS = ("llr", "kde", "lof", "osvm", "l1lr", "kliep", "ulsif")
# outliers that resplit_dataset samples into each trial's test set
RESPLIT_OUTLIERS = 10

# bench params passed to llr.LlrHyperparams under the same names; sigma2 stays "auto"
LLR_PARAMS = tuple(f.name for f in fields(llr.LlrHyperparams) if f.name != "sigma2")

DEFAULT_PARAMS = {
    **{name: getattr(llr.LlrHyperparams, name) for name in LLR_PARAMS},
    "lof_k": 10,
    "osvm_nu": 0.1,
    "l1lr_lambda": 0.1,
    "ulsif_nu": 0.1,
    "rulsif_beta": 0.5,
    "standardize": True,
}


def _trial_seed(seed: int, dim: int, trial: int) -> int:
    # stable scalar key for basis subsampling inside baselines, in Python ints: no int64 overflow
    return (int(seed) * 1000003 + int(dim) * 1009 + trial) % (2**63)


def run_method(
    method: str,
    inliers: Dataset,
    test: Dataset,
    labels,
    params: dict,
    seed: int,
    sigma: float | None = None,
) -> ScoreSet:
    """Run one detector and return test-sample scores with labels.

    ``sigma`` is the median heuristic of the pooled set, which the
    POOLED_SIGMA_METHODS use as kernel width; None computes it.
    """
    check_choice("method", method, METHODS)
    pooled = pool(inliers, test)
    model = None
    if method == "llr":
        # fit_pooled caps k_neighbors at m - 1
        hp = llr.LlrHyperparams(**{name: params[name] for name in LLR_PARAMS})
        model = llr.fit_pooled(pooled, hp)
        s = ratio_score(model.weights, pooled, which="test")
    elif method == "kde":
        s = baselines.kde_fit_score(inliers, test, median_heuristic(inliers.features))
    elif method == "lof":
        s = baselines.lof_score(inliers, test, min(params["lof_k"], inliers.m - 1))
    elif method == "l1lr":
        model = baselines.l1lr_fit(pooled, params["l1lr_lambda"])
        s = baselines.l1lr_score(model, test, pooled.n_test, pooled.n_inlier)
    else:  # one of POOLED_SIGMA_METHODS
        if sigma is None:
            sigma = median_heuristic(pooled.features)
        if method == "osvm":
            model = baselines.osvm_fit(pooled, params["osvm_nu"], sigma)
        elif method == "kliep":
            model = baselines.kliep_fit(inliers, test, sigma, seed=seed)
        else:
            beta = 1.0 if method == "ulsif" else params["rulsif_beta"]
            model = baselines.rulsif_fit(
                inliers, test, beta, params["ulsif_nu"], sigma, seed=seed
            )
        s = baselines.kernel_model_score(model, test)
    if model is not None and not model.converged:
        _log.warning("warning: %s stopped at its iteration cap without converging", method)
    return ScoreSet(s.sample_ids, s.scores, labels)


def standardized(inliers: Dataset, test: Dataset, stats: StandardizationStats | None):
    """The pair with ``stats`` applied to both sets, or as given when
    stats is None."""
    if stats is None:
        return inliers, test
    return apply_standardizer(inliers, stats), apply_standardizer(test, stats)


def resplit_dataset(data: Dataset, labels, seed: int, trial: int):
    """Real-data protocol: half the inlier class as model samples, the
    remaining inliers plus up to RESPLIT_OUTLIERS sampled outliers as test."""
    labels = np.asarray(check_dataset_labels(data, labels, "labels"))
    inl_idx = np.flatnonzero(labels == LABEL_INLIER)
    out_idx = np.flatnonzero(labels == LABEL_OUTLIER)
    rng = trial_stream(seed, ROLE_RESPLIT, trial)
    inl_perm = rng.permutation(inl_idx)
    half = len(inl_idx) // 2
    model_idx = np.sort(inl_perm[:half])
    test_inl_idx = np.sort(inl_perm[half:])
    if len(out_idx) < RESPLIT_OUTLIERS:
        _log.warning("warning: only %d outliers available, using all", len(out_idx))
        picked_out = out_idx
    else:
        picked_out = np.sort(rng.choice(out_idx, size=RESPLIT_OUTLIERS, replace=False))
    test_idx = np.concatenate([test_inl_idx, picked_out])
    test_labels = [LABEL_INLIER] * len(test_inl_idx) + [LABEL_OUTLIER] * len(picked_out)
    return data.columns(model_idx), data.columns(test_idx), test_labels


def check_dataset_labels(dataset: Dataset, labels, name: str = "dataset_labels") -> tuple[str, ...]:
    """``labels`` as a tuple, or InputError naming ``name`` unless it holds one
    inlier or outlier label per sample of ``dataset``, and enough to resplit."""
    if labels is None:
        raise InputError(f"{name} must be given: a bench dataset needs a label column")
    labels = check_labels(labels, dataset.m, name)
    # resplit_dataset puts half the inliers, rounded down, in the reference
    # set, where standardization, KDE's median heuristic and LOF each need
    # 2, and it needs an outlier for the test set
    n_inliers, n_outliers = labels.count(LABEL_INLIER), labels.count(LABEL_OUTLIER)
    if n_inliers < 4 or n_outliers < 1:
        raise InputError(f"{name} must hold at least 4 {LABEL_INLIER!r} and 1 "
                         f"{LABEL_OUTLIER!r} labels, got {n_inliers} and {n_outliers}")
    return labels


def default_thread_count(requested: int | None) -> int:
    """``requested`` pool threads, or min(8, CPU count) when None."""
    if requested is None:
        return min(8, os.cpu_count() or 1)
    check_number("threads", requested, 1, integer=True)
    return requested


def run_bench(
    dims,
    trials: int,
    methods,
    seed: int,
    params: dict | None = None,
    dataset: Dataset | None = None,
    dataset_labels=None,
    dataset_name: str = "synthetic",
    threads: int | None = None,
    dump_scores_dir=None,
):
    """Run the (dim x trial x method) sweep and aggregate.

    Returns the results document.  A bad parameter raises before any
    trial runs; a method failing on a trial records null for that AUC
    and processing continues.
    """
    dims = check_sequence("dims", dims, "dimensions")
    methods = check_sequence("methods", methods, "method names")
    if not dims or not methods:
        name, value = ("methods", methods) if dims else ("dims", dims)
        raise InputError(f"{name} must hold at least one entry, got {list(value)!r}")
    if params is not None and not isinstance(params, Mapping):
        raise InputError(f"params must be a mapping of parameter names to values, got {params!r}")
    for method in methods:
        check_choice("methods", method, METHODS)
    for name in params or {}:
        check_choice("params", name, DEFAULT_PARAMS)
    check_number("trials", trials, 1, integer=True)
    check_seed(seed)
    params = {**DEFAULT_PARAMS, **(params or {})}
    # the checks the fits themselves run, once for the whole sweep
    llr.LlrHyperparams(**{name: params[name] for name in LLR_PARAMS})
    check_neighbors("lof K", params["lof_k"])
    baselines.check_osvm_nu(params["osvm_nu"])
    baselines.check_l1lr_lambda(params["l1lr_lambda"])
    baselines.check_rulsif(params["rulsif_beta"], params["ulsif_nu"])
    # each SynthSpec checks its dimension here rather than in a trial; with a
    # dataset the dims only label the results and key the trial seeds
    specs = {dim: SynthSpec(d=dim, seed=seed) for dim in dims} if dataset is None else {}
    for dim in dims:
        check_number("dims", dim, 1, integer=True)
    # the results document holds Python ints and strs, whatever numpy
    # scalars a caller passed, so that json can write it
    dims, methods = tuple(map(int, dims)), tuple(map(str, methods))
    trials, seed = int(trials), int(seed)
    for name, values in (("dims", dims), ("methods", methods)):
        if len(set(values)) < len(values):
            raise InputError(f"{name} must not repeat, got {list(values)}")
    if dataset is not None:
        inlier = np.array(check_dataset_labels(dataset, dataset_labels)) == LABEL_INLIER
        if params["standardize"]:
            # each trial standardizes by half the inlier class; a feature
            # whose mean or std overflows over the whole class is
            # reported here, before any trial (or its warnings) starts
            fit_standardizer(dataset.columns(np.flatnonzero(inlier)))
    if dump_scores_dir is not None:
        os.makedirs(dump_scores_dir, exist_ok=True)
    tasks = [(dim, trial) for dim in dims for trial in range(trials)]

    def run_one(task):
        dim, trial = task
        if dataset is None:
            inliers, test, labels = generate(specs[dim], trial=trial)
        else:
            inliers, test, labels = resplit_dataset(dataset, dataset_labels, seed, trial)
        stats = fit_standardizer(inliers) if params["standardize"] else None
        inliers, test = standardized(inliers, test, stats)
        aucs, failures, sigma = {}, [], None
        for method in methods:
            try:
                # one pooled median heuristic per trial for all the kernel
                # methods; if it raises, each of them fails as it would alone
                if method in POOLED_SIGMA_METHODS and sigma is None:
                    sigma = median_heuristic(pool(inliers, test).features)
                s = run_method(
                    method, inliers, test, labels, params, _trial_seed(seed, dim, trial), sigma
                )
                aucs[method] = auc(s)
            except Exception as exc:  # record and continue
                aucs[method] = None
                failures.append((method, dim, trial, exc))
                continue
            if dump_scores_dir is not None:
                name = f"scores_d{dim}_t{trial}_{method}.csv"
                save_scores_csv(os.path.join(dump_scores_dir, name), s)
        return aucs, failures

    done = {}
    with ThreadPoolExecutor(max_workers=default_thread_count(threads)) as pool_:
        # map yields in task order, whatever order the trials finish in
        for task, (aucs, failures) in zip(tasks, pool_.map(run_one, tasks)):
            done[task] = aucs
            for failure in failures:
                _log.warning("warning: %s failed on dim=%d trial=%d: %s", *failure)

    per_dim = []
    for dim in dims:
        entries, ok = [], {}
        for method in methods:
            values = [done[dim, trial][method] for trial in range(trials)]
            ok[method] = [v for v in values if v is not None]
            mean = std = None
            if ok[method]:
                # sample std (m - 1 denominator), 0 for a single value
                mean = float(np.mean(ok[method]))
                std = float(np.std(ok[method], ddof=1)) if len(ok[method]) > 1 else 0.0
            entries.append({"name": method, "mean": mean, "std": std, "auc_values": values})
        pairwise = {
            f"{a}|{b}": welch_ttest(ok[a], ok[b])
            for i, a in enumerate(methods) for b in methods[i + 1 :]
            if len(ok[a]) >= 2 and len(ok[b]) >= 2
        }
        per_dim.append({"dim": dim, "methods": entries, "pairwise_p": pairwise})
    return {
        "dataset": dataset_name,
        "seed": seed,
        "trials": trials,
        "dims": list(dims),
        "per_dim": per_dim,
    }


def format_table(per_dim_entry) -> str:
    """Text table with '*' marking the best mean AUC and every method
    statistically comparable to it (Welch p >= 0.05)."""
    methods = [m for m in per_dim_entry["methods"] if m["mean"] is not None]
    if not methods:
        return "(no successful trials)"
    best = max(methods, key=lambda m: m["mean"])
    pairwise = per_dim_entry["pairwise_p"]
    lines = [f"dim={per_dim_entry['dim']}"]
    for m in methods:
        starred = m["name"] == best["name"]
        if not starred:
            key = f"{best['name']}|{m['name']}"
            alt = f"{m['name']}|{best['name']}"
            p = pairwise.get(key, pairwise.get(alt))
            starred = p is not None and p >= 0.05
        mark = "*" if starred else " "
        lines.append(f"  {mark} {m['name']:<8s} {m['mean']:.3f} ({m['std']:.3f})")
    return "\n".join(lines)
