"""Output checks computed apart from ratioscope.

Every check reads the program's output files (or their parsed
contents), recomputes the expected value with plain numpy or Python
written here, and returns a list of failure messages; an empty list is
a pass.  None imports ratioscope and none compares against a stored
copy of earlier output.

``self_test_llr`` and ``self_test_sweep`` feed each check a corrupted
copy of a real output and report every corruption a check let through.
"""

from __future__ import annotations

import copy
import csv
import json
import math

import numpy as np

SCALE_FLOOR = 1e-8  # standardization floor on the inlier std, as documented
J_RTOL = 1e-9
SCORE_RTOL = 1e-9
AUC_ATOL = 1e-12
MEAN_RTOL = 1e-12


# --------------------------------------------------------------- reading


def read_csv(path):
    """(names, d x m float array, labels or None) from a samples CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header = rows[0]
    has_label = header[-1] == "label"
    names = header[:-1] if has_label else header
    values = [[float(v) for v in (row[:-1] if has_label else row)] for row in rows[1:]]
    labels = [row[-1] for row in rows[1:]] if has_label else None
    return names, np.asarray(values, dtype=float).T, labels


def read_scores(path):
    """[(sample_id, score, label)] from a scores CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [(r["sample_id"], float(r["score"]), r.get("label")) for r in rows]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Problem:
    """Standardized pooled samples of one trial, rebuilt from its CSVs."""

    def __init__(self, inliers_csv, test_csv):
        names, inl, _ = read_csv(inliers_csv)
        test_names, test, labels = read_csv(test_csv)
        if names != test_names:
            raise ValueError("inlier and test CSVs name different features")
        mean = inl.mean(axis=1, keepdims=True)
        scale = np.maximum(inl.std(axis=1, keepdims=True), SCALE_FLOOR)
        self.names = names
        self.n = inl.shape[1]
        self.n_test = test.shape[1]
        self.X = np.hstack([(inl - mean) / scale, (test - mean) / scale])
        self.y = np.concatenate([np.ones(self.n), -np.ones(self.n_test)])
        self.outlier_cols = [self.n + i for i, lab in enumerate(labels) if lab == "outlier"]

    def column(self, sample_id):
        """Pooled column of a CLI sample id (in-s<i> / te-s<i>)."""
        prefix, index = sample_id.split("-s")
        return int(index) + (self.n if prefix == "te" else 0)


def model_weights(model, problem):
    W = np.asarray(model["weights"], dtype=float)
    return W.reshape(len(problem.names), problem.n + problem.n_test)


# --------------------------------------------------------------- LLR checks


def trace_never_rises(model):
    trace = model["objective_trace"]
    return [
        f"objective rises at step {t}: {trace[t - 1]!r} -> {trace[t]!r}"
        for t in range(1, len(trace))
        if not trace[t] <= trace[t - 1]
    ]


def dense_objective(W, problem, model):
    """J(W) with a kNN graph rebuilt densely from the standardized CSVs
    and the saved sigma2 (smoothed norms with the saved epsilon)."""
    X, m = problem.X, problem.X.shape[1]
    k = min(model["k_neighbors"], m - 1)
    eps = model["epsilon"]
    R = np.zeros((m, m))
    for i in range(m):
        d2 = np.sum((X - X[:, [i]]) ** 2, axis=0)
        d2[i] = np.inf
        nearest = np.argsort(d2, kind="stable")[:k]
        R[i, nearest] = np.exp(-d2[nearest] / (2.0 * model["sigma2"]))
    R = (R + R.T) / 2.0
    np.fill_diagonal(R, 0.0)
    loss = float(np.sum(np.logaddexp(0.0, -problem.y * np.sum(W * X, axis=0))))
    fused = 0.0
    for i in range(m):
        s = np.sqrt(np.sum((W - W[:, [i]]) ** 2, axis=0) + eps)
        fused += float(R[i] @ s)
    l1 = np.sum(np.sqrt(W * W + eps), axis=0)
    return loss + model["lambda1"] * fused + model["lambda2"] * float(np.sum(l1 * l1))


def final_objective_matches(model, problem):
    J = dense_objective(model_weights(model, problem), problem, model)
    last = model["objective_trace"][-1]
    if abs(J - last) > J_RTOL * (1.0 + abs(J)):
        return [f"final objective {last!r} but J recomputed from the weights is {J!r}"]
    return []


def scores_match(model, problem, scores):
    """Each test score equals (n'/n) exp(w_i . x_i)."""
    W = model_weights(model, problem)
    prior = problem.n_test / problem.n
    if len(scores) != problem.n_test:
        return [f"{len(scores)} scores for {problem.n_test} test samples"]
    bad = []
    for sid, value, _ in scores:
        col = problem.column(sid)
        expected = prior * math.exp(float(W[:, col] @ problem.X[:, col]))
        if abs(value - expected) > SCORE_RTOL * expected:
            bad.append(f"score of {sid} is {value!r}, expected {expected!r}")
    return bad


def brute_force_auc(scores):
    """Share of (inlier, outlier) pairs where the outlier scores lower,
    ties counting one half."""
    inl = [s for _, s, lab in scores if lab == "inlier"]
    out = [s for _, s, lab in scores if lab == "outlier"]
    wins = sum(1.0 if o < i else 0.5 if o == i else 0.0 for i in inl for o in out)
    return wins / (len(inl) * len(out))


def auc_matches(scores, reported):
    expected = brute_force_auc(scores)
    if abs(reported - expected) > AUC_ATOL:
        return [f"eval reported AUC {reported!r}, pair count gives {expected!r}"]
    return []


def explanations_are_top_k(model, problem, explanations, k):
    """Each explanation lists its column's top-k features by |w| (ties
    by feature index) with their exact weights."""
    W = model_weights(model, problem)
    if len(explanations) != problem.n_test:
        return [f"{len(explanations)} explanations for {problem.n_test} test samples"]
    bad = []
    for e in explanations:
        w = W[:, problem.column(e["sample_id"])]
        order = sorted(range(len(w)), key=lambda j: (-abs(w[j]), j))[:k]
        expected = [(problem.names[j], float(w[j])) for j in order]
        got = [(f["name"], f["weight"]) for f in e["features"]]
        if got != expected:
            bad.append(f"explanation of {e['sample_id']} is {got}, expected {expected}")
    return bad


def leading_features(model, problem):
    """Indices of the two features with the largest mean |w| over the
    outlier columns."""
    W = model_weights(model, problem)
    mean_abs = np.abs(W[:, problem.outlier_cols]).mean(axis=1)
    return set(np.argsort(-mean_abs, kind="stable")[:2].tolist())


def shifted_features_lead(fits):
    """Over (model, problem) pairs of the trial list: the shifted
    features f1 and f2 lead the outlier columns in most trials."""
    hits = sum(leading_features(model, problem) == {0, 1} for model, problem in fits)
    if not hits > len(fits) / 2:
        return [f"f1 and f2 lead the outlier columns in only {hits} of {len(fits)} trials"]
    return []


def check_llr_trial(model, problem, scores, reported_auc, explanations, k):
    return (
        trace_never_rises(model)
        + final_objective_matches(model, problem)
        + scores_match(model, problem, scores)
        + auc_matches(scores, reported_auc)
        + explanations_are_top_k(model, problem, explanations, k)
    )


# --------------------------------------------------------------- sweep checks


def results_consistent(doc, chance_dim=10):
    """Every mean and std follows from its auc_values, every AUC lies
    in [0, 1], and every method beats chance at chance_dim.
    Null AUCs are failed operations, counted by the caller."""
    bad = []
    for entry in doc["per_dim"]:
        dim = entry["dim"]
        for m in entry["methods"]:
            values = [v for v in m["auc_values"] if v is not None]
            if not values:
                continue
            n = len(values)
            mean = math.fsum(values) / n
            std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
            where = f"dim={dim} {m['name']}"
            if abs(m["mean"] - mean) > MEAN_RTOL * abs(mean):
                bad.append(f"{where}: mean {m['mean']!r}, recomputed {mean!r}")
            if abs(m["std"] - std) > MEAN_RTOL * max(abs(std), 1e-300):
                bad.append(f"{where}: std {m['std']!r}, recomputed {std!r}")
            if any(not 0.0 <= v <= 1.0 for v in values):
                bad.append(f"{where}: AUC outside [0, 1] in {values}")
            if dim == chance_dim and not all(v > 0.5 for v in values):
                bad.append(f"{where}: AUC at or below chance in {values}")
    return bad


def identical_bytes(first, again):
    if first != again:
        return ["results.json differs between rounds of one run"]
    return []


# --------------------------------------------------------------- self-test


def self_test_llr(model, problem, scores, reported_auc, explanations, k, fits):
    """Corrupt one real output per check; return the corruptions that passed."""
    missed = []

    def expect_failure(what, failures):
        if not failures:
            missed.append(what)

    bad = copy.deepcopy(model)
    t = len(bad["objective_trace"]) // 2
    bad["objective_trace"][t] = bad["objective_trace"][t - 1] + 1e-9
    expect_failure("raised trace step", trace_never_rises(bad))

    bad = copy.deepcopy(model)
    bad["objective_trace"][-1] *= 1.0 + 1e-6
    expect_failure("edited final J", final_objective_matches(bad, problem))

    bad = list(scores)
    sid, value, label = bad[0]
    bad[0] = (sid, value * (1.0 + 1e-6), label)
    expect_failure("scaled score", scores_match(model, problem, bad))

    expect_failure("edited AUC", auc_matches(scores, reported_auc + 1e-6))

    bad = copy.deepcopy(explanations)
    feats = bad[0]["features"]
    feats[0]["name"], feats[1]["name"] = feats[1]["name"], feats[0]["name"]
    expect_failure("swapped explanation features",
                   explanations_are_top_k(model, problem, bad, k))

    swapped = []
    for fit_model, fit_problem in fits:
        bad = copy.deepcopy(fit_model)
        W = model_weights(bad, fit_problem)
        W[[0, 2]] = W[[2, 0]]
        bad["weights"] = W.ravel().tolist()
        swapped.append((bad, fit_problem))
    expect_failure("f1 weights swapped with f3", shifted_features_lead(swapped))
    return missed


def _with_aucs(doc, dim_index, values):
    """Copy of doc with the first method's AUCs at one dim replaced and
    its mean and std rewritten to match, so only the AUC rule can fail."""
    bad = copy.deepcopy(doc)
    m = bad["per_dim"][dim_index]["methods"][0]
    n = len(values)
    mean = sum(values) / n
    m["auc_values"] = list(values)
    m["mean"] = mean
    m["std"] = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
    return bad


def self_test_sweep(doc, raw):
    """Corrupt one real results.json per rule; return the corruptions that passed."""
    missed = []

    def expect_failure(what, failures):
        if not failures:
            missed.append(what)

    n = len(doc["per_dim"][0]["methods"][0]["auc_values"])
    d10 = [e["dim"] for e in doc["per_dim"]].index(10)
    bad = copy.deepcopy(doc)
    bad["per_dim"][0]["methods"][0]["mean"] += 1e-6
    expect_failure("edited mean", results_consistent(bad))
    expect_failure("AUC above 1", results_consistent(_with_aucs(doc, 0, [1.5] * n)))
    expect_failure("AUC at chance at d=10", results_consistent(_with_aucs(doc, d10, [0.5] * n)))
    changed = bytearray(raw)
    changed[len(changed) // 2] ^= 0x01
    expect_failure("changed byte", identical_bytes(raw, bytes(changed)))
    return missed
