"""Benchmark harness: trial resplitting, sweep structure, determinism,
thread invariance, and the partial-failure policy."""

import json
import os

import numpy as np
import pytest

from ratioscope import baselines, harness
from ratioscope.data import LABEL_INLIER, LABEL_OUTLIER, Dataset, load_csv
from ratioscope.errors import RatioscopeError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def small_params(**overrides):
    params = dict(harness.DEFAULT_PARAMS)
    params.update({"outer_max_iters": 20, "lof_k": 3}, **overrides)
    return params


class TestTrialSeed:
    def test_deterministic_and_distinct(self):
        assert harness._trial_seed(0, 10, 3) == harness._trial_seed(0, 10, 3)
        seeds = {harness._trial_seed(s, d, t) for s in range(3) for d in (5, 10) for t in range(4)}
        assert len(seeds) == 3 * 2 * 4

    def test_in_range(self):
        assert 0 <= harness._trial_seed(2**40, 100, 99) < 2**63


class TestResplit:
    def setup_method(self):
        self.data, self.labels = load_csv(os.path.join(FIXTURES, "blobs.csv"))

    def test_sizes_and_labels(self):
        inliers, test, labels = harness.resplit_dataset(self.data, self.labels, 10, seed=0, trial=0)
        # 40 inliers total: half become the model set
        assert inliers.m == 20
        assert test.m == 20 + 10
        assert labels.count(LABEL_INLIER) == 20
        assert labels.count(LABEL_OUTLIER) == 10

    def test_model_and_test_disjoint(self):
        inliers, test, _ = harness.resplit_dataset(self.data, self.labels, 10, seed=0, trial=0)
        assert set(inliers.sample_ids).isdisjoint(test.sample_ids)

    def test_no_outlier_leaks_into_model_set(self):
        outlier_ids = {
            sid for sid, lab in zip(self.data.sample_ids, self.labels) if lab == LABEL_OUTLIER
        }
        inliers, _, _ = harness.resplit_dataset(self.data, self.labels, 10, seed=1, trial=2)
        assert outlier_ids.isdisjoint(inliers.sample_ids)

    def test_deterministic_per_trial(self):
        a = harness.resplit_dataset(self.data, self.labels, 10, seed=7, trial=4)
        b = harness.resplit_dataset(self.data, self.labels, 10, seed=7, trial=4)
        assert a[0].sample_ids == b[0].sample_ids
        assert a[1].sample_ids == b[1].sample_ids

    def test_trials_differ(self):
        a = harness.resplit_dataset(self.data, self.labels, 10, seed=7, trial=0)
        b = harness.resplit_dataset(self.data, self.labels, 10, seed=7, trial=1)
        assert a[0].sample_ids != b[0].sample_ids

    def test_too_few_outliers_warns_and_uses_all(self, caplog):
        data, labels = load_csv(os.path.join(FIXTURES, "shift.csv"))
        inliers, test, out_labels = harness.resplit_dataset(data, labels, 10, seed=0, trial=0)
        assert out_labels.count(LABEL_OUTLIER) == 6
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "only 6 outliers" in caplog.text


class TestThreadCount:
    def test_explicit_request_wins(self):
        assert harness.default_thread_count(5) == 5

    def test_fallback_at_least_one(self):
        assert harness.default_thread_count(None) >= 1

    @pytest.mark.parametrize("requested", [0, -5])
    def test_nonpositive_request_rejected(self, requested):
        # used to fall back to the default silently
        with pytest.raises(ValueError):
            harness.default_thread_count(requested)


class TestRunBench:
    def test_structure_and_ranges(self):
        doc, rows, n_failures = harness.run_bench(
            dims=[4, 6], trials=3, methods=["kde", "lof"], seed=0,
            params=small_params(), threads=1,
        )
        assert n_failures == 0
        assert doc["dims"] == [4, 6]
        assert doc["trials"] == 3
        assert len(doc["per_dim"]) == 2
        for entry in doc["per_dim"]:
            names = [m["name"] for m in entry["methods"]]
            assert names == ["kde", "lof"]
            for m in entry["methods"]:
                assert len(m["auc_values"]) == 3
                assert all(0.0 <= v <= 1.0 for v in m["auc_values"])
                assert 0.0 <= m["mean"] <= 1.0
            assert "kde|lof" in entry["pairwise_p"]
        assert len(rows) == 2 * 2  # dims x methods

    def test_deterministic_across_runs(self):
        kwargs = dict(dims=[5], trials=2, methods=["kde", "ulsif"], seed=3,
                      params=small_params(), threads=1)
        a = harness.run_bench(**kwargs)[0]
        b = harness.run_bench(**kwargs)[0]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_thread_invariance(self):
        kwargs = dict(dims=[4], trials=4, methods=["kde", "lof", "ulsif"], seed=0,
                      params=small_params())
        docs = [json.dumps(harness.run_bench(**kwargs, threads=n)[0], sort_keys=True)
                for n in (1, 2, 8)]
        assert docs[0] == docs[1] == docs[2]

    def test_dataset_resplit_path(self):
        data, labels = load_csv(os.path.join(FIXTURES, "blobs.csv"))
        doc, _, n_failures = harness.run_bench(
            dims=[data.d], trials=2, methods=["kde", "lof"], seed=0,
            params=small_params(), dataset=data, dataset_labels=labels,
            dataset_name="blobs", threads=1,
        )
        assert n_failures == 0
        assert doc["dataset"] == "blobs"
        # the planted outliers are far from the inlier blob: near-perfect AUC
        for m in doc["per_dim"][0]["methods"]:
            assert m["mean"] >= 0.95

    @pytest.mark.parametrize("bad", [
        {"lof_k": 0}, {"osvm_nu": 2.0}, {"l1lr_lambda": float("nan")},
        {"ulsif_nu": -1.0}, {"rulsif_beta": float("nan")}, {"lambda1": float("inf")},
    ])
    def test_bad_param_raises_before_any_trial(self, monkeypatch, bad):
        # each used to fail every trial, one warning per trial
        calls = []
        monkeypatch.setattr(harness, "run_method", lambda *a: calls.append(a))
        with pytest.raises((ValueError, RatioscopeError)):
            harness.run_bench(dims=[4], trials=2, methods=["kde"], seed=0,
                              params=small_params(**bad), threads=1)
        assert calls == []

    def test_failure_records_null_and_continues(self, caplog):
        # constant features make the median distance heuristic degenerate,
        # so kde fails per-trial while lof (pure ranks of zero distances) may too;
        # the run must still return a document with nulls counted
        d = 3
        ids = tuple(f"c{i}" for i in range(30))
        data = Dataset(
            features=np.zeros((d, 30)),
            feature_names=("f1", "f2", "f3"),
            sample_ids=ids,
        )
        labels = [LABEL_INLIER] * 24 + [LABEL_OUTLIER] * 6
        doc, rows, n_failures = harness.run_bench(
            dims=[d], trials=2, methods=["kde"], seed=0,
            params=small_params(), dataset=data, dataset_labels=labels, threads=1,
        )
        assert n_failures == 2
        entry = doc["per_dim"][0]["methods"][0]
        assert entry["auc_values"] == [None, None]
        assert entry["mean"] is None
        assert rows[0][2] is None
        assert caplog.text.count("kde failed") == 2

    def test_dump_scores(self, tmp_path):
        out_dir = tmp_path / "dump"
        harness.run_bench(
            dims=[4], trials=2, methods=["kde"], seed=0,
            params=small_params(), threads=1, dump_scores_dir=str(out_dir),
        )
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["scores_d4_t0_kde.csv", "scores_d4_t1_kde.csv"]

    def test_unconverged_fit_warns_once(self, monkeypatch, caplog):
        from ratioscope.synth import SynthSpec, generate

        inliers, test, labels = generate(SynthSpec(d=3, n_inlier=10, n_test_inlier=5, n_test_outlier=1))
        params = dict(harness.DEFAULT_PARAMS)
        for method in ("osvm", "llr"):
            harness.run_method(method, inliers, test, labels, params, 0)
        assert caplog.records == []
        fit = baselines.osvm_fit
        monkeypatch.setattr(baselines, "osvm_fit", lambda *a: fit(*a, max_iters=2))
        harness.run_method("osvm", inliers, test, labels, params, 0)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "osvm stopped at its iteration cap" in caplog.text
        # LLR's outer loop at its cap used to be dropped without a word
        caplog.clear()
        harness.run_method("llr", inliers, test, labels, {**params, "outer_max_iters": 2}, 0)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "llr stopped at its iteration cap" in caplog.text

    def test_unknown_method_raises(self):
        from ratioscope.synth import SynthSpec, generate

        inliers, test, labels = generate(SynthSpec(d=3, n_inlier=10, n_test_inlier=5, n_test_outlier=1))
        with pytest.raises(ValueError):
            harness.run_method("bogus", inliers, test, labels, dict(harness.DEFAULT_PARAMS), 0)


class TestFormatTable:
    def _entry(self):
        return {
            "dim": 10,
            "methods": [
                {"name": "llr", "mean": 0.95, "std": 0.01, "auc_values": [0.94, 0.96]},
                {"name": "kde", "mean": 0.94, "std": 0.02, "auc_values": [0.92, 0.96]},
                {"name": "lof", "mean": 0.60, "std": 0.01, "auc_values": [0.59, 0.61]},
                {"name": "bad", "mean": None, "std": None, "auc_values": [None, None]},
            ],
            "pairwise_p": {"llr|kde": 0.6, "llr|lof": 0.001},
        }

    def test_best_and_comparable_starred(self):
        lines = harness.format_table(self._entry()).splitlines()
        assert lines[0] == "dim=10"
        by_name = {ln.lstrip(" *").split()[0]: ln for ln in lines[1:]}
        assert by_name["llr"].strip().startswith("*")
        assert by_name["kde"].strip().startswith("*")  # p=0.6 >= 0.05, comparable
        assert not by_name["lof"].strip().startswith("*")
        assert "bad" not in by_name

    def test_all_failed(self):
        entry = {"dim": 5, "methods": [{"name": "kde", "mean": None, "std": None,
                                        "auc_values": [None]}], "pairwise_p": {}}
        assert harness.format_table(entry) == "(no successful trials)"
