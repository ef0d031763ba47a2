"""Benchmark harness: trial resplitting, sweep structure, determinism,
thread invariance, and the partial-failure policy."""

import json
import os
import re
import threading
from dataclasses import fields

import numpy as np
import pytest

from conftest import bench_failures, make_dataset
from ratioscope import baselines, harness, llr
from ratioscope.data import LABEL_INLIER, LABEL_OUTLIER, Dataset, load_csv
from ratioscope.errors import InputError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def small_params(**overrides):
    params = dict(harness.DEFAULT_PARAMS)
    params.update({"outer_max_iters": 20, "lof_k": 3}, **overrides)
    return params


def test_llr_params_are_the_hyperparams_but_sigma2():
    assert {f.name for f in fields(llr.LlrHyperparams)} == set(harness.LLR_PARAMS) | {"sigma2"}


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
        inliers, test, labels = harness.resplit_dataset(self.data, self.labels, seed=0, trial=0)
        # 40 inliers total: half become the model set
        assert inliers.m == 20
        assert test.m == 20 + 10
        assert labels.count(LABEL_INLIER) == 20
        assert labels.count(LABEL_OUTLIER) == 10

    def test_model_and_test_disjoint(self):
        inliers, test, _ = harness.resplit_dataset(self.data, self.labels, seed=0, trial=0)
        assert set(inliers.sample_ids).isdisjoint(test.sample_ids)

    def test_no_outlier_leaks_into_model_set(self):
        outlier_ids = {
            sid for sid, lab in zip(self.data.sample_ids, self.labels) if lab == LABEL_OUTLIER
        }
        inliers, _, _ = harness.resplit_dataset(self.data, self.labels, seed=1, trial=2)
        assert outlier_ids.isdisjoint(inliers.sample_ids)

    def test_deterministic_per_trial(self):
        a = harness.resplit_dataset(self.data, self.labels, seed=7, trial=4)
        b = harness.resplit_dataset(self.data, self.labels, seed=7, trial=4)
        assert a[0].sample_ids == b[0].sample_ids
        assert a[1].sample_ids == b[1].sample_ids

    def test_trials_differ(self):
        a = harness.resplit_dataset(self.data, self.labels, seed=7, trial=0)
        b = harness.resplit_dataset(self.data, self.labels, seed=7, trial=1)
        assert a[0].sample_ids != b[0].sample_ids

    def test_draws_from_the_resplit_stream(self):
        # the split is keyed by spawn_key (3, trial), apart from synth's roles 0-2
        inliers, test, _ = harness.resplit_dataset(self.data, self.labels, seed=7, trial=2)
        labels = np.asarray(self.labels)
        inl_idx, out_idx = np.flatnonzero(labels == LABEL_INLIER), np.flatnonzero(labels == LABEL_OUTLIER)
        ss = np.random.SeedSequence(entropy=7, spawn_key=(3, 2))
        rng = np.random.Generator(np.random.Philox(seed=ss))
        perm = rng.permutation(inl_idx)
        half = len(inl_idx) // 2
        picked = np.sort(rng.choice(out_idx, size=10, replace=False))
        test_idx = np.concatenate([np.sort(perm[half:]), picked])
        assert inliers.sample_ids == tuple(self.data.sample_ids[i] for i in np.sort(perm[:half]))
        assert test.sample_ids == tuple(self.data.sample_ids[i] for i in test_idx)

    def test_too_few_outliers_warns_and_uses_all(self, caplog):
        data, labels = load_csv(os.path.join(FIXTURES, "shift.csv"))
        inliers, test, out_labels = harness.resplit_dataset(data, labels, seed=0, trial=0)
        assert out_labels.count(LABEL_OUTLIER) == 6
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "only 6 outliers" in caplog.text

    @pytest.mark.parametrize("labels, message", [
        # used to log "only 0 outliers available" and split anyway
        (["inlier"] * 4 + ["Outlier", "x"], "must be one of 'inlier', 'outlier', got 'Outlier'"),
        # an empty model set used to fail as "features must be a d x m matrix ..."
        (["inlier"] + ["outlier"] * 5, "must hold at least 4 'inlier' and 1 'outlier' labels, "
                                       "got 1 and 5"),
    ], ids=["unknown", "one-inlier"])
    def test_bad_labels_raise_by_name(self, caplog, labels, message):
        data = make_dataset(np.zeros((2, 6)), "c")
        with pytest.raises(InputError, match=f"^labels {message}$"):
            harness.resplit_dataset(data, labels, seed=0, trial=0)
        assert caplog.records == []


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
        doc = harness.run_bench(
            dims=[4, 6], trials=3, methods=["kde", "lof"], seed=0,
            params=small_params(), threads=1,
        )
        assert bench_failures(doc) == 0
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

    def test_single_trial_std_is_zero(self):
        doc = harness.run_bench(dims=[4], trials=1, methods=["kde", "lof"], seed=0,
                                params=small_params(), threads=1)
        for m in doc["per_dim"][0]["methods"]:
            assert m["mean"] == m["auc_values"][0] and m["std"] == 0.0

    def test_mean_and_std_match_a_ddof1_oracle(self):
        doc = harness.run_bench(dims=[4, 6], trials=5, methods=["kde", "lof"], seed=1,
                                params=small_params(), threads=1)
        entries = [m for e in doc["per_dim"] for m in e["methods"]]
        assert len(entries) == 4
        for m in entries:
            values = m["auc_values"]
            mean = sum(values) / 5
            var = sum((v - mean) ** 2 for v in values) / 4
            assert m["mean"] == pytest.approx(mean, abs=1e-12)
            assert m["std"] == pytest.approx(var**0.5, abs=1e-12)

    def test_deterministic_across_runs(self):
        kwargs = dict(dims=[5], trials=2, methods=["kde", "ulsif"], seed=3,
                      params=small_params(), threads=1)
        a = harness.run_bench(**kwargs)
        b = harness.run_bench(**kwargs)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_numpy_arguments_give_a_json_document(self):
        # numpy dims, methods and seed used to land in the document as
        # np.int64 and np.str_, which json.dumps refuses
        doc = harness.run_bench(dims=np.array([3, 4]), trials=1, methods=np.array(["kde", "lof"]),
                                seed=np.int64(0), threads=1)
        plain = harness.run_bench(dims=[3, 4], trials=1, methods=["kde", "lof"], seed=0, threads=1)
        assert json.dumps(doc) == json.dumps(plain)

    def test_thread_invariance(self):
        kwargs = dict(dims=[4], trials=4, methods=["kde", "lof", "ulsif"], seed=0,
                      params=small_params())
        docs = [json.dumps(harness.run_bench(**kwargs, threads=n), sort_keys=True)
                for n in (1, 2, 8)]
        assert docs[0] == docs[1] == docs[2]

    def test_dataset_resplit_path(self):
        data, labels = load_csv(os.path.join(FIXTURES, "blobs.csv"))
        doc = harness.run_bench(
            dims=[data.d], trials=2, methods=["kde", "lof"], seed=0,
            params=small_params(), dataset=data, dataset_labels=labels,
            dataset_name="blobs", threads=1,
        )
        assert bench_failures(doc) == 0
        assert doc["dataset"] == "blobs"
        # the planted outliers are far from the inlier blob: near-perfect AUC
        for m in doc["per_dim"][0]["methods"]:
            assert m["mean"] >= 0.95

    @pytest.mark.parametrize("bad", [
        {"lof_k": 0}, {"osvm_nu": 2.0}, {"l1lr_lambda": float("nan")},
        {"ulsif_nu": -1.0}, {"rulsif_beta": float("nan")}, {"lambda1": float("inf")},
        {"standardize": "false"}, {"standardize": None},
    ])
    def test_bad_param_raises_before_any_trial(self, monkeypatch, bad):
        # each used to fail every trial, one warning per trial
        calls = []
        monkeypatch.setattr(harness, "run_method", lambda *a: calls.append(a))
        with pytest.raises(InputError):
            harness.run_bench(dims=[4], trials=2, methods=["kde"], seed=0,
                              params=small_params(**bad), threads=1)
        assert calls == []

    def test_standardize_takes_a_numpy_bool(self):
        # any other value used to be read by its truth value: "false" standardized
        runs = [harness.run_bench(dims=[3], trials=1, methods=["kde"], seed=0,
                                  params={"standardize": flag}, threads=1)
                for flag in (False, np.False_)]
        assert runs[0] == runs[1]
        with pytest.raises(InputError, match=r"^params standardize must be a bool, got 0$"):
            harness.run_bench(dims=[3], trials=1, methods=["kde"], seed=0,
                              params={"standardize": 0}, threads=1)

    def test_negative_seed_raises_before_any_trial(self, monkeypatch):
        # used to fail inside a pool thread, in numpy's SeedSequence
        calls = []
        monkeypatch.setattr(harness, "generate", lambda *a, **k: calls.append(a))
        with pytest.raises(InputError, match=r"seed must be an integer in \[0, inf\), got -1"):
            harness.run_bench(dims=[4], trials=2, methods=["kde"], seed=-1,
                              params=small_params(), threads=1)
        assert calls == []

    def test_bad_dim_raises_before_any_trial(self, monkeypatch):
        # the d=4 trial used to run before the d=1 trial's SynthSpec raised
        calls = []
        monkeypatch.setattr(harness, "generate", lambda *a, **k: calls.append(a))
        with pytest.raises(InputError, match=r"d must be an integer in \[2, inf\), got 1"):
            harness.run_bench(dims=[4, 1], trials=1, methods=["kde"], seed=0,
                              params=small_params(), threads=1)
        assert calls == []

    @pytest.mark.parametrize("dim", [1.5, 0, "4"])
    def test_bad_dim_with_a_dataset_raises_before_any_trial(self, monkeypatch, dim):
        # with a dataset the dims went unchecked: 1.5 ran KDE, and then
        # KLIEP failed on a fractional trial seed
        rng = np.random.default_rng(0)
        data = make_dataset(rng.normal(size=(3, 30)), "c")
        labels = [LABEL_INLIER] * 24 + [LABEL_OUTLIER] * 6
        calls = []
        monkeypatch.setattr(harness, "resplit_dataset", lambda *a: calls.append(a))
        with pytest.raises(InputError, match=r"^dims must be an integer in \[1, inf\), got "):
            harness.run_bench(dims=[4, dim], trials=1, methods=["kde", "kliep"], seed=0,
                              params=small_params(), dataset=data, dataset_labels=labels,
                              threads=1)
        assert calls == []

    @pytest.mark.parametrize("dims, methods", [([], ["kde"]), ([4], []), ([4], None)])
    def test_empty_dims_or_methods_name_themselves(self, dims, methods):
        # used to raise "a bench run needs at least one dimension and method"
        name, value = ("dims", dims) if not dims else ("methods", methods)
        message = (f"{name} must hold at least one entry, got {value!r}" if value is not None
                   else "methods must be a sequence of method names, got None")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            harness.run_bench(dims=dims, trials=1, methods=methods, seed=0, threads=1)

    def test_misspelt_param_raises_before_any_trial(self, monkeypatch):
        # used to run l1lr at its default lambda and ignore the misspelt one
        calls = []
        monkeypatch.setattr(harness, "generate", lambda *a, **k: calls.append(a))
        with pytest.raises(InputError, match=r"^params must be one of 'lambda1', .*, "
                                             r"got 'l1lr_lamda'$"):
            harness.run_bench(dims=[4], trials=1, methods=["l1lr"], seed=0,
                              params={"l1lr_lamda": 1e9}, threads=1)
        assert calls == []

    @pytest.mark.parametrize("dims,methods", [([4, 4], ["kde"]), ([4], ["kde", "kde"]),
                                              ([4, 6, 4], ["kde", "lof"])])
    def test_repeated_dim_or_method_raises_before_any_trial(self, monkeypatch, dims, methods):
        # used to run every repeated (dim, trial) again and write the copies
        calls = []
        monkeypatch.setattr(harness, "generate", lambda *a, **k: calls.append(a))
        name = "dims" if len(set(dims)) < len(dims) else "methods"
        with pytest.raises(InputError, match=rf"^{name} must not repeat, got "):
            harness.run_bench(dims=dims, trials=2, methods=methods, seed=0,
                              params=small_params(), threads=1)
        assert calls == []

    @pytest.mark.parametrize("labels,message", [
        # 35 labels for 40 samples used to run on the first 35 samples
        ([LABEL_INLIER] * 30 + [LABEL_OUTLIER] * 5, "got 35 labels for 40 samples"),
        ([LABEL_INLIER] * 30 + [LABEL_OUTLIER] * 12, "got 42 labels for 40 samples"),
        # a label of neither class used to drop its samples and fail every trial
        ([LABEL_INLIER] * 29 + ["bogus"] + [LABEL_OUTLIER] * 10, "got 'bogus'"),
        ([1] * 30 + [-1] * 10, "got 1"),
        (None, "needs a label column"),
        (3, "got 3"),
        # with no outlier, or one inlier for the two halves, every trial used
        # to fail and the run exited as a numerical failure
        ([LABEL_INLIER] * 40, "got 40 and 0"),
        ([LABEL_INLIER] + [LABEL_OUTLIER] * 39, "got 1 and 39"),
        # three inliers leave one in the reference half: standardization
        # used to fail inside the first trial, and without it KDE and LOF
        # failed every trial
        ([LABEL_INLIER] * 3 + [LABEL_OUTLIER] * 37, "got 3 and 37"),
    ])
    def test_bad_dataset_labels_raise_before_any_trial(self, monkeypatch, labels, message):
        data = make_dataset(np.random.default_rng(0).normal(size=(3, 40)), "c")
        calls = []
        monkeypatch.setattr(harness, "resplit_dataset", lambda *a: calls.append(a))
        with pytest.raises(InputError) as info:
            harness.run_bench(dims=[3], trials=2, methods=["kde"], seed=0,
                              params=small_params(), dataset=data, dataset_labels=labels,
                              threads=1)
        assert str(info.value).startswith("dataset_labels must ")
        assert str(info.value).endswith(message)
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
        doc = harness.run_bench(
            dims=[d], trials=2, methods=["kde"], seed=0,
            params=small_params(), dataset=data, dataset_labels=labels, threads=1,
        )
        assert bench_failures(doc) == 2
        entry = doc["per_dim"][0]["methods"][0]
        assert entry["auc_values"] == [None, None]
        assert entry["mean"] is None and entry["std"] is None
        assert caplog.text.count("kde failed") == 2

    def test_failure_warnings_in_task_order(self, monkeypatch, caplog):
        # trial 0 draws its data only once trial 1's methods have raised;
        # the warnings used to be logged from the pool threads, so trial
        # 1's came first
        trial1_failed = threading.Event()
        real_generate = harness.generate

        def generate(spec, trial=0):
            if trial == 0:
                assert trial1_failed.wait(timeout=30)
            return real_generate(spec, trial=trial)

        def run_method(method, inliers, test, labels, params, seed, sigma=None):
            if method == "lof" and seed == harness._trial_seed(0, 4, 1):
                trial1_failed.set()
            raise RuntimeError(f"{method} broke")

        monkeypatch.setattr(harness, "generate", generate)
        monkeypatch.setattr(harness, "run_method", run_method)
        doc = harness.run_bench(dims=[4], trials=2, methods=["kde", "lof"], seed=0,
                                params=small_params(), threads=2)
        assert bench_failures(doc) == 4
        assert [r.getMessage() for r in caplog.records] == [
            f"warning: {m} failed on dim=4 trial={t}: {m} broke"
            for t in (0, 1) for m in ("kde", "lof")
        ]

    def test_one_pooled_median_heuristic_per_trial(self, monkeypatch):
        # kde's inlier bandwidth plus one pooled bandwidth that osvm,
        # kliep, ulsif and rulsif share; each of the four used to compute
        # its own, 5 calls per trial
        calls = []
        real = harness.median_heuristic
        monkeypatch.setattr(harness, "median_heuristic", lambda x: calls.append(x) or real(x))
        doc = harness.run_bench(dims=[4], trials=2, methods=list(harness.METHODS),
                                seed=0, params=small_params(), threads=1)
        assert bench_failures(doc) == 0
        assert len(calls) == 2 * 2

    def test_dump_scores(self, tmp_path):
        out_dir = tmp_path / "dump"
        harness.run_bench(
            dims=[4], trials=2, methods=["kde"], seed=0,
            params=small_params(), threads=1, dump_scores_dir=str(out_dir),
        )
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["scores_d4_t0_kde.csv", "scores_d4_t1_kde.csv"]

    def test_dump_path_a_file_raises_before_any_trial(self, tmp_path, monkeypatch):
        # every trial used to run before the first dump raised
        calls = []
        monkeypatch.setattr(harness, "generate", lambda *a, **k: calls.append(a))
        dump = tmp_path / "notadir"
        dump.write_text("")
        with pytest.raises(FileExistsError):
            harness.run_bench(dims=[4], trials=2, methods=["kde"], seed=0,
                              params=small_params(), threads=1, dump_scores_dir=str(dump))
        assert calls == []

    def test_unconverged_fit_warns_once(self, monkeypatch, caplog):
        from ratioscope.synth import SynthSpec, generate

        inliers, test, labels = generate(SynthSpec(d=3, n_inlier=10, n_test_inlier=5, n_test_outlier=1))
        params = dict(harness.DEFAULT_PARAMS)
        for method in ("osvm", "llr"):
            harness.run_method(method, inliers, test, labels, params, 0)
        assert caplog.records == []
        monkeypatch.setattr(baselines, "_OSVM_MAX_ITERS", 2)
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

    def test_unknown_method_names_itself_before_pooling(self, monkeypatch):
        # used to pool both sets first, then raise "unknown method 'x'"
        calls = []
        monkeypatch.setattr(harness, "pool", lambda *a: calls.append(a))
        data = make_dataset(np.zeros((2, 3)), "c")
        with pytest.raises(InputError, match=r"^method must be one of 'llr', .*, got 'x'$"):
            harness.run_method("x", data, data, ["inlier"] * 3, dict(harness.DEFAULT_PARAMS), 0)
        assert calls == []


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
