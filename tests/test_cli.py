"""End-to-end CLI tests: exit codes, file outputs, config handling,
and cross-command consistency (score -> eval round trips)."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ratioscope import cli, harness, llr
from ratioscope.evaluation import auc
from ratioscope.scores import load_scores_csv
from ratioscope.synth import SynthSpec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def assert_one_error(capsys, *fragments):
    """stderr is exactly one 'error:' line holding every fragment."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    for fragment in fragments:
        assert fragment in err[0], err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small synthetic pair plus a fitted model, shared across tests."""
    ws = tmp_path_factory.mktemp("ws")
    assert cli.main([
        "synth", "--d", "5", "--n-inlier", "40", "--n-test-inlier", "20",
        "--n-outlier", "5", "--seed", "0", "--out-dir", str(ws),
    ]) == cli.EXIT_OK
    assert cli.main([
        "fit", "--inliers", str(ws / "inliers.csv"), "--test", str(ws / "test.csv"),
        "--out", str(ws / "model.json"), "--max-outer", "30",
    ]) == cli.EXIT_OK
    return ws


class TestSynth:
    def test_default_row_counts(self, tmp_path):
        assert cli.main(["synth", "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        assert len(read_lines(tmp_path / "inliers.csv")) == 201  # header + 200
        assert len(read_lines(tmp_path / "test.csv")) == 111

    def test_d1_is_usage_error(self, tmp_path):
        assert cli.main(["synth", "--d", "1", "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            cli.main(["synth", "--d", "4", "--seed", "9", "--out-dir", str(out)])
        assert (a / "inliers.csv").read_bytes() == (b / "inliers.csv").read_bytes()
        assert (a / "test.csv").read_bytes() == (b / "test.csv").read_bytes()

    def test_count_defaults_are_the_spec_defaults(self):
        args = cli.build_parser().parse_args(["synth"])
        assert (args.n_inlier, args.n_test_inlier, args.n_outlier) == (
            SynthSpec.n_inlier, SynthSpec.n_test_inlier, SynthSpec.n_test_outlier)

    def test_test_csv_has_label_column(self, tmp_path):
        cli.main(["synth", "--d", "4", "--out-dir", str(tmp_path)])
        header = read_lines(tmp_path / "test.csv")[0].split(",")
        assert header[-1] == "label"


class TestFit:
    def test_model_written_and_reported(self, workspace, capsys):
        model = json.loads((workspace / "model.json").read_text())
        assert len(model["weights"]) == 5 * (40 + 25)
        assert model["standardizer"] is not None
        trace = model["objective_trace"]
        assert all(b <= a + 1e-8 for a, b in zip(trace, trace[1:]))

    def test_missing_file_exit2(self, tmp_path):
        code = cli.main([
            "fit", "--inliers", str(tmp_path / "nope.csv"),
            "--test", str(tmp_path / "nope2.csv"), "--out", str(tmp_path / "m.json"),
        ])
        assert code == cli.EXIT_USAGE

    def test_unregularized_still_runs(self, workspace, tmp_path):
        code = cli.main([
            "fit", "--inliers", str(workspace / "inliers.csv"),
            "--test", str(workspace / "test.csv"),
            "--out", str(tmp_path / "m.json"),
            "--lambda1", "0", "--lambda2", "0", "--max-outer", "5",
        ])
        assert code == cli.EXIT_OK

    def test_bad_flag_exit2(self):
        assert cli.main(["fit", "--inliers", "x.csv"]) == cli.EXIT_USAGE

    def test_unknown_label_exit2(self, workspace, tmp_path, capsys):
        # a label of "Outlier" used to count as neither class
        lines = read_lines(workspace / "test.csv")
        lines[3] = lines[3].rsplit(",", 1)[0] + ",Outlier"
        bad = tmp_path / "test.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = cli.main([
            "fit", "--inliers", str(workspace / "inliers.csv"), "--test", str(bad),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(bad) in err[0] and "row 4" in err[0] and "'Outlier'" in err[0]
        assert not (tmp_path / "m.json").exists()

    def test_non_numeric_cell_exit2(self, workspace, tmp_path, capsys):
        # used to print only "could not convert string to float: 'abc'"
        lines = read_lines(workspace / "test.csv")
        cells = lines[2].split(",")
        cells[1] = "abc"
        lines[2] = ",".join(cells)
        bad = tmp_path / "test.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = cli.main([
            "fit", "--inliers", str(workspace / "inliers.csv"), "--test", str(bad),
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        column = lines[0].split(",")[1]
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(bad) in err[0] and "line 3" in err[0]
        assert repr(column) in err[0] and "'abc'" in err[0]

    def test_out_is_directory_exit2(self, workspace, tmp_path, capsys):
        # IsADirectoryError used to end in a traceback with exit 1
        code = cli.main([
            "fit", "--inliers", str(workspace / "inliers.csv"),
            "--test", str(workspace / "test.csv"), "--out", str(tmp_path),
            "--max-outer", "1",
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_flag_defaults_are_the_hyperparams_defaults(self):
        args = cli.build_parser().parse_args(["fit", "--inliers", "a", "--test", "b"])
        assert cli._hyperparams(args) == llr.LlrHyperparams()

    @pytest.mark.parametrize("flag", ["--lambda1", "--lambda2", "--epsilon", "--tol"])
    def test_nan_hyperparameter_exit2(self, workspace, tmp_path, capsys, flag):
        # --lambda1 nan used to fit with lambda1 = 0 and exit 0, --epsilon nan
        # to end in a solver failure
        out = tmp_path / "m.json"
        code = cli.main([
            "fit", "--inliers", str(workspace / "inliers.csv"),
            "--test", str(workspace / "test.csv"), "--out", str(out), flag, "nan",
        ])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--lambda1", "--lambda2", "--epsilon", "--tol", "--sigma2"])
    def test_infinite_hyperparameter_exit2(self, workspace, tmp_path, capsys, flag):
        # --tol inf and --sigma2 inf used to exit 0, the others 1 with a
        # solver failure (--lambda1 inf after a raw RuntimeWarning)
        out = tmp_path / "m.json"
        code = cli.main([
            "fit", "--inliers", str(workspace / "inliers.csv"),
            "--test", str(workspace / "test.csv"), "--out", str(out), flag, "inf",
        ])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, "finite")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e300", str(float(np.nextafter(1e-4, 1.0)))])
    def test_epsilon_above_bound_exit2(self, workspace, tmp_path, capsys, value):
        # --epsilon 1e300 used to exit 0 with converged=True after one
        # iteration and J about 3e304
        out = tmp_path / "m.json"
        code = cli.main([
            "fit", "--inliers", str(workspace / "inliers.csv"),
            "--test", str(workspace / "test.csv"), "--out", str(out), "--epsilon", value,
        ])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, "epsilon", "1e-4")
        assert not out.exists()

    def test_overflowing_lambda_one_solver_failure_line(self, tmp_path, capsys):
        # a finite lambda1 of 1e308 overflows the penalty gradient; this
        # used to print a raw RuntimeWarning before the solver failure
        assert cli.main(["synth", "--d", "3", "--seed", "0", "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        capsys.readouterr()
        out = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([
                "fit", "--inliers", str(tmp_path / "inliers.csv"),
                "--test", str(tmp_path / "test.csv"), "--out", str(out), "--lambda1", "1e308",
            ])
        assert code == cli.EXIT_FAILURE
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solver failure:"), err
        assert "not finite" in err[0]
        assert not out.exists()

    def test_intercept_is_fitted_under_standardization(self, workspace, tmp_path):
        # standardizing the constant feature used to zero it, so every
        # __const__ weight came out exactly 0.0
        model_path, out = tmp_path / "m.json", tmp_path / "s.csv"
        pair = ["--inliers", str(workspace / "inliers.csv"), "--test", str(workspace / "test.csv")]
        assert cli.main(["fit", *pair, "--out", str(model_path), "--intercept",
                         "--max-outer", "30"]) == cli.EXIT_OK
        model = llr.load_model(model_path)
        assert model["feature_names"][-1] == cli.CONST_FEATURE
        assert model["standardizer"].mean[-1] == 0.0 and model["standardizer"].scale[-1] == 1.0
        assert np.max(np.abs(model["weights"][-1])) > 1e-3
        code = cli.main(["score", "--model", str(model_path), *pair, "--out", str(out)])
        assert code == cli.EXIT_OK
        assert len(load_scores_csv(out)[0].scores) == 25

    def test_sigma2_parsed_by_argparse(self):
        args = cli.build_parser().parse_args(
            ["fit", "--inliers", "a", "--test", "b", "--sigma2", "2"])
        assert args.sigma2 == 2.0
        assert cli.main(["fit", "--inliers", "a", "--test", "b", "--sigma2", "abc"]) == cli.EXIT_USAGE


class TestScore:
    def test_tau_zero_flags_nothing(self, workspace, tmp_path):
        out = tmp_path / "scores.csv"
        code = cli.main([
            "score", "--model", str(workspace / "model.json"),
            "--inliers", str(workspace / "inliers.csv"),
            "--test", str(workspace / "test.csv"),
            "--out", str(out), "--tau", "0",
        ])
        assert code == cli.EXIT_OK
        _, decisions = load_scores_csv(out)
        assert set(decisions) == {"inlier"}

    def test_zero_weight_model_scores_prior(self, workspace, tmp_path):
        model = json.loads((workspace / "model.json").read_text())
        model["weights"] = [0.0] * len(model["weights"])
        zero_model = tmp_path / "zero.json"
        zero_model.write_text(json.dumps(model))
        out = tmp_path / "scores.csv"
        cli.main([
            "score", "--model", str(zero_model),
            "--inliers", str(workspace / "inliers.csv"),
            "--test", str(workspace / "test.csv"), "--out", str(out),
        ])
        scores, _ = load_scores_csv(out)
        np.testing.assert_allclose(scores.scores, 25 / 40, rtol=0, atol=0)

    def test_explanations_written(self, workspace, tmp_path):
        out = tmp_path / "scores.csv"
        code = cli.main([
            "score", "--model", str(workspace / "model.json"),
            "--inliers", str(workspace / "inliers.csv"),
            "--test", str(workspace / "test.csv"),
            "--out", str(out), "--explain-top", "2",
        ])
        assert code == cli.EXIT_OK
        doc = json.loads((tmp_path / "scores_explanations.json").read_text())
        assert len(doc) == 25
        assert all(len(e["features"]) == 2 for e in doc)

    def test_intercept_explanations_list_real_features(self, tmp_path):
        # the intercept used to take one of the k places and was then
        # dropped, leaving k - 1 features for most samples
        assert cli.main(["synth", "--d", "3", "--seed", "0", "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        pair = ["--inliers", str(tmp_path / "inliers.csv"), "--test", str(tmp_path / "test.csv")]
        model = tmp_path / "m.json"
        assert cli.main(["fit", *pair, "--out", str(model), "--intercept"]) == cli.EXIT_OK
        for k in (1, 3, 5):
            explained = tmp_path / f"e{k}.json"
            assert cli.main(["score", "--model", str(model), *pair, "--out",
                             str(tmp_path / "s.csv"), "--explain-top", str(k),
                             "--explain-out", str(explained)]) == cli.EXIT_OK
            doc = json.loads(explained.read_text())
            assert len(doc) == 110
            for e in doc:
                names = [f["name"] for f in e["features"]]
                assert len(names) == min(k, 3) and cli.CONST_FEATURE not in names

    def test_feature_name_mismatch_exit2(self, workspace, tmp_path, capsys):
        # CSVs with other column names used to be scored without a word
        for name in ("inliers.csv", "test.csv"):
            lines = read_lines(workspace / name)
            header = lines[0].split(",")
            header[:5] = [f"x{k}" for k in range(5)]
            (tmp_path / name).write_text("\n".join([",".join(header), *lines[1:]]) + "\n")
        model_names = json.loads((workspace / "model.json").read_text())["feature_names"]
        out = tmp_path / "s.csv"
        code = cli.main([
            "score", "--model", str(workspace / "model.json"),
            "--inliers", str(tmp_path / "inliers.csv"), "--test", str(tmp_path / "test.csv"),
            "--out", str(out),
        ])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, str([f"x{k}" for k in range(5)]), str(model_names))
        assert not out.exists()

    def test_sample_count_mismatch_exit2(self, workspace, tmp_path):
        code = cli.main([
            "score", "--model", str(workspace / "model.json"),
            "--inliers", str(workspace / "test.csv"),  # swapped on purpose
            "--test", str(workspace / "inliers.csv"),
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("edit, where", [
        (lambda doc: {}, "feature_names"),  # used to end in a KeyError traceback
        (lambda doc: [1, 2], "JSON object"),  # used to end in a TypeError traceback
        # used to report a failed reshape without naming the file
        (lambda doc: {**doc, "weights": doc["weights"][:-1]}, "weights"),
        (lambda doc: {**doc, "n_test": "25"}, "sample counts"),
        (lambda doc: {**doc, "feature_names": None}, "feature names"),
        (lambda doc: {**doc, "standardizer": [0]}, "standardizer mean"),
        (lambda doc: {**doc, "standardizer": {"mean": [0.0] * 5}}, "standardizer scale"),
        (lambda doc: {**doc, "weights": ["a"] * len(doc["weights"])}, "weights"),
        (lambda doc: "{", "not JSON"),
        (lambda doc: b"\xff{}", "not JSON"),  # used to name no file
        # an int past the float range used to end in an OverflowError traceback
        (lambda doc: {**doc, "weights": [10**400] + doc["weights"][1:]}, "weights must be a list"),
        # these four exited 2 with a message naming no file
        (lambda doc: {**doc, "weights": [math.nan] + doc["weights"][1:]}, "weights entries"),
        (lambda doc: {**doc, "weights": [math.inf] + doc["weights"][1:]}, "weights entries"),
        (lambda doc: json.dumps({**doc, "weights": ["x"] + doc["weights"][1:]}).replace(
            '"x"', "1e400"), "weights entries"),
        (lambda doc: {**doc, "standardizer": {**doc["standardizer"], "scale": [0.0] * 5}},
         "scale entries must be positive"),
        (lambda doc: {**doc, "standardizer": {**doc["standardizer"], "mean": [math.nan] * 5}},
         "mean entries must be finite"),
    ])
    def test_malformed_model_exit2(self, workspace, tmp_path, capsys, edit, where):
        doc = edit(json.loads((workspace / "model.json").read_text()))
        model = tmp_path / "bad.json"
        if isinstance(doc, bytes):
            model.write_bytes(doc)
        else:
            model.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = cli.main([
            "score", "--model", str(model),
            "--inliers", str(workspace / "inliers.csv"),
            "--test", str(workspace / "test.csv"), "--out", str(tmp_path / "s.csv"),
        ])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, str(model), where)
        assert not (tmp_path / "s.csv").exists()

    def test_tiny_standardizer_scale_exit2(self, workspace, tmp_path, capsys):
        # a positive scale of 1e-308 overflows the z-scores; this used to
        # print a raw RuntimeWarning, then an error naming neither the
        # model file nor the feature
        doc = json.loads((workspace / "model.json").read_text())
        doc["standardizer"]["scale"][0] = 1e-308
        model = tmp_path / "tiny.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "s.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([
                "score", "--model", str(model), "--inliers", str(workspace / "inliers.csv"),
                "--test", str(workspace / "test.csv"), "--out", str(out),
            ])
        assert code == cli.EXIT_USAGE
        assert [str(w.message) for w in caught] == []
        assert_one_error(capsys, str(model), repr(doc["feature_names"][0]), "overflows")
        assert not out.exists()

    def test_huge_weights_explained_without_raw_warning(self, tmp_path, capsys):
        # finite weights of 1e308 overflow every logit; explain's np.dot
        # used to print a raw RuntimeWarning, and its score could differ
        # from the scores CSV in the last bit
        rows = ["f1,f2", "1.5,2.0", "2.5,1.0", "3.0,2.0"]
        (tmp_path / "inliers.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "test.csv").write_text("\n".join(rows[:3]) + "\n")
        pair = ["--inliers", str(tmp_path / "inliers.csv"), "--test", str(tmp_path / "test.csv")]
        model, out = tmp_path / "m.json", tmp_path / "s.csv"
        assert cli.main(["fit", *pair, "--out", str(model), "--no-standardize"]) == cli.EXIT_OK
        doc = json.loads(model.read_text())
        doc["weights"] = [1e308] * len(doc["weights"])
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["score", "--model", str(model), *pair, "--out", str(out),
                             "--explain-top", "1", "--explain-out", str(tmp_path / "e.json")])
        assert code == cli.EXIT_OK
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        scores, _ = load_scores_csv(out)
        explained = json.loads((tmp_path / "e.json").read_text())
        assert [e["score"] for e in explained] == scores.scores.tolist()

    def test_planted_outliers_dominate_lowest_scores(self, tmp_path):
        # Deterministic fixed-seed check: across seeds, the 10 lowest
        # scores are majority planted outliers (measured overlaps at these
        # seeds: 9, 8, 7, 9, 7 of 10).
        planted = {f"te-s{i}" for i in range(100, 110)}
        overlaps = []
        for seed in range(5):
            ws = tmp_path / f"s{seed}"
            cli.main(["synth", "--out-dir", str(ws), "--seed", str(seed)])
            cli.main([
                "fit", "--inliers", str(ws / "inliers.csv"),
                "--test", str(ws / "test.csv"), "--out", str(ws / "model.json"),
            ])
            cli.main([
                "score", "--model", str(ws / "model.json"),
                "--inliers", str(ws / "inliers.csv"), "--test", str(ws / "test.csv"),
                "--out", str(ws / "scores.csv"),
            ])
            scores, _ = load_scores_csv(ws / "scores.csv")
            lowest = np.argsort(scores.scores)[:10]
            overlaps.append(len({scores.sample_ids[i] for i in lowest} & planted))
        assert all(v >= 7 for v in overlaps)
        assert sum(v >= 8 for v in overlaps) >= 3


class TestEval:
    def _write_scores(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sample_id,score,label\n")
            for i, (s, lab) in enumerate(rows):
                fh.write(f"s{i},{s!r},{lab}\n")

    def test_perfect_separation(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        self._write_scores(path, [(2.0, "inlier"), (3.0, "inlier"), (0.5, "outlier")])
        assert cli.main(["eval", "--scores", str(path), "--out", str(tmp_path / "roc.csv")]) == cli.EXIT_OK
        assert "AUC 1.0" in capsys.readouterr().out
        roc = read_lines(tmp_path / "roc.csv")
        assert roc[0] == "fpr,tpr"
        assert roc[-1] == "1.0,1.0"

    def test_single_class_exit2(self, tmp_path):
        path = tmp_path / "s.csv"
        self._write_scores(path, [(2.0, "inlier"), (3.0, "inlier")])
        assert cli.main(["eval", "--scores", str(path)]) == cli.EXIT_USAGE

    def test_no_label_column_exit2(self, tmp_path):
        path = tmp_path / "s.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sample_id,score\ns0,1.0\n")
        assert cli.main(["eval", "--scores", str(path)]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("text, where", [
        ("sample_id,label\ns0,inlier\n", "line 1"),  # no score column
        ("", "empty file"),
        ("sample_id,score,label\ns0,1.0,inlier\ns1,2.0\n", "line 3"),  # short row
        ("sample_id,score,label\ns0,abc,inlier\n", "line 2"),
        ("sample_id,score,label\ns0,-1.0,inlier\n", "line 2"),
    ])
    def test_malformed_scores_exit2(self, tmp_path, capsys, text, where):
        # the first three used to end in a KeyError/IndexError traceback
        path = tmp_path / "s.csv"
        path.write_text(text)
        assert cli.main(["eval", "--scores", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(path) in err[0] and where in err[0]

    def test_scores_is_directory_exit2(self, tmp_path, capsys):
        assert cli.main(["eval", "--scores", str(tmp_path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_matches_library_auc(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        rows = [(float(v), lab) for v, lab in zip(
            rng.random(30), ["inlier"] * 20 + ["outlier"] * 10)]
        path = tmp_path / "s.csv"
        self._write_scores(path, rows)
        cli.main(["eval", "--scores", str(path)])
        printed = float(capsys.readouterr().out.split()[-1])
        scores, _ = load_scores_csv(path)
        assert printed == auc(scores)


class TestBench:
    def _run(self, tmp_path, name, extra=()):
        out = tmp_path / name
        code = cli.main([
            "bench", "--methods", "kde,lof", "--dims", "4", "--trials", "2",
            "--seed", "0", "--out", str(out), "--lof-k", "3", *extra,
        ])
        return code, out

    def test_basic_run(self, tmp_path, capsys):
        code, out = self._run(tmp_path, "results.json")
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["dims"] == [4] and doc["trials"] == 2
        sweep = read_lines(tmp_path / "results_sweep.csv")
        assert sweep[0] == "dim,method,mean_auc,std"
        assert len(sweep) == 3
        assert "dim=4" in capsys.readouterr().out

    def test_reproducible_and_thread_invariant(self, tmp_path):
        _, a = self._run(tmp_path, "a.json", ("--threads", "1"))
        _, b = self._run(tmp_path, "b.json", ("--threads", "1"))
        _, c = self._run(tmp_path, "c.json", ("--threads", "8"))
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_default_params_reach_run_bench(self, tmp_path, monkeypatch):
        seen = {}

        def fake_run_bench(dims, trials, methods, seed, params, **_):
            seen.update(params)
            return {"per_dim": []}, [], 0

        monkeypatch.setattr(harness, "run_bench", fake_run_bench)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["bench"]) == cli.EXIT_OK
        assert seen == harness.DEFAULT_PARAMS

    @pytest.mark.parametrize("flag", [["--sigma2", "2"], ["--intercept"]])
    def test_fit_only_flags_exit2(self, tmp_path, flag):
        # both used to be accepted and ignored
        code = cli.main(["bench", "--methods", "kde", "--dims", "4", "--trials", "1",
                         "--out", str(tmp_path / "r.json"), *flag])
        assert code == cli.EXIT_USAGE
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("extra", [
        ["--trials", "0"],  # used to print "(no successful trials)" and exit 0
        ["--threads", "0"],  # these two used to run on the default thread count
        ["--threads", "-5"],
        ["--dims", ""],  # these two used to exit 0 having run nothing
        ["--methods", ""],
        ["--lambda1", "nan"],  # these two used to fail every llr trial and exit 1
        ["--lambda1", "inf"],
    ])
    def test_empty_or_invalid_run_exit2(self, tmp_path, capsys, extra):
        out = tmp_path / "r.json"
        code = cli.main(["bench", "--methods", "kde,llr", "--dims", "4", "--trials", "1",
                         "--out", str(out), *extra])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,named", [
        ("--osvm-nu", "2", "osvm nu"),
        ("--osvm-nu", "nan", "osvm nu"),
        ("--lof-k", "0", "lof K"),
        ("--l1lr-lambda", "-1", "l1lr lambda"),
        ("--l1lr-lambda", "nan", "l1lr lambda"),
        ("--l1lr-lambda", "inf", "l1lr lambda"),
        ("--ulsif-nu", "-1", "ulsif/rulsif nu"),
        ("--ulsif-nu", "nan", "ulsif/rulsif nu"),
        ("--rulsif-beta", "2", "rulsif beta"),
        ("--rulsif-beta", "nan", "rulsif beta"),
    ])
    def test_bad_baseline_flag_exit2_before_any_trial(
        self, tmp_path, capsys, monkeypatch, flag, value, named
    ):
        # each used to run every trial, warn once per trial and exit 1
        calls = []
        monkeypatch.setattr(harness, "run_method", lambda *a: calls.append(a))
        out = tmp_path / "r.json"
        code = cli.main(["bench", "--methods", ",".join(harness.METHODS), "--dims", "4",
                         "--trials", "2", "--out", str(out), flag, value])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, named)
        assert calls == [] and not out.exists()

    def test_unknown_method_exit2(self, tmp_path):
        code = cli.main([
            "bench", "--methods", "kde,zzz", "--dims", "4", "--trials", "1",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == cli.EXIT_USAGE

    def test_dataset_fixture_resplit(self, tmp_path):
        code = cli.main([
            "bench", "--methods", "kde,lof", "--dims", "4", "--trials", "2",
            "--seed", "0", "--dataset", os.path.join(FIXTURES, "blobs.csv"),
            "--out", str(tmp_path / "r.json"), "--lof-k", "3",
        ])
        assert code == cli.EXIT_OK
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["dataset"].endswith("blobs.csv")
        assert all(m["mean"] >= 0.95 for m in doc["per_dim"][0]["methods"])

    def test_dataset_without_labels_exit2(self, tmp_path):
        data = tmp_path / "nolabel.csv"
        data.write_text("f1,f2\n0.0,1.0\n1.0,0.0\n")
        code = cli.main([
            "bench", "--dataset", str(data), "--dims", "2", "--trials", "1",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == cli.EXIT_USAGE

    def test_failing_method_exit1(self, tmp_path, capsys):
        # constant features break the bandwidth heuristic on every trial
        data = tmp_path / "const.csv"
        rows = ["0.0,0.0,inlier"] * 20 + ["0.0,0.0,outlier"] * 12
        data.write_text("f1,f2,label\n" + "\n".join(rows) + "\n")
        code = cli.main([
            "bench", "--methods", "kde", "--dims", "2", "--trials", "1",
            "--dataset", str(data), "--out", str(tmp_path / "r.json"),
        ])
        assert code == cli.EXIT_FAILURE
        assert "failed" in capsys.readouterr().err

    def test_dumped_scores_roundtrip_stored_auc(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = cli.main([
            "bench", "--methods", "kde", "--dims", "4", "--trials", "2",
            "--seed", "0", "--out", str(out), "--dump-scores", str(tmp_path / "dump"),
        ])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        stored = doc["per_dim"][0]["methods"][0]["auc_values"]
        for trial, expected in enumerate(stored):
            capsys.readouterr()
            path = tmp_path / "dump" / f"scores_d4_t{trial}_kde.csv"
            assert cli.main(["eval", "--scores", str(path)]) == cli.EXIT_OK
            printed = float(capsys.readouterr().out.split()[-1])
            assert printed == expected

    def test_rulsif_and_seeded_methods_run(self, tmp_path):
        code = cli.main([
            "bench", "--methods", "ulsif,rulsif,kliep", "--dims", "3",
            "--trials", "1", "--seed", "1", "--out", str(tmp_path / "r.json"),
        ])
        assert code == cli.EXIT_OK

    def test_default_methods_named_in_help(self, capsys):
        args = cli.build_parser().parse_args(["bench"])
        assert args.methods.split(",") == list(harness.DEFAULT_BENCH_METHODS)
        assert cli.main(["bench", "--help"]) == cli.EXIT_OK
        assert "harness.DEFAULT_BENCH_METHODS" in capsys.readouterr().out


class TestConfig:
    def test_config_sets_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-inlier": 25, "d": 4}))
        out = tmp_path / "data"
        assert cli.main(["--config", str(cfg), "synth", "--out-dir", str(out)]) == cli.EXIT_OK
        assert len(read_lines(out / "inliers.csv")) == 26

    def test_config_equals_form(self, tmp_path):
        # --config=PATH used to exit 0 and ignore the file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-inlier": 25, "d": 4}))
        out = tmp_path / "data"
        assert cli.main([f"--config={cfg}", "synth", "--out-dir", str(out)]) == cli.EXIT_OK
        assert len(read_lines(out / "inliers.csv")) == 26

    def test_config_leaves_other_commands_flags_alone(self, tmp_path):
        # a key that only another command defines is not added to this one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-inlier": 25, "trials": 3}))
        args = cli._parse(["--config", str(cfg), "synth"])
        assert args.n_inlier == 25 and not hasattr(args, "trials")

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-inlier": 25, "d": 4}))
        out = tmp_path / "data"
        assert cli.main([
            "--config", str(cfg), "synth", "--n-inlier", "30", "--out-dir", str(out),
        ]) == cli.EXIT_OK
        assert len(read_lines(out / "inliers.csv")) == 31

    def test_missing_config_exit2(self, tmp_path):
        assert cli.main([
            "--config", str(tmp_path / "none.json"), "synth", "--out-dir", str(tmp_path),
        ]) == cli.EXIT_USAGE

    def test_config_without_value_exit2(self, capsys):
        # used to crash with an IndexError traceback
        assert cli.main(["--config"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("exists", [False, True])
    def test_config_after_command_is_unrecognized(self, tmp_path, capsys, exists):
        # a missing file used to report "No such file" instead
        cfg = tmp_path / "cfg.json"
        if exists:
            cfg.write_text(json.dumps({"n-inlier": 25}))
        code = cli.main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_USAGE
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        # the first two used to end in a TypeError traceback
        ({"lambda1": None}, "lambda1"),
        ({"k": [3]}, "'k'"),
        ({"lambda1": {"a": 1}}, "lambda1"),
        ({"no-standardize": 1}, "no_standardize"),
        ({"lambda1": True}, "lambda1"),
        ({"k": 3.5}, "--k"),  # used to end in a TypeError traceback in the fit
        ({"k": "abc"}, "--k"),  # used to print argparse's usage, not the file
    ])
    def test_config_value_of_wrong_type_exit2(self, workspace, tmp_path, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = cli.main([
            "--config", str(cfg), "fit", "--inliers", str(workspace / "inliers.csv"),
            "--test", str(workspace / "test.csv"), "--out", str(tmp_path / "m.json"),
        ])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, str(cfg), key)
        assert not (tmp_path / "m.json").exists()

    def test_config_values_converted_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda1": 1, "k": 3, "sigma2": 2, "no-standardize": True}))
        args = cli._parse(["--config", str(cfg), "fit", "--inliers", "a", "--test", "b"])
        parsed = (args.lambda1, args.k, args.sigma2, args.no_standardize)
        assert parsed == (1.0, 3, 2.0, True)
        assert [type(v) for v in parsed] == [float, int, float, bool]

    @pytest.mark.parametrize("raw", [b"{", b"\xff{}"])
    def test_config_not_json_exit2(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        assert cli.main(["--config", str(cfg), "synth", "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        assert_one_error(capsys, str(cfg))

    def test_config_not_an_object_exit2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert cli.main(["--config", str(cfg), "synth", "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")


class TestTopLevel:
    def test_no_command_exit2(self):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_help_exit0(self):
        assert cli.main(["--help"]) == cli.EXIT_OK

    def test_import_skips_scipy_optimize_and_stats(self):
        # each costs every command about half a second of start-up
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "import ratioscope.cli, ratioscope.harness; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"
