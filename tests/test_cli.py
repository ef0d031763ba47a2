"""End-to-end CLI tests: exit codes, file outputs, config handling,
and cross-command consistency (score -> eval round trips)."""

import argparse
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CSV_ROWS, PoolStarted, csv_texts, stop_at_pool
from ratioscope import cli, harness, llr
from ratioscope.evaluation import auc
from ratioscope.scores import load_scores_csv
from ratioscope.synth import SynthSpec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# synth's integer flags, and texts for them: small sizes, negatives,
# fractions, non-numbers and counts past the 2**31-value bound
SYNTH_INT_FLAGS = ["--d", "--n-inlier", "--n-test-inlier", "--n-outlier", "--seed", "--trial"]
SYNTH_INT_TEXTS = st.integers(-3, 12).map(str) | st.sampled_from(
    ["2.5", "x", "", "1e3", "nan", "inf", "-0", " 3", "0x10", "true", str(10**19)])


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def assert_one_error(capsys, *fragments):
    """stderr is exactly one 'error:' line holding every fragment."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    for fragment in fragments:
        assert fragment in err[0], err


def write_overflowing_pair(tmp_path):
    """inliers.csv of 8 rows and test.csv of 5 labelled rows, the first an
    outlier, of three features drawn as N(0, 1) * 1e200: every squared
    distance between two rows overflows."""
    for name, labels in (("inliers", [None] * 8), ("test", ["outlier"] + ["inlier"] * 4)):
        rows = np.random.default_rng(0).normal(size=(len(labels), 3)) * 1e200
        header = "f1,f2,f3" if labels[0] is None else "f1,f2,f3,label"
        (tmp_path / f"{name}.csv").write_text(header + "\n" + "".join(
            ",".join([*map(repr, row.tolist()), *([label] if label else [])]) + "\n"
            for row, label in zip(rows, labels)))


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


def run_on_header(workspace, tmp_path, command, header):
    """cli.main's exit code for ``command`` (fit, score or bench --dataset)
    on a two-feature labelled CSV headed ``header``, with the CSV's path
    and the path given as --out."""
    data = tmp_path / "c.csv"
    data.write_text(header + "\n"
                    + "".join(f"{i}.0,{i % 3}.0,inlier\n" for i in range(20))
                    + "".join(f"{i}.5,1.0,outlier\n" for i in range(12)))
    out = tmp_path / "out"
    pair = ["--inliers", str(data), "--test", str(data)]
    argv = {
        "fit": ["fit", *pair],
        "score": ["score", "--model", str(workspace / "model.json"), *pair],
        "bench": ["bench", "--dataset", str(data), "--methods", "kde", "--dims", "2",
                  "--trials", "1"],
    }[command]
    return cli.main([*argv, "--out", str(out)]), data, out


class TestSynth:
    def test_default_row_counts(self, tmp_path):
        assert cli.main(["synth", "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        assert len(read_lines(tmp_path / "inliers.csv")) == 201  # header + 200
        assert len(read_lines(tmp_path / "test.csv")) == 111

    def test_d1_is_usage_error(self, tmp_path):
        assert cli.main(["synth", "--d", "1", "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--d", "--n-inlier", "--n-outlier"])
    def test_oversized_set_is_usage_error(self, tmp_path, capsys, flag):
        # a count past numpy's array limit used to reach main as numpy's ValueError
        argv = ["synth", flag, str(10**19), "--out-dir", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert_one_error(capsys, "must be a number in [1, 2147483648]")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("argv, name", [
        (["synth", "--trial", "-1", "--out-dir"], "trial"),
        (["synth", "--seed", "-1", "--out-dir"], "seed"),
        (["bench", "--methods", "kde", "--dims", "4", "--trials", "1", "--seed", "-1", "--out"],
         "seed"),
    ])
    def test_negative_seed_or_trial_exit2(self, tmp_path, capsys, argv, name):
        # each used to exit 2 as "expected non-negative integer", from numpy
        assert cli.main(argv + [str(tmp_path / "out")]) == cli.EXIT_USAGE
        assert_one_error(capsys, f"{name} must be an integer in [0, inf), got -1")

    @settings(max_examples=60, deadline=None)
    @given(flags=st.dictionaries(st.sampled_from(SYNTH_INT_FLAGS), SYNTH_INT_TEXTS, max_size=4))
    @example(flags={"--d": "1", "--trial": "-1"})
    @example(flags={"--n-inlier": str(10**19), "--seed": str(10**19)})
    @example(flags={"--seed": str(10**19), "--trial": str(10**19), "--d": "2"})
    def test_fuzzed_integer_flags_exit_0_or_one_error_line(self, tmp_path_factory, flags):
        # sizes are drawn small or past the 2**31-value bound, so a run writes a few KB
        out = tmp_path_factory.mktemp("synth") / "out"
        argv = ["synth", *(t for flag, text in flags.items() for t in (flag, text))]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out-dir", str(out)])
        lines = err.getvalue().splitlines()
        if code == cli.EXIT_OK:
            assert lines == [] and len(list(out.iterdir())) == 2, flags
        else:
            assert code == cli.EXIT_USAGE and len(lines) == 1, (code, lines, flags)
            assert lines[0].startswith("error: "), lines
            assert not out.exists(), flags

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

    def test_overflowing_feature_exit2(self, tmp_path, capsys):
        # a feature of N(0, 1) * 1e200 used to exit 0 after numpy's overflow
        # warning, saving a scale of Infinity that score then refused
        rng = np.random.default_rng(0)
        for name, m in (("inliers", 20), ("test", 10)):
            rows = "".join(f"{rng.normal()!r},{rng.normal() * 1e200!r}\n" for _ in range(m))
            (tmp_path / f"{name}.csv").write_text("a,b\n" + rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([
                "fit", "--inliers", str(tmp_path / "inliers.csv"),
                "--test", str(tmp_path / "test.csv"), "--out", str(tmp_path / "m.json"),
            ])
        assert code == cli.EXIT_USAGE
        assert [str(w.message) for w in caught] == []
        assert_one_error(capsys, "standardizing feature 'b' overflows")
        assert not (tmp_path / "m.json").exists()

    def test_overflowing_distances_exit2_unstandardized(self, tmp_path, capsys):
        # the graph's squared distances overflow; fit used to print numpy's
        # RuntimeWarning and exit 1 with "surrogate gradient is not finite"
        write_overflowing_pair(tmp_path)
        out = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([
                "fit", "--inliers", str(tmp_path / "inliers.csv"),
                "--test", str(tmp_path / "test.csv"), "--out", str(out), "--no-standardize",
            ])
        assert code == cli.EXIT_USAGE
        assert [str(w.message) for w in caught] == []
        assert_one_error(capsys, "squared pairwise distances overflow")
        assert not out.exists()

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

    @pytest.mark.parametrize("raw, where", [
        # used to end in a _csv.Error traceback with exit 1
        pytest.param(b"f0,f1\n1.0," + b"2" * 140_000 + b"\n", "field limit", id="huge-cell"),
        # used to exit 2 with an error that did not name the file
        pytest.param(b"f0,f1\n1.0,2.0\n\xff,3.0\n", "UTF-8", id="not-utf8"),
    ])
    def test_malformed_inliers_csv_exit2(self, workspace, tmp_path, capsys, raw, where):
        bad = tmp_path / "inliers.csv"
        bad.write_bytes(raw)
        out = tmp_path / "m.json"
        code = cli.main([
            "fit", "--inliers", str(bad), "--test", str(workspace / "test.csv"), "--out", str(out),
        ])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, str(bad), where)
        assert not out.exists()

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
        assert_one_error(capsys, "got inf")
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
        assert_one_error(capsys, "epsilon must be a number in (0, 0.0001]", repr(float(value)))
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

    @pytest.mark.parametrize("command", ["fit", "score", "bench"])
    def test_reserved_const_column_exit2(self, workspace, tmp_path, capsys, command):
        # such a column used to fit unstandardized and then fail to score
        code, data, out = run_on_header(workspace, tmp_path, command, "a,__const__,label")
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, str(data), "'__const__' is reserved")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "score", "bench"])
    @pytest.mark.parametrize("header, message", [
        ("a,a,label", "feature name 'a' is repeated"),
        ("a,,label", "feature name '' is empty"),
    ])
    def test_repeated_or_empty_feature_name_exit2(self, workspace, tmp_path, capsys,
                                                  command, header, message):
        # a repeated name used to fit, and each explanation named it twice
        code, data, out = run_on_header(workspace, tmp_path, command, header)
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, str(data), message)
        assert not out.exists()

    def test_sigma2_parsed_by_argparse(self):
        args = cli.build_parser().parse_args(
            ["fit", "--inliers", "a", "--test", "b", "--sigma2", "2"])
        assert args.sigma2 == 2.0
        assert cli.main(["fit", "--inliers", "a", "--test", "b", "--sigma2", "abc"]) == cli.EXIT_USAGE


# a model document that save_model could have written for fuzz_pair's
# CSVs: d = 2, 3 inliers and 2 test samples
FUZZ_MODEL = {
    "feature_names": ["f0", "f1"], "n_inlier": 3, "n_test": 2,
    "lambda1": 0.1, "lambda2": 1.0, "k_neighbors": 4, "sigma2": 1.5, "epsilon": 1e-10,
    "weights": [0.5, -0.25, 0.0, 1.0, 2.0, 0.1, -1.0, 0.3, 0.0, 0.7],
    "objective_trace": [3.4, 3.1],
    "standardizer": {"mean": [1.0, 0.5], "scale": [0.5, 2.0]},
}
# every JSON type, with NaN, the infinities and ints past the float range
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers() | st.sampled_from([10**309, -(10**400), 1e308]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
# a well-formed scores row: positive finite score, valid label
SCORE_ROWS = st.builds("s{},{!r},{}".format, st.integers(0, 3),
                       st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                       st.sampled_from(["inlier", "outlier"]))
FUZZ_FIELDS = [("feature_names",), ("n_inlier",), ("n_test",), ("weights",), ("standardizer",),
               ("standardizer", "mean"), ("standardizer", "scale")]


@st.composite
def broken_models(draw):
    """FUZZ_MODEL as JSON text after one to three edits, each dropping a
    field, replacing it, replacing one of its entries, or resizing it."""
    doc = copy.deepcopy(FUZZ_MODEL)
    for *parents, key in draw(st.lists(st.sampled_from(FUZZ_FIELDS), min_size=1, max_size=3)):
        owner = doc
        for p in parents:
            owner = owner.get(p) if isinstance(owner, dict) else None
        if not isinstance(owner, dict) or key not in owner:
            continue
        value = owner[key]
        how = draw(st.sampled_from(["drop", "replace", "entry", "resize"]))
        if how == "drop":
            del owner[key]
        elif how == "replace" or not (isinstance(value, list) and value):
            owner[key] = draw(JSON_VALUES)
        elif how == "entry":
            value[draw(st.integers(0, len(value) - 1))] = draw(JSON_VALUES)
        else:
            owner[key] = (value * 2)[:draw(st.integers(0, 2 * len(value)))]
    return json.dumps(doc)


@pytest.fixture(scope="module")
def fuzz_pair(tmp_path_factory):
    ws = tmp_path_factory.mktemp("fuzz")
    (ws / "inliers.csv").write_text("f0,f1\n0.0,1.0\n1.0,0.0\n2.0,2.0\n")
    (ws / "test.csv").write_text("f0,f1\n1.0,1.0\n3.0,0.0\n")
    # model.json is overwritten by the model-file fuzz; this one stays as written
    (ws / "fixed_model.json").write_text(json.dumps(FUZZ_MODEL))
    return ws


class TestScore:
    @settings(max_examples=100, deadline=None)
    @given(broken_models() | JSON_VALUES.map(json.dumps))
    @example(json.dumps(FUZZ_MODEL))
    # nested past the recursion limit, json raised RecursionError: a traceback
    @example("[" * 100000)
    # numpy read these as the numbers 1.0 and 1.5, so they used to score
    @example(json.dumps({**FUZZ_MODEL, "standardizer": {"mean": [1.0, 0.5], "scale": [0.5, True]}}))
    @example(json.dumps({**FUZZ_MODEL, "weights": ["1.5"] + FUZZ_MODEL["weights"][1:]}))
    def test_fuzzed_model_file_exits_0_or_one_error_line(self, fuzz_pair, text):
        model = fuzz_pair / "model.json"
        model.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([
                "score", "--model", str(model), "--inliers", str(fuzz_pair / "inliers.csv"),
                "--test", str(fuzz_pair / "test.csv"), "--out", str(fuzz_pair / "s.csv"),
                "--explain-top", "2", "--explain-out", str(fuzz_pair / "e.json"),
            ])
        lines = err.getvalue().splitlines()
        if code == cli.EXIT_OK:
            # only a document whose number lists hold JSON numbers scores
            doc = json.loads(text)
            std = doc.get("standardizer") or {}
            for value in (doc["weights"], std.get("mean", []), std.get("scale", [])):
                assert all(type(v) in (int, float) for v in value), text
            assert lines == []
        else:
            assert code == cli.EXIT_USAGE and len(lines) == 1, lines
            assert lines[0].startswith("error:"), lines

    def test_unknown_selector_exit2(self, workspace, tmp_path, capsys):
        # ratio_score checks --which, as it checks a library caller's which
        out = tmp_path / "scores.csv"
        code = cli.main([
            "score", "--model", str(workspace / "model.json"),
            "--inliers", str(workspace / "inliers.csv"), "--test", str(workspace / "test.csv"),
            "--out", str(out), "--which", "Test",
        ])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "error: which must be one of 'test', 'inlier', 'all', got 'Test'"]
        assert not out.exists()

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

    def test_tau_nan_exit2_before_any_output(self, workspace, tmp_path, capsys):
        # used to exit 0 with every sample an inlier and no explanation
        out, explained = tmp_path / "s.csv", tmp_path / "e.json"
        code = cli.main([
            "score", "--model", str(workspace / "model.json"),
            "--inliers", str(workspace / "inliers.csv"), "--test", str(workspace / "test.csv"),
            "--out", str(out), "--tau", "nan", "--explain-top", "5",
            "--explain-out", str(explained),
        ])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, "tau", "nan")
        assert not out.exists() and not explained.exists()

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
        text = (tmp_path / "scores_explanations.json").read_text()
        doc = json.loads(text)
        assert len(doc) == 25
        assert all(len(e["features"]) == 2 for e in doc)
        # json reads back every float and string exactly, so the text is
        # what json.dump(doc, fh, indent=2) writes
        assert text == json.dumps(doc, indent=2)

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

    # --explain-top 0 used to exit 2 only after writing the scores CSV;
    # with --tau 0 no sample is flagged and -3 used to exit 0
    @pytest.mark.parametrize("flags", [["--explain-top", "0"],
                                       ["--tau", "0", "--explain-top", "-3"]])
    def test_explain_top_below_one_exit2_before_any_output(self, workspace, tmp_path,
                                                           capsys, flags):
        out, explained = tmp_path / "s.csv", tmp_path / "e.json"
        code = cli.main([
            "score", "--model", str(workspace / "model.json"),
            "--inliers", str(workspace / "inliers.csv"), "--test", str(workspace / "test.csv"),
            "--out", str(out), "--explain-out", str(explained), *flags,
        ])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, "--explain-top", flags[-1])
        assert not out.exists() and not explained.exists()

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

    def test_test_csv_feature_name_mismatch_exit2(self, workspace, tmp_path, capsys):
        # used to report only that the inlier and test CSVs differ, naming neither
        lines = read_lines(workspace / "test.csv")
        lines[0] = "x0," + lines[0].split(",", 1)[1]
        bad = tmp_path / "test.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = cli.main([
            "score", "--model", str(workspace / "model.json"),
            "--inliers", str(workspace / "inliers.csv"), "--test", str(bad),
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, str(bad), "'x0'")

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
        (lambda doc: {**doc, "weights": [10**400] + doc["weights"][1:]},
         "weights must be a vector of numbers"),
        # these four exited 2 with a message naming no file
        (lambda doc: {**doc, "weights": [math.nan] + doc["weights"][1:]}, "weights must be finite"),
        (lambda doc: {**doc, "weights": [math.inf] + doc["weights"][1:]}, "weights must be finite"),
        (lambda doc: json.dumps({**doc, "weights": ["x"] + doc["weights"][1:]}).replace(
            '"x"', "1e400"), "weights must be finite"),
        (lambda doc: {**doc, "standardizer": {**doc["standardizer"], "scale": [0.0] * 5}},
         "scale entries must be positive"),
        (lambda doc: {**doc, "standardizer": {**doc["standardizer"], "mean": [math.nan] * 5}},
         "standardizer mean must be finite"),
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
        # used to end in a _csv.Error traceback with exit 1
        pytest.param("sample_id,score,label\ns0," + "1" * 140_000 + ",inlier\n",
                     "field limit", id="huge-cell"),
        # the row used to be left out of the AUC without a word
        ("sample_id,score,label\ns0,1.0,inlier\ns1,2.0,outlier\ns2,3.0,Outlier\n", "row 4"),
        # a decision cell was read back unchecked
        ("sample_id,score,decision,label\ns0,1.0,inlier,inlier\ns1,0.5,maybe,outlier\n",
         "row 3: decision must be one of 'inlier', 'outlier', got 'maybe'"),
    ])
    def test_malformed_scores_exit2(self, tmp_path, capsys, text, where):
        # the first three used to end in a KeyError/IndexError traceback
        path = tmp_path / "s.csv"
        path.write_text(text)
        assert cli.main(["eval", "--scores", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(path) in err[0] and where in err[0]

    @settings(max_examples=100, deadline=None)
    # two in three rows well formed, so that some files score
    @given(csv_texts(["sample_id,score,label"], rows=CSV_ROWS | SCORE_ROWS | SCORE_ROWS))
    @example("sample_id,score,label\ns0,0.5,outlier\ns1,2.0,inlier\n")
    # a cell past the csv module's field limit used to end in a _csv.Error traceback
    @example("sample_id,score,label\ns0," + "1" * 140_000 + ",inlier\n")
    # a header without rows used to report a missing label column
    @example("sample_id,score,label\n")
    def test_fuzzed_scores_file_exits_0_or_one_error_line(self, fuzz_pair, text):
        path = fuzz_pair / "scores.csv"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["eval", "--scores", str(path)])
        lines = err.getvalue().splitlines()
        if code == cli.EXIT_OK:
            assert lines == [] and out.getvalue().startswith("AUC "), text
        else:
            # eval runs no solver, so no exit can be numerical
            assert code == cli.EXIT_USAGE and len(lines) == 1, (code, lines)
            assert lines[0].startswith("error: ") and str(path) in lines[0], lines

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
            return {"per_dim": []}

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
        ["--dims", "1x"],  # used to exit 2 without naming the flag
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

    @pytest.mark.parametrize("argv,named", [
        # the two repeats used to exit 0, running every repeated (dim, trial) twice
        (["--methods", "kde,kde", "--dims", "4"], "methods must not repeat"),
        (["--methods", "kde", "--dims", "4,4"], "dims must not repeat"),
        (["--methods", "kde", "--dims", "2", "--dataset", "nolabels.csv"],
         "dataset_labels must be given: a bench dataset needs a label column"),
        # these two used to fail every trial and exit 1
        (["--methods", "kde", "--dims", "2", "--dataset", "inliers.csv"],
         "dataset_labels must hold at least 4 'inlier' and 1 'outlier' labels, got 20 and 0"),
        (["--methods", "kde", "--dims", "2", "--dataset", "one_inlier.csv"],
         "dataset_labels must hold at least 4 'inlier' and 1 'outlier' labels, got 1 and 19"),
        # standardization used to fail inside the first trial
        (["--methods", "kde", "--dims", "2", "--dataset", "three_inliers.csv"],
         "dataset_labels must hold at least 4 'inlier' and 1 'outlier' labels, got 3 and 17"),
    ])
    def test_repeat_or_unlabeled_dataset_exit2_before_any_trial(
        self, tmp_path, capsys, monkeypatch, argv, named
    ):
        (tmp_path / "nolabels.csv").write_text("f1,f2\n" + "0.5,1.5\n1.0,-2.0\n" * 10)
        rows = [f"{0.1 * i},{-0.2 * i}" for i in range(20)]
        (tmp_path / "inliers.csv").write_text(
            "f1,f2,label\n" + "".join(f"{row},inlier\n" for row in rows))
        for name, n_inliers in (("one_inlier.csv", 1), ("three_inliers.csv", 3)):
            (tmp_path / name).write_text(
                "f1,f2,label\n" + "".join(f"{row},{'inlier' if i < n_inliers else 'outlier'}\n"
                                          for i, row in enumerate(rows)))
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(harness, "run_method", lambda *a: calls.append(a))
        code = cli.main(["bench", "--trials", "2", "--out", "r.json", *argv])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, named)
        assert calls == [] and not (tmp_path / "r.json").exists()

    def test_overflowing_dataset_feature_exit2_before_any_trial(self, tmp_path, capsys, caplog):
        # a feature of N(0, 1) * 1e200 overflows every trial's
        # standardization; bench used to start the trials, print their
        # "only 6 outliers" warnings and only then exit 2
        rng = np.random.default_rng(0)
        labels = ["inlier"] * 24 + ["outlier"] * 6
        (tmp_path / "big.csv").write_text("a,b,label\n" + "".join(
            f"{rng.normal()!r},{rng.normal() * 1e200!r},{label}\n" for label in labels))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["bench", "--dataset", str(tmp_path / "big.csv"), "--dims", "1",
                             "--trials", "2", "--methods", "kde", "--out", str(tmp_path / "r.json")])
        assert code == cli.EXIT_USAGE
        assert [str(w.message) for w in caught] == [] and caplog.records == []
        assert_one_error(capsys, "standardizing feature 'b' overflows")
        assert not (tmp_path / "r.json").exists()

    def test_overflowing_distances_fail_every_method_by_name(self, tmp_path, capsys, caplog):
        # unstandardized: kde, osvm, kliep and ulsif used to fail on a nan
        # width, lof on non-finite scores and llr on a non-finite gradient,
        # each after raw RuntimeWarnings, and l1lr never returned
        write_overflowing_pair(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["bench", "--dataset", str(tmp_path / "test.csv"), "--no-standardize",
                             "--methods", ",".join(harness.METHODS), "--dims", "3",
                             "--trials", "1", "--out", str(tmp_path / "r.json")])
        assert code == cli.EXIT_FAILURE
        assert [str(w.message) for w in caught] == []
        why = dict.fromkeys(harness.METHODS, "squared pairwise distances overflow")
        why["l1lr"] = "l1lr step-size estimate overflows"
        assert [r.getMessage() for r in caplog.records if " failed on " in r.getMessage()] == [
            f"warning: {m} failed on dim=3 trial=0: {why[m]} (features too large?)"
            for m in harness.METHODS]
        assert capsys.readouterr().err.splitlines() == ["8 trial/method runs failed"]

    @pytest.mark.parametrize("standardize", [[], ["--no-standardize"]], ids=["std", "raw"])
    def test_four_inlier_dataset_runs_every_method(self, tmp_path, standardize):
        # the fewest inliers bench accepts: two in each half of every trial
        rng = np.random.default_rng(35)
        rows = [(*rng.normal(size=2).tolist(), "inlier") for _ in range(4)]
        rows += [(*rng.normal(3.0, 1.0, size=2).tolist(), "outlier") for _ in range(10)]
        data = tmp_path / "four.csv"
        data.write_text("f1,f2,label\n" + "".join(f"{a!r},{b!r},{c}\n" for a, b, c in rows))
        out = tmp_path / "r.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["bench", "--dataset", str(data), "--methods", ",".join(harness.METHODS),
                             "--dims", "2", "--trials", "2", "--out", str(out), *standardize])
        assert code == cli.EXIT_OK
        methods = json.loads(out.read_text())["per_dim"][0]["methods"]
        assert len(methods) == 8
        assert all(None not in m["auc_values"] for m in methods)

    def test_bad_dims_names_the_flag(self, tmp_path, capsys):
        # used to print only "invalid literal for int() with base 10: '1x'"
        code = cli.main(["bench", "--dims", "4,1x", "--out", str(tmp_path / "r.json")])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, "--dims", "'4,1x'")

    def test_bad_dim_exit2_before_any_trial(self, tmp_path, capsys, monkeypatch):
        # the d=4 trial used to run before the d=1 trial's SynthSpec raised
        calls = []
        monkeypatch.setattr(harness, "generate", lambda *a, **k: calls.append(a))
        out = tmp_path / "r.json"
        code = cli.main(["bench", "--methods", "kde", "--dims", "4,1", "--trials", "1",
                         "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, "d must be an integer in [2, inf), got 1")
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("failing", [False, True])
    def test_sweep_csv_is_the_results_document(self, tmp_path, capsys, failing):
        argv = ["--dims", "4,6", "--trials", "3"]
        if failing:  # constant features: kde fails on every trial
            data = tmp_path / "const.csv"
            data.write_text("f1,f2,label\n" + "0.0,0.0,inlier\n" * 20 + "0.0,0.0,outlier\n" * 12)
            argv = ["--dims", "2", "--trials", "2", "--dataset", str(data)]
        out = tmp_path / "r.json"
        code = cli.main(["bench", "--methods", "kde,lof", "--lof-k", "3", "--seed", "0",
                         "--out", str(out), *argv])
        assert code == (cli.EXIT_FAILURE if failing else cli.EXIT_OK)
        doc = json.loads(out.read_text())
        expected_rows = ["dim,method,mean_auc,std"]
        n_failures = 0
        for entry in doc["per_dim"]:
            for m in entry["methods"]:
                cells = ["" if v is None else repr(v) for v in (m["mean"], m["std"])]
                expected_rows.append(",".join([str(entry["dim"]), m["name"], *cells]))
                n_failures += m["auc_values"].count(None)
        assert read_lines(tmp_path / "r_sweep.csv") == expected_rows
        assert (n_failures > 0) == failing
        if failing:
            assert f"{n_failures} trial/method runs failed" in capsys.readouterr().err

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

    def test_dump_path_a_file_exit2_before_any_trial(self, tmp_path, capsys, monkeypatch):
        # every trial used to run before the first dump raised
        calls = []
        monkeypatch.setattr(harness, "generate", lambda *a, **k: calls.append(a))
        dump, out = tmp_path / "notadir", tmp_path / "r.json"
        dump.write_text("")
        code = cli.main(["bench", "--methods", "kde", "--dims", "4", "--trials", "2",
                         "--out", str(out), "--dump-scores", str(dump)])
        assert code == cli.EXIT_USAGE
        assert_one_error(capsys, str(dump))
        assert calls == [] and not out.exists()

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


# the dests of fit's, synth's and bench's flags
CONFIG_DESTS = sorted({
    dest for argv in (["fit", "--inliers", "a", "--test", "b"], ["synth"], ["bench"])
    for dest in vars(cli.build_parser().parse_args(argv))} - {"command", "config"})
# config keys: those flags under their flag names and their dests, and
# keys no command reads
CONFIG_KEYS = (st.sampled_from(CONFIG_DESTS)
               .flatmap(lambda dest: st.sampled_from([dest, dest.replace("_", "-")]))
               | st.sampled_from(["config", "command", "help", "zzz", ""]) | st.text(max_size=4))


def stub_fit(args):
    # the hyperparameters' own checks, without a fit
    cli._hyperparams(args)
    return cli.EXIT_OK


def stub_synth(args):
    # the spec's own checks, without generating data
    SynthSpec(d=args.d, n_inlier=args.n_inlier, n_test_inlier=args.n_test_inlier,
              n_test_outlier=args.n_outlier, seed=args.seed)
    return cli.EXIT_OK


# config values: any JSON, and texts and numbers the flags' types must reject or accept
CONFIG_VALUES = JSON_VALUES | st.sampled_from(
    ["auto", "10,100", "1x", "nan", "-1", "1e400", "llr,kde", "all", 2.5, -3, 10**30])
# bench's config keys under both spellings, less the paths it reads or writes and
# the two counts, which are drawn small: run_bench lists every task up front
BENCH_CONFIG_KEYS = st.sampled_from(sorted(
    set(vars(cli.build_parser().parse_args(["bench"])))
    - {"command", "config", "out", "sweep_csv", "dataset", "dump_scores", "trials", "threads"}
)).flatmap(lambda dest: st.sampled_from([dest, dest.replace("_", "-")]))
# values most of bench's flags accept, so that some runs pass every check
NUMBERS = st.integers(-2, 60) | st.floats(-1.0, 2.0)
COUNT_VALUES = st.integers(-3, 1000) | st.sampled_from(["0", "2", "x", "1e3", 2.5, None, True])


def assert_config_run_exits_0_or_one_error_line(ws, doc, argv):
    """Run cli.main on ``argv`` under a config file holding ``doc``, with
    the cwd in ``ws``/cwd; a run that reaches stop_at_pool counts as 0."""
    cwd = ws / "cwd"
    cwd.mkdir(exist_ok=True)
    (cwd / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        mp.chdir(cwd)
        try:
            code = cli.main(["--config", "cfg.json", *argv])
        except PoolStarted:
            code = cli.EXIT_OK
    lines = err.getvalue().splitlines()
    if code == cli.EXIT_OK:
        assert lines == [], (lines, doc)
    else:
        assert code == cli.EXIT_USAGE and len(lines) == 1, (code, lines, doc)
        assert lines[0].startswith("error: "), lines


class TestConfig:
    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(["fit", "synth"]),
           doc=st.dictionaries(CONFIG_KEYS, JSON_VALUES | st.sampled_from(
               ["auto", "10,100", "1x", "nan", "-1", "1e400", 2.5, -3, 10**30]), max_size=6))
    @example(command="fit", doc={"k": 3.5, "sigma2": "auto"})
    @example(command="synth", doc={"d": 1e300, "trials": 0})
    def test_fuzzed_config_exits_0_or_one_error_line(self, fuzz_pair, command, doc):
        cfg = fuzz_pair / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["--config", str(cfg), command]
        if command == "fit":
            argv += ["--inliers", "a.csv", "--test", "b.csv"]
        ran, err = [], io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
            mp.setattr(cli, "cmd_fit", lambda args: ran.append(args) or stub_fit(args))
            mp.setattr(cli, "cmd_synth", lambda args: ran.append(args) or stub_synth(args))
            code = cli.main(argv)
        lines = err.getvalue().splitlines()
        if code == cli.EXIT_OK:
            assert lines == [] and ran, doc
        else:
            assert code == cli.EXIT_USAGE and len(lines) == 1, (code, lines, doc)
            assert lines[0].startswith("error: "), lines
            # a value the parse rejects is the config's
            assert ran or str(cfg) in lines[0], (lines, doc)

    @settings(max_examples=100, deadline=None)
    @given(doc=st.dictionaries(BENCH_CONFIG_KEYS, NUMBERS | CONFIG_VALUES, max_size=4),
           counts=st.dictionaries(st.sampled_from(["trials", "threads"]), COUNT_VALUES))
    @example(doc={"dims": "10,100"}, counts={"trials": 1000, "threads": 1000})
    @example(doc={"methods": "llr,zzz", "osvm-nu": 2}, counts={})
    def test_fuzzed_bench_config_exits_0_or_one_error_line(self, fuzz_pair, doc, counts):
        # the run stops where the pool would start, so no trial runs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "ThreadPoolExecutor", stop_at_pool)
            assert_config_run_exits_0_or_one_error_line(fuzz_pair, {**doc, **counts}, ["bench"])

    @settings(max_examples=100, deadline=None)
    @given(doc=st.dictionaries(st.sampled_from(["tau", "which", "explain-top", "explain_top"]),
                               CONFIG_VALUES, max_size=3))
    @example(doc={"tau": "nan", "explain-top": 0})
    @example(doc={"tau": 1e400, "which": "all", "explain_top": 10**30})
    def test_fuzzed_score_config_exits_0_or_one_error_line(self, fuzz_pair, doc):
        assert_config_run_exits_0_or_one_error_line(fuzz_pair, doc, [
            "score", "--model", str(fuzz_pair / "fixed_model.json"),
            "--inliers", str(fuzz_pair / "inliers.csv"), "--test", str(fuzz_pair / "test.csv"),
        ])

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

    def test_misspelled_config_key_exit2(self, tmp_path, capsys):
        # a key no command has used to be dropped without a word
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lamda1": 5, "n-inlier": 12}))
        out = tmp_path / "out"
        code = cli.main(["--config", str(cfg), "synth", "--d", "3", "--out-dir", str(out)])
        assert code == cli.EXIT_USAGE and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: config file {cfg}: 'lamda1' is not a flag of any command\n")

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
        # twice, the second time with the cached parser already built
        for _ in range(2):
            code = cli.main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)])
            assert code == cli.EXIT_USAGE
            assert_one_error(capsys, "unrecognized arguments: --config")

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

    def test_config_dims_converted_like_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": "10,100"}))
        assert cli._parse(["--config", str(cfg), "bench"]).dims == [10, 100]
        assert cli._parse(["--config", str(cfg), "bench", "--dims", "4"]).dims == [4]
        cfg.write_text(json.dumps({"dims": "1x"}))
        assert cli.main(["--config", str(cfg), "bench"]) == cli.EXIT_USAGE
        assert_one_error(capsys, str(cfg), "--dims")

    # nesting past the recursion limit used to end in a RecursionError traceback
    @pytest.mark.parametrize("raw", [b"{", b"\xff{}", pytest.param(b"[" * 100000, id="deep")])
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


class TestOneParserPerProcess:
    """main() parses with one parser per process and dispatches to the
    cli.cmd_<command> attribute of the moment, so that a wrapper put
    there later (as ratiobench's tracer does) still runs."""

    def test_three_commands_build_the_parser_once(self, tmp_path, monkeypatch):
        builds = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda *a: builds.append(a) or real(*a))
        cli._default_parser.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--d", "2", "--n-inlier", "5", "--n-test-inlier", "3",
                             "--n-outlier", "1", "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        for _ in range(2):
            code = cli.main(["eval", "--scores", str(tmp_path / "none.csv")])
            assert code == cli.EXIT_USAGE
        assert len(builds) == 1

    def test_score_explains_in_one_call(self, workspace, tmp_path, monkeypatch):
        calls = []
        real = cli.explain
        monkeypatch.setattr(cli, "explain", lambda *a: calls.append(a) or real(*a))
        explained = tmp_path / "e.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([
                "score", "--model", str(workspace / "model.json"),
                "--inliers", str(workspace / "inliers.csv"), "--test", str(workspace / "test.csv"),
                "--out", str(tmp_path / "s.csv"), "--explain-top", "2",
                "--explain-out", str(explained),
            ]) == cli.EXIT_OK
        assert len(calls) == 1
        assert len(json.loads(explained.read_text())) == 25  # every test sample

    def test_command_patched_after_a_first_call_runs(self, tmp_path, monkeypatch):
        missing = str(tmp_path / "none.csv")
        assert cli.main(["eval", "--scores", missing]) == cli.EXIT_USAGE
        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.scores) or cli.EXIT_OK)
        assert cli.main(["eval", "--scores", missing]) == cli.EXIT_OK
        assert seen == [missing]

    def test_plain_run_after_a_config_run_has_builtin_defaults(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_synth", lambda args: seen.append(args) or cli.EXIT_OK)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-inlier": 25, "seed": 7}))
        assert cli.main(["--config", str(cfg), "synth"]) == cli.EXIT_OK
        assert cli.main(["synth"]) == cli.EXIT_OK
        assert [(a.n_inlier, a.seed) for a in seen] == [(25, 7), (SynthSpec.n_inlier, 0)]

    def test_consecutive_config_files_each_give_their_own_values(self, tmp_path, monkeypatch):
        # the parser is shared, so it must keep no value of a config
        seen = []
        monkeypatch.setattr(cli, "cmd_synth", lambda args: seen.append(args) or cli.EXIT_OK)
        for name, doc in (("a.json", {"n-inlier": 25, "seed": 7}), ("b.json", {"d": 4})):
            (tmp_path / name).write_text(json.dumps(doc))
            assert cli.main(["--config", str(tmp_path / name), "synth"]) == cli.EXIT_OK
        assert [(a.n_inlier, a.seed, a.d) for a in seen] == [(25, 7, 10), (SynthSpec.n_inlier, 0, 4)]

    def test_no_parser_built_after_a_first_call(self, workspace, tmp_path, monkeypatch):
        pair = ["--inliers", str(workspace / "inliers.csv"), "--test", str(workspace / "test.csv")]
        argvs = [
            ["fit", *pair, "--out", str(tmp_path / "m.json"), "--max-outer", "2"],
            ["score", "--model", str(tmp_path / "m.json"), *pair, "--out",
             str(tmp_path / "s.csv"), "--explain-top", "2"],
            ["eval", "--scores", str(tmp_path / "s.csv")],
        ]
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            real_init(self, *args, **kwargs)

        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                assert cli.main(argv) == cli.EXIT_OK
            monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
            for argv in argvs:
                assert cli.main(argv) == cli.EXIT_OK
        assert built == []


class TestTopLevel:
    def test_no_command_exit2(self):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_help_exit0(self):
        assert cli.main(["--help"]) == cli.EXIT_OK

    def test_unvalidated_value_error_is_not_a_usage_error(self, monkeypatch):
        # a bug shows its traceback; only InputError and OSError exit 2
        def broken(args):
            raise ValueError("a bug")

        monkeypatch.setattr(cli, "cmd_eval", broken)
        with pytest.raises(ValueError, match="a bug"):
            cli.main(["eval", "--scores", "scores.csv"])

    @staticmethod
    def run_fresh(steps, cwd):
        """Run each argv list through cli.main in one fresh interpreter,
        after importing ratioscope and then ratioscope.cli; the scipy
        modules, and scipy's CSR kernel as graph loads it, loaded after
        each import, and the exit code and those modules after each step."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = (
            f"import contextlib, io, json, sys; sys.path.insert(0, {src!r})\n"
            "def loaded(): return sorted(m for m in sys.modules\n"
            "                            if m.split('.')[0] == 'scipy' or m == 'ratioscope._sparsetools')\n"
            "import ratioscope; seen = [loaded()]\n"
            "from ratioscope import cli; seen.append(loaded())\n"
            f"for argv in {steps!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        seen.append([cli.main(argv), loaded()])\n"
            "print(json.dumps(seen))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, cwd=cwd).stdout
        return json.loads(out)

    def test_import_synth_score_and_eval_load_no_scipy(self, workspace, tmp_path):
        # scipy.special alone costs every command that loads it ~0.12 s
        # of start-up, scipy.sparse ~0.14 s, and scipy.optimize and
        # scipy.stats ~0.5 s; of scipy, fit loads only the compiled CSR
        # kernel, from its file (graph.Csr), and synth, score and eval
        # not even that: their normals and fit's sigmoids come from
        # ratioscope's numpy ports
        ws = workspace
        pair = ["--inliers", str(ws / "inliers.csv"), "--test", str(ws / "test.csv")]
        seen = self.run_fresh([
            ["synth", "--d", "10", "--out-dir", "synth"],
            ["score", "--model", str(ws / "model.json"), *pair, "--out", "scores.csv",
             "--explain-top", "2"],
            ["eval", "--scores", "scores.csv", "--out", "roc.csv"],
            ["fit", *pair, "--out", "model.json", "--max-outer", "30"],
        ], cwd=tmp_path)
        assert seen[:5] == [[], [], [cli.EXIT_OK, []], [cli.EXIT_OK, []], [cli.EXIT_OK, []]]
        assert (tmp_path / "synth" / "test.csv").is_file()
        assert (tmp_path / "scores_explanations.json").is_file()
        assert seen[5] == [cli.EXIT_OK, ["ratioscope._sparsetools"]]

    def test_first_scipy_imports_in_bench_threads_give_the_same_bytes(self, tmp_path):
        # in a fresh interpreter the pool threads import scipy themselves,
        # which criterion 12 (scipy already loaded) never exercises.  Of
        # scipy, the fits load only the CSR kernel (llr), both threads
        # racing to load it first: KDE and l1lr compute with numpy's
        # ufuncs, uLSIF and RuLSIF with numpy.linalg; with two trials
        # aggregation loads scipy.special for Welch's test
        bench = ["bench", "--methods", "llr,kde,lof,osvm,l1lr,kliep,ulsif,rulsif",
                 "--dims", "10", "--trials", "1"]
        seen = self.run_fresh([bench + ["--threads", "2", "--out", "fresh.json"],
                               bench[:-1] + ["2", "--threads", "2", "--out", "two.json"]],
                              cwd=tmp_path)
        assert seen[1] == []
        assert seen[2] == [cli.EXIT_OK, ["ratioscope._sparsetools"]]
        code, two_trials_loaded = seen[3]
        assert code == cli.EXIT_OK
        assert "scipy.special" in two_trials_loaded
        assert "scipy.linalg" not in two_trials_loaded
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(bench + ["--threads", "1", "--out", str(tmp_path / "serial.json")])
        assert code == cli.EXIT_OK
        assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "serial.json").read_bytes()
