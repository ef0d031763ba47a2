"""Command-line interface: synth, fit, score, bench, eval.

Exit codes: 0 success, 1 computational failure, 2 usage/input error.
A JSON config file (--config) mirrors the flags; explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import harness, llr
# apply_standardizer is unused here but stays importable as
# cli.apply_standardizer, where ratiobench's tracer looks it up
from .data import apply_standardizer  # noqa: F401
from .data import (
    CONST_FEATURE,
    fit_standardizer,
    load_csv,
    pool,
    read_json_object,
    save_csv,
    with_intercept,
)
from .errors import InputError, SolverFailure
from .evaluation import auc, roc_curve
from .scores import (
    check_top_k,
    detect,
    explain,
    load_scores_csv,
    ratio_score,
    save_explanations_json,
    save_scores_csv,
)
from .synth import SynthSpec, generate

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _load_pair(args, intercept: bool):
    """The --inliers and --test CSVs, with the constant feature if ``intercept``."""
    inliers, _ = load_csv(args.inliers, id_prefix="in-")
    test, test_labels = load_csv(args.test, id_prefix="te-")
    if intercept:
        inliers, test = with_intercept(inliers), with_intercept(test)
    return inliers, test, test_labels


# the parameters whose flag dest is not the parameter's own name
_FLAG_DEST = {"k_neighbors": "k", "outer_max_iters": "max_outer", "outer_rel_tol": "tol"}
# every bench parameter but "standardize" has a flag (--no-standardize inverts it)
_BENCH_FLAG_PARAMS = tuple(name for name in harness.DEFAULT_PARAMS if name != "standardize")


def _params(args, names) -> dict:
    """Parameter name -> parsed flag value for each of ``names``."""
    return {name: getattr(args, _FLAG_DEST.get(name, name)) for name in names}


def _hyperparams(args) -> llr.LlrHyperparams:
    return llr.LlrHyperparams(sigma2=args.sigma2, **_params(args, harness.LLR_PARAMS))


def cmd_synth(args) -> int:
    spec = SynthSpec(
        d=args.d,
        n_inlier=args.n_inlier,
        n_test_inlier=args.n_test_inlier,
        n_test_outlier=args.n_outlier,
        seed=args.seed,
    )
    inliers, test, labels = generate(spec, trial=args.trial)
    os.makedirs(args.out_dir, exist_ok=True)
    save_csv(os.path.join(args.out_dir, "inliers.csv"), inliers)
    save_csv(os.path.join(args.out_dir, "test.csv"), test, labels=labels)
    print(f"wrote {args.out_dir}/inliers.csv and {args.out_dir}/test.csv")
    return EXIT_OK


def cmd_fit(args) -> int:
    inliers, test, _ = _load_pair(args, args.intercept)
    stats = None if args.no_standardize else fit_standardizer(inliers)
    hp = _hyperparams(args)
    pooled = pool(*harness.standardized(inliers, test, stats))
    result = llr.fit_pooled(pooled, hp)
    llr.save_model(args.out, result, pooled, hp, stats)
    print(
        f"final objective {result.objective_trace[-1]:.6f} "
        f"after {result.iterations} iterations "
        f"(converged={result.converged})"
    )
    return EXIT_OK


def cmd_score(args) -> int:
    if args.explain_top is not None:
        check_top_k(args.explain_top, "--explain-top")
    model = llr.load_model(args.model)
    intercept = model["feature_names"][-1:] == [CONST_FEATURE]
    inliers, test, test_labels = _load_pair(args, intercept)
    for path, data in ((args.inliers, inliers), (args.test, test)):
        if list(data.feature_names) != model["feature_names"]:
            raise InputError(
                f"feature names {list(data.feature_names)} of {path} do not "
                f"match the model's {model['feature_names']}"
            )
    if inliers.m != model["n_inlier"] or test.m != model["n_test"]:
        raise InputError(
            "sample counts do not match the model "
            f"(expected {model['n_inlier']}+{model['n_test']})"
        )
    try:
        pooled = pool(*harness.standardized(inliers, test, model.get("standardizer")))
    except InputError as exc:  # a z-score overflows, as from a tiny scale
        raise InputError(f"model file {args.model}: {exc}") from None
    weights = llr.WeightMatrix(values=model["weights"])
    labels = tuple(test_labels) if (test_labels and args.which == "test") else None
    scores = ratio_score(weights, pooled, which=args.which, labels=labels)
    decisions = detect(scores, args.tau) if args.tau is not None else None
    save_scores_csv(args.out, scores, decisions=decisions)
    if args.explain_top is not None:
        flagged = (
            [sid for sid, dec in zip(scores.sample_ids, decisions) if dec == "outlier"]
            if decisions is not None
            else list(scores.sample_ids)
        )
        explanations = explain(weights, pooled, flagged, args.explain_top)
        out = args.explain_out or (os.path.splitext(args.out)[0] + "_explanations.json")
        save_explanations_json(out, explanations)
        print(f"wrote {len(explanations)} explanations to {out}")
    print(f"wrote {len(scores.sample_ids)} scores to {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    dataset = dataset_labels = None
    dataset_name = "synthetic"
    if args.dataset:
        dataset, dataset_labels = load_csv(args.dataset)
        if dataset_labels is None:
            raise InputError("benchmark dataset CSV needs a label column")
        dataset_name = args.dataset
    params = {**_params(args, _BENCH_FLAG_PARAMS), "standardize": not args.no_standardize}
    doc = harness.run_bench(
        args.dims,
        args.trials,
        methods,
        args.seed,
        params=params,
        dataset=dataset,
        dataset_labels=dataset_labels,
        dataset_name=dataset_name,
        threads=args.threads,
        dump_scores_dir=args.dump_scores,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    sweep_path = args.sweep_csv or (os.path.splitext(args.out)[0] + "_sweep.csv")
    n_failures = 0
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write("dim,method,mean_auc,std\n")
        for entry in doc["per_dim"]:
            for m in entry["methods"]:
                cells = ("" if v is None else repr(v) for v in (m["mean"], m["std"]))
                fh.write(f"{entry['dim']},{m['name']},{','.join(cells)}\n")
                n_failures += m["auc_values"].count(None)
    for entry in doc["per_dim"]:
        print(harness.format_table(entry))
    if n_failures:
        print(f"{n_failures} trial/method runs failed", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_eval(args) -> int:
    scores, _ = load_scores_csv(args.scores)
    try:
        value, points = auc(scores), roc_curve(scores)
    except InputError as exc:  # no label column, or a class missing from it
        raise InputError(f"scores file {args.scores}: {exc}") from None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("fpr,tpr\n")
            fh.writelines(f"{fpr!r},{tpr!r}\n" for fpr, tpr in points.tolist())
    print(f"AUC {value!r}")
    return EXIT_OK


def auto_or_float(text: str) -> float | str:
    """argparse type of --sigma2; its ValueError becomes a usage error."""
    return text if text == llr.SIGMA2_AUTO else float(text)


def int_list(text: str) -> list[int]:
    """argparse type of --dims: comma-separated ints, blank entries
    skipped, so that "" is the empty list."""
    return [int(v) for v in text.split(",") if v.strip()]


def _add_param_flags(p, names):
    """One flag per parameter in ``names``, whose harness.DEFAULT_PARAMS
    value gives the flag's default and its type, plus --no-standardize."""
    for name in names:
        default = harness.DEFAULT_PARAMS[name]
        flag = "--" + _FLAG_DEST.get(name, name).replace("_", "-")
        p.add_argument(flag, type=type(default), default=default)
    p.add_argument("--no-standardize", action="store_true")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise InputError instead of
    printing its usage, so that a bad flag prints one line."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The full CLI parser; ``defaults`` (dest -> value) override the
    built-in defaults of every subcommand."""
    parser = _Parser(
        prog="ratioscope",
        description="Inlier-based outlier detection with per-sample feature attribution",
    )
    # before the command only: the subcommands do not know it
    parser.add_argument("--config", help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic inlier/test CSVs")
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--n-inlier", type=int, default=SynthSpec.n_inlier)
    p.add_argument("--n-test-inlier", type=int, default=SynthSpec.n_test_inlier)
    p.add_argument("--n-outlier", type=int, default=SynthSpec.n_test_outlier)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("fit", help="fit the localized ratio model")
    p.add_argument("--inliers", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", default="model.json")
    _add_param_flags(p, harness.LLR_PARAMS)
    p.add_argument("--sigma2", type=auto_or_float, default=llr.LlrHyperparams.sigma2)
    p.add_argument("--intercept", action="store_true",
                   help="append a constant-1 feature (excluded from explanations)")

    p = sub.add_parser("score", help="score samples with a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--inliers", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", default="scores.csv")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--which", choices=["test", "inlier", "all"], default="test")
    p.add_argument("--explain-top", type=int, default=None)
    p.add_argument("--explain-out", default=None)

    p = sub.add_parser("bench", help="run the benchmark sweep")
    p.add_argument(
        "--methods", default=",".join(harness.DEFAULT_BENCH_METHODS),
        help="comma-separated subset of " + ",".join(harness.METHODS)
        + " (default: harness.DEFAULT_BENCH_METHODS, %(default)s)",
    )
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--dims", type=int_list, default="10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="results.json")
    p.add_argument("--sweep-csv", default=None)
    p.add_argument("--dataset", default=None,
                   help="CSV with label column; resplit per trial instead of synthetic data")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--dump-scores", default=None)
    _add_param_flags(p, _BENCH_FLAG_PARAMS)

    p = sub.add_parser("eval", help="AUC/ROC report for a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", default=None)

    for p in sub.choices.values():
        p.set_defaults(**(defaults or {}))
    # the keys a config file may hold: every command's flag dests
    parser.flag_dests = {a.dest for p in sub.choices.values() for a in p._actions} - {"help"}
    return parser


@functools.cache
def _default_parser() -> argparse.ArgumentParser:
    """build_parser() with the built-in defaults, built on first use and
    kept: parsing leaves no state in a parser, so every command of the
    process can share it."""
    return build_parser()


def _config_default(path, key, value, parsed):
    """A config value as a flag default: true/false for a store_true
    flag (whose parsed value is a bool), otherwise a number or string
    made text, so that argparse converts it as it converts the flag."""
    switch = isinstance(parsed, bool)
    if switch == isinstance(value, bool) and isinstance(value, (int, float, str)):
        return value if switch else str(value)
    kind = "true or false" if switch else "a number or a string"
    raise InputError(f"config file {path}: {key!r} must be {kind}, got {json.dumps(value)}")


def _parse(argv):
    args = _default_parser().parse_args(argv)
    path = args.config
    if path is None:
        return args
    # second pass: config values become defaults of the chosen command's
    # own flags, so that explicit flags still win
    config = read_json_object(path, "config file")
    for key in config:
        if key.replace("-", "_") not in _default_parser().flag_dests:
            raise InputError(f"config file {path}: {key!r} is not a flag of any command")
    dests = ((k.replace("-", "_"), v) for k, v in config.items())
    own = {
        k: _config_default(path, k, v, vars(args)[k]) for k, v in dests
        if k in vars(args) and k not in ("command", "config")
    }
    if not own:
        return args
    try:
        return build_parser(own).parse_args(argv)
    except InputError as exc:
        # argv parsed once already, so the value at fault is the config's
        raise InputError(f"config file {path}: {exc}") from None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        # looked up at call time, so that a wrapper put on cli.cmd_<command>
        # after the parser was built still runs
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    # any other exception is a bug, and shows its traceback
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
