"""ratioscope benchmark: one workload per run, fixed work, checked outputs.

    python3 ratiobench/run.py --workload llr-d10 --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout (ratioscope is imported from
./src).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ratiobench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# One BLAS thread: with the sweep's two Python threads this keeps
# Python threads plus BLAS threads within the machine's two CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

# Trial data are fixed (SynthSpec seed 0); --seed only orders the work
# (the llr trials, the sweep's dims), because LLR fit time ranges over
# 3x between trials and seeded data would make fits_per_s measure the
# draw instead of the code.
WORKLOADS = {
    "llr-d10": {"kind": "llr", "dim": 10, "trials": (0, 1, 2, 3), "min_rounds": 1},
    "llr-d100": {"kind": "llr", "dim": 100, "trials": (0, 1, 2, 3), "min_rounds": 1},
    # two rounds so that results.json can be compared between rounds
    "sweep": {"kind": "sweep", "dims": (10, 100), "trials": 1, "min_rounds": 2},
}
METHODS = ("llr", "kde", "lof", "osvm", "l1lr", "kliep", "ulsif", "rulsif")
SETUPS = 3
EXPLAIN_TOP = 5
MODULES = ("cli", "graph", "llr", "baselines", "harness")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quiet(fn, *args):
    """Call fn with its standard output captured; (result, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


# --------------------------------------------------------------- set-up


def timed_setup(work, spec, k):
    """Fresh interpreter: import ratioscope and write the inputs.
    Returns seconds from process start to inputs written."""
    out_dir = work / f"setup{k}"
    trials = [str(t) for t in spec["trials"]] if spec["kind"] == "llr" else []
    dim = str(spec.get("dim", 0))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_inputs.py"), str(ROOT), str(out_dir), dim, *trials],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def same_files(a: Path, b: Path):
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    if names != sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()):
        return [f"{a.name} and {b.name} hold different files"]
    return [f"{n} differs between set-ups" for n in names if (a / n).read_bytes() != (b / n).read_bytes()]


def import_ratioscope():
    """Import ratioscope from ./src of this checkout; (modules, seconds)."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    mods = {name: importlib.import_module(f"ratioscope.{name}") for name in MODULES}
    return mods, time.perf_counter() - t0


# --------------------------------------------------------------- tracing


def install_tracing(tracer, rs):
    """Wrap each public function at the attribute its callers use."""
    cli, llr, harness, baselines = rs["cli"], rs["llr"], rs["harness"], rs["baselines"]
    T = tracer.install
    for cmd in ("synth", "fit", "score", "eval", "bench"):
        T(cli, f"cmd_{cmd}", f"cli.{cmd}")
    T(cli, "load_csv", "data.load_csv")
    for mod in (cli, harness):
        T(mod, "fit_standardizer", "data.standardize")
        T(mod, "apply_standardizer", "data.standardize")
        T(mod, "ratio_score", "scores.ratio_score")
        T(mod, "auc", "evaluation.auc")
        T(mod, "generate", "synth.generate")
    for mod in (llr, harness):
        T(mod, "median_heuristic", "graph.median_heuristic")
    T(llr, "knn_graph", "graph.knn_graph")
    for mod in (rs["graph"], baselines):
        T(mod, "pairwise_sq_dists", "graph.pairwise_sq_dists")
    for fn in ("fit_pooled", "solve_inner", "objective_J", "majorizer_Cg",
               "majorizer_Ce", "save_model", "load_model"):
        T(llr, fn, f"llr.{fn}")
    T(cli, "explain", "scores.explain")
    T(cli, "save_scores_csv", "scores.save")
    T(cli, "save_explanations_json", "scores.save")
    T(cli, "roc_curve", "evaluation.roc_curve")
    T(harness, "welch_ttest", "evaluation.welch_ttest")
    T(baselines, "osvm_fit", "baselines.osvm_fit")
    T(baselines, "project_box_simplex", "baselines.project_box_simplex")
    T(harness, "run_bench", "harness.run_bench")
    T(harness, "run_method", lambda method, *_: f"harness.run_method.{method}")


SELF_TIMED = (
    "cli.fit", "cli.score", "cli.eval", "cli.bench",
    "data.load_csv", "data.standardize", "synth.generate",
    "graph.median_heuristic", "graph.knn_graph",
    "llr.fit_pooled", "llr.solve_inner", "llr.objective_J", "llr.majorizer_Cg",
    "llr.majorizer_Ce", "llr.save_model", "llr.load_model",
    "scores.ratio_score", "scores.explain", "scores.save",
    "evaluation.auc", "evaluation.roc_curve", "evaluation.welch_ttest",
    "baselines.osvm_fit", "baselines.project_box_simplex", "harness.run_bench",
)


def per_layer_metrics(summary, fits, import_s, threads):
    """Self CPU seconds per fit for each layer, CPU seconds per call of
    each bench method, counts, and the bench pool's efficiency.  A layer
    the workload never calls reads 0."""
    def row(name):
        return summary.get(name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0})

    def per(name, base):
        return row(name)["calls"] / row(base)["calls"] if row(base)["calls"] else 0.0

    m = {"cli.import_s": (import_s, "s")}
    for name in SELF_TIMED:
        m[f"{name}_s"] = (row(name)["self_s"] / fits, "s")
    m["graph.pairwise_calls"] = (row("graph.pairwise_sq_dists")["calls"] / fits, "count")
    m["llr.outer_iters"] = (per("llr.majorizer_Cg", "llr.fit_pooled"), "count")
    m["scores.explain_calls"] = (row("scores.explain")["calls"] / fits, "count")
    m["baselines.project_box_simplex_calls"] = (
        per("baselines.project_box_simplex", "baselines.osvm_fit"), "count")
    busy = 0.0
    for method in METHODS:
        r = row(f"harness.run_method.{method}")
        m[f"harness.run_method_s.{method}"] = (r["cpu_s"] / r["calls"] if r["calls"] else 0.0, "s")
        busy += r["cpu_s"]
    # busy = CPU seconds inside run_method; its base = threads x run_bench wall
    bench = row("harness.run_bench")
    m["harness.busy_s"] = (busy / fits, "s")
    m["harness.wall_s"] = (bench["wall_s"] / fits, "s")
    m["harness.threads"] = (threads if bench["calls"] else 0, "count")
    m["harness.parallel_efficiency"] = (
        busy / (threads * bench["wall_s"]) if bench["calls"] else 0.0, "ratio")
    return m


# --------------------------------------------------------------- workloads


def llr_round(cli, inputs, out, order):
    """fit -> score --explain-top -> eval per trial; (seconds, [(trial, auc or None)])."""
    done = []
    t0 = time.perf_counter()
    for t in order:
        src, dst = inputs / f"t{t}", out / f"t{t}"
        dst.mkdir(parents=True, exist_ok=True)
        pair = ["--inliers", str(src / "inliers.csv"), "--test", str(src / "test.csv")]
        code, _ = quiet(cli.main, ["fit", *pair, "--out", str(dst / "model.json")])
        if code == 0:
            code, _ = quiet(cli.main, ["score", "--model", str(dst / "model.json"), *pair,
                                       "--out", str(dst / "scores.csv"),
                                       "--explain-top", str(EXPLAIN_TOP)])
        value = None
        if code == 0:
            code, text = quiet(cli.main, ["eval", "--scores", str(dst / "scores.csv"),
                                          "--out", str(dst / "roc.csv")])
            if code == 0:
                value = float(text.split("AUC")[-1])
        done.append((t, value))
    return time.perf_counter() - t0, done


def check_llr(inputs, out, done, problems, self_test):
    failures, fits, last = [], [], None
    for t, value in done:
        if value is None:
            continue
        if t not in problems:
            problems[t] = checks.Problem(inputs / f"t{t}" / "inliers.csv", inputs / f"t{t}" / "test.csv")
        model = checks.read_json(out / f"t{t}" / "model.json")
        scores = checks.read_scores(out / f"t{t}" / "scores.csv")
        explanations = checks.read_json(out / f"t{t}" / "scores_explanations.json")
        failures += [f"trial {t}: {f}" for f in checks.check_llr_trial(
            model, problems[t], scores, value, explanations, EXPLAIN_TOP)]
        fits.append((model, problems[t]))
        last = (model, problems[t], scores, value, explanations)
    if fits:
        failures += checks.shifted_features_lead(fits)
    if self_test and last:
        missed = checks.self_test_llr(*last, EXPLAIN_TOP, fits)
        failures += [f"self-test: corruption not caught: {m}" for m in missed]
    return failures


def sweep_round(cli, out, threads, dims, trials):
    """One in-process `ratioscope bench`; (seconds, doc or None, raw bytes)."""
    path = out / "results.json"
    argv = ["bench", "--methods", ",".join(METHODS), "--dims", ",".join(map(str, dims)),
            "--trials", str(trials), "--seed", "0", "--threads", str(threads),
            "--out", str(path)]
    t0 = time.perf_counter()
    code, _ = quiet(cli.main, argv)
    elapsed = time.perf_counter() - t0
    if code not in (0, 1) or not path.is_file():
        return elapsed, None, b""
    raw = path.read_bytes()
    return elapsed, json.loads(raw), raw


# --------------------------------------------------------------- main


def run(args):
    spec = WORKLOADS[args.workload]
    if not (ROOT / "src" / "ratioscope" / "cli.py").is_file():
        raise SystemExit(f"no ratioscope sources under {ROOT / 'src'}")
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_s = [timed_setup(work, spec, k) for k in range(SETUPS)]
    rs, import_s = import_ratioscope()
    cli = rs["cli"]
    tracer = Tracer() if args.trace else None
    if tracer:
        install_tracing(tracer, rs)

    rng = random.Random(args.seed)
    threads = len(os.sched_getaffinity(0))
    failures = []
    inputs, out = work / "inputs", work / "out"
    if spec["kind"] == "llr":
        for t in spec["trials"]:
            code, _ = quiet(cli.main, ["synth", "--d", str(spec["dim"]), "--seed", "0",
                                       "--trial", str(t), "--out-dir", str(inputs / f"t{t}")])
            if code != 0:
                raise SystemExit(f"ratioscope synth exited with {code}")
        for k in range(SETUPS):
            failures += same_files(inputs, work / f"setup{k}")
        order = list(spec["trials"])
        rng.shuffle(order)
        per_round = len(order)
    else:
        # Shuffling the methods would change which methods the two pool
        # threads run side by side, and with it the round's wall time.
        dims = list(spec["dims"])
        rng.shuffle(dims)
        per_round = len(dims) * spec["trials"] * len(METHODS)
    out.mkdir()

    rounds, elapsed, attempted, failed, aucs = 0, 0.0, 0, 0, []
    problems, first_raw = {}, None
    while rounds < spec["min_rounds"] or elapsed < args.seconds:
        rounds += 1
        if spec["kind"] == "llr":
            secs, done = llr_round(cli, inputs, out, order)
            failed += sum(v is None for _, v in done)
            aucs += [v for _, v in done if v is not None]
            failures += check_llr(inputs, out, done, problems, self_test=rounds == 1)
        else:
            secs, doc, raw = sweep_round(cli, out, threads, dims, spec["trials"])
            if doc is None:
                failed += per_round
            else:
                values = [m["auc_values"] for e in doc["per_dim"] for m in e["methods"]]
                failed += sum(v is None for vs in values for v in vs)
                aucs += [v for e in doc["per_dim"] for m in e["methods"] if m["name"] == "llr"
                         for v in m["auc_values"] if v is not None]
                failures += checks.results_consistent(doc)
                if first_raw is None:
                    first_raw = raw
                    failures += [f"self-test: corruption not caught: {m}"
                                 for m in checks.self_test_sweep(doc, raw)]
                else:
                    failures += checks.identical_bytes(first_raw, raw)
        attempted += per_round
        elapsed += secs
        log(f"round {rounds}: {per_round} fits in {secs:.3f} s")

    for f in failures:
        log(f"CHECK FAILED: {f}")
    log(f"{rounds} rounds, {attempted} fits attempted, {failed} failed, "
        f"{len(failures)} check failures; set-ups {['%.3f' % s for s in setup_s]} s")
    completed = attempted - failed
    if tracer:
        tracer.remove()
        tracer.dump(work / "spans.jsonl")
        metrics = per_layer_metrics(tracer.summary(), max(completed, 1), import_s, threads)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "fits_per_s": (completed / elapsed, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "llr_auc": (statistics.fmean(aucs) if aucs else 0.0, "AUC"),
        }
    return {
        "correct": not failures and completed > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = run(parser.parse_args())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
