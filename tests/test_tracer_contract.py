"""The benchmark's tracer wraps ratioscope functions by module attribute.

``ratiobench/run.py --trace 1`` replaces each attribute below with a
timing wrapper; a rename in the package would crash the traced run.
This test installs ``ratiobench/tracer.py``'s Tracer at the same pairs,
without importing run.py (which sets BLAS environment variables when
imported), runs one small fit and removes the tracer again.
"""

from pathlib import Path

import numpy as np

from conftest import random_instance
from ratioscope import baselines, cli, graph, harness, llr

# the (module, attribute) pairs that ratiobench/run.py's install_tracing wraps
TRACED = (
    [(cli, f"cmd_{cmd}") for cmd in ("synth", "fit", "score", "eval", "bench")]
    + [(cli, "load_csv")]
    + [(mod, fn) for mod in (cli, harness)
       for fn in ("fit_standardizer", "apply_standardizer", "ratio_score", "auc", "generate")]
    + [(llr, "median_heuristic"), (harness, "median_heuristic"), (llr, "knn_graph")]
    + [(graph, "pairwise_sq_dists"), (baselines, "pairwise_sq_dists")]
    + [(llr, fn) for fn in ("fit_pooled", "solve_inner", "objective_J", "majorizer_Cg",
                            "majorizer_Ce", "save_model", "load_model")]
    + [(cli, "explain"), (cli, "save_scores_csv"), (cli, "save_explanations_json"),
       (cli, "roc_curve"), (harness, "welch_ttest"), (baselines, "osvm_fit"),
       (baselines, "project_box_simplex"), (harness, "run_bench"), (harness, "run_method")]
)


def load_tracer_class():
    # run from source, so that no bytecode cache is written next to it
    path = Path(__file__).resolve().parents[1] / "ratiobench" / "tracer.py"
    namespace = {"__name__": "ratiobench_tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace["Tracer"]


def test_traced_attributes_exist_and_a_traced_fit_runs():
    originals = [getattr(mod, attr) for mod, attr in TRACED]
    assert all(callable(fn) for fn in originals)
    tracer = load_tracer_class()()
    for mod, attr in TRACED:
        tracer.install(mod, attr, f"{mod.__name__}.{attr}")
    try:
        pooled, g = random_instance(np.random.default_rng(0))
        result = llr.fit_pooled(pooled, llr.LlrHyperparams(outer_max_iters=5), graph=g)
    finally:
        tracer.remove()
    assert [getattr(mod, attr) for mod, attr in TRACED] == originals
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    n = result.iterations
    assert calls["ratioscope.llr.fit_pooled"] == 1
    assert calls["ratioscope.llr.majorizer_Cg"] == n  # run.py's llr.outer_iters
    # one J per MM step, one at W = 0, one at the unfused start and one
    # at the first cycle's extrapolated point; the second cycle's two
    # plain steps meet the cap
    assert n == 5 and not result.converged
    assert calls["ratioscope.llr.objective_J"] == n + 3
