"""The fixed CLI pipeline whose output bytes test_digests.py pins.

    python tests/digests.py write
        runs the pipeline in a fresh directory and rewrites
        fixtures/digests.json; run it in the change that moves results
        on purpose, and record that change's numbers;
    OPENBLAS_NUM_THREADS=1 python tests/digests.py run OUT_DIR
        runs the pipeline into OUT_DIR, which must exist;
    OPENBLAS_NUM_THREADS=1 python tests/digests.py backtracking
        prints the backtracking fits' digests as JSON.

The digest file holds, for every file the pipeline writes, its sha256
and a 16-bit hash of each of its lines (so that a mismatch can name the
first line that moved); the sha256 of the results of two fits whose
Armijo line search halves its step, a branch that the pipeline's fits
never take; and the platform the digests were made on.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGEST_FILE = HERE / "fixtures" / "digests.json"


def _pair(d):
    return ["--inliers", f"d{d}/inliers.csv", "--test", f"d{d}/test.csv"]


PIPELINE = [
    *(step for d in (10, 100) for step in (
        ["synth", "--d", str(d), "--trial", "0", "--out-dir", f"d{d}"],
        ["fit", *_pair(d), "--out", f"d{d}/model.json"],
        ["score", "--model", f"d{d}/model.json", *_pair(d), "--out", f"d{d}/scores.csv",
         "--explain-top", "5"],
        ["eval", "--scores", f"d{d}/scores.csv", "--out", f"d{d}/roc.csv"],
    )),
    ["fit", *_pair(10), "--out", "d10/model_i.json", "--intercept"],
    ["score", "--model", "d10/model_i.json", *_pair(10), "--out", "d10/scores_i.csv"],
    ["fit", *_pair(10), "--out", "d10/model_in.json", "--intercept", "--no-standardize"],
    ["score", "--model", "d10/model_in.json", *_pair(10), "--out", "d10/scores_in.csv"],
    ["bench", "--methods", "llr,kde,lof,osvm,l1lr,kliep,ulsif,rulsif", "--dims", "10",
     "--trials", "1", "--threads", "1", "--out", "results.json"],
]


def platform() -> dict:
    """The versions and BLAS build that output bytes depend on."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without the dict mode
        blas = {}
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", blas.get("name", "unknown")),
    }


def run(out_dir) -> None:
    """Run PIPELINE through cli.main in ``out_dir``; each step's argv,
    stdout, stderr and exit code go to transcript.txt."""
    from ratioscope import cli

    os.chdir(out_dir)
    with open("transcript.txt", "w", encoding="utf-8") as log:
        for argv in PIPELINE:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            log.write(f"$ ratioscope {' '.join(argv)}\n{out.getvalue()}{err.getvalue()}"
                      f"exit {code}\n")


def sha256(values) -> str:
    import numpy as np

    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


def backtracking_solve() -> dict:
    """Digest of an exact solve from a far start, with no fused term; its
    line search halves twice."""
    import numpy as np
    import scipy.sparse as sp
    from conftest import make_dataset

    from ratioscope import llr
    from ratioscope.data import pool

    rng = np.random.default_rng(0)
    pooled = pool(make_dataset(rng.normal(size=(3, 8)), "a"),
                  make_dataset(rng.normal(size=(3, 4)), "b"))
    W0 = llr.WeightMatrix(values=5.0 * rng.normal(size=(3, 12)))
    W = llr.solve_inner(pooled, sp.csr_matrix((12, 12)), np.ones((3, 12)),
                        llr.LlrHyperparams(lambda1=0.0, lambda2=1e-3), W0)
    return {"weights": sha256(W.values)}


def backtracking_fit() -> dict:
    """Digests of tests/test_llr.py's fit where the line search met
    log1p(-1); its inner solves halve 398 times."""
    from conftest import standardized_pool

    from ratioscope import llr
    from ratioscope.synth import SynthSpec

    pooled = standardized_pool(
        SynthSpec(d=5, n_inlier=30, n_test_inlier=15, n_test_outlier=3, seed=0))
    hp = llr.LlrHyperparams(lambda1=1e6, lambda2=0.0, epsilon=1e-10, k_neighbors=1)
    result = llr.fit_pooled(pooled, hp)
    return {"weights": sha256(result.weights.values),
            "objective_trace": sha256(result.objective_trace)}


def fresh(*argv) -> str:
    """The stdout of this script run with ``argv`` in a fresh interpreter
    at one BLAS thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, __file__, *argv], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(argv)} failed:\n{proc.stderr}")
    return proc.stdout


def collect(out_dir) -> None:
    """run(out_dir) in a fresh interpreter at one BLAS thread."""
    fresh("run", str(out_dir))


def _line_hash(line: bytes) -> str:
    return hashlib.sha256(line).hexdigest()[:4]


def digests(out_dir) -> dict:
    """relative path -> {"sha256", "lines"} for every file in ``out_dir``."""
    out_dir = Path(out_dir)
    found = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        found[path.relative_to(out_dir).as_posix()] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "lines": "".join(map(_line_hash, data.splitlines(keepends=True))),
        }
    return found


def first_difference(out_dir, name: str, expected) -> str:
    """Where file ``name`` of ``out_dir`` departs from its ``expected``
    digests, for a failure message."""
    path = Path(out_dir) / name
    if expected is None:
        return f"{name}: written, but has no digest"
    if not path.is_file():
        return f"{name}: not written"
    lines = path.read_bytes().splitlines(keepends=True)
    want = [expected["lines"][i:i + 4] for i in range(0, len(expected["lines"]), 4)]
    for i, line in enumerate(lines):
        if i >= len(want):
            return f"{name}: line {i + 1} is past the expected {len(want)} lines: {line[:200]!r}"
        if _line_hash(line) != want[i]:
            return f"{name}: line {i + 1} differs, it now reads {line[:200]!r}"
    if len(lines) < len(want):
        return f"{name}: ends after line {len(lines)} of the expected {len(want)}"
    return f"{name}: differs, in no line that a 16-bit line hash tells apart"


if __name__ == "__main__":
    if sys.argv[1:2] == ["run"]:
        sys.path.insert(0, str(SRC))
        run(sys.argv[2])
    elif sys.argv[1:] == ["backtracking"]:
        sys.path.insert(0, str(SRC))
        print(json.dumps({"solve": backtracking_solve(), "fit": backtracking_fit()}))
    elif sys.argv[1:] == ["write"]:
        with tempfile.TemporaryDirectory() as tmp:
            collect(tmp)
            doc = {"platform": platform(), "files": digests(tmp),
                   "backtracking": json.loads(fresh("backtracking"))}
        DIGEST_FILE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {DIGEST_FILE}")
    else:
        sys.exit(__doc__)
