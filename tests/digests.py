"""The fixed CLI pipeline whose output bytes test_digests.py pins.

    python tests/digests.py write
        runs the pipeline in a fresh directory and rewrites
        fixtures/digests.json; run it in the change that moves results
        on purpose, and record that change's numbers;
    OPENBLAS_NUM_THREADS=1 python tests/digests.py run OUT_DIR
        runs the pipeline into OUT_DIR, which must exist.

The digest file holds, for every file the pipeline writes, its sha256
and a 16-bit hash of each of its lines (so that a mismatch can name the
first line that moved), and the platform the digests were made on.
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


def collect(out_dir) -> None:
    """run(out_dir) in a fresh interpreter at one BLAS thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, __file__, "run", str(out_dir)], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"the pipeline failed:\n{proc.stderr}")


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
    elif sys.argv[1:] == ["write"]:
        with tempfile.TemporaryDirectory() as tmp:
            collect(tmp)
            doc = {"platform": platform(), "files": digests(tmp)}
        DIGEST_FILE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {DIGEST_FILE}")
    else:
        sys.exit(__doc__)
