"""One set-up of a benchmark run, in a fresh interpreter.

    python3 ratiobench/setup_inputs.py ROOT OUT_DIR DIM TRIAL [TRIAL ...]

Imports ratioscope from ROOT/src, writes each trial's inputs with
``ratioscope synth --d DIM --seed 0 --trial T --out-dir OUT_DIR/tT``
(no trials: import only) and prints CLOCK_MONOTONIC seconds on its
last line, so the parent can time process start to inputs written.
"""

import contextlib
import io
import os
import sys
import time

root, out_dir, dim, *trials = sys.argv[1:]
sys.path.insert(0, os.path.join(root, "src"))
from ratioscope import cli  # noqa: E402

for trial in trials:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "synth", "--d", dim, "--seed", "0", "--trial", trial,
            "--out-dir", os.path.join(out_dir, f"t{trial}"),
        ])
    if code != 0:
        raise SystemExit(f"ratioscope synth exited with {code}")
print(time.clock_gettime(time.CLOCK_MONOTONIC))
