"""Record a benchmark comparison as a committed BENCH_<n>.json.

    python tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \
        --parent-commit SHA --seed 3101 --out BENCH_31.json

PARENT_DIR and CHANGE_DIR are two source checkouts (for example made
with ``git archive``), each holding its own ratiobench/.  The benchmark's
definition is read from CHANGE_DIR's BENCHMARK.json: the run length
(``run_seconds``), the workload names and each end-to-end metric with
the direction in which it is better.  For every workload the script runs
``ratiobench/run.py --seconds RUN_SECONDS --trace 0`` in both checkouts,
PAIRS times, alternating which side runs first, and then once per side
at ``--trace 1``, whose JSON object holds the per-layer times in place of
the end-to-end metrics.  Seeds count up from ``--seed``, PAIRS + 1 per
workload, the last for the traced runs.  Each run's seed and the JSON
object it printed are kept verbatim.  The file also
records the machine (CPU count, Python, numpy, scipy and the BLAS build,
as tests/digests.py reports them), the medians and quartiles of each
end-to-end metric per side, the number of pairs in which the change's
run was the better one, each side's src/ratioscope line count (so the
change's net line change sits beside its timings), and tier-1's pass
count and wall time in CHANGE_DIR.  Running it again on the same inputs
writes a file of the same layout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
# a pair counts for the change only if its value is better by more than this
# fraction, so that last-bit float noise (0.92675 against 0.9267500000000001) ties
NOISE = 1e-9
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> str:
    """The last standard-output line of one benchmark run: its JSON object."""
    proc = subprocess.run(
        [sys.executable, "ratiobench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


def summary(lines: list[str], metrics: dict) -> dict:
    """Median and quartiles of each end-to-end metric over the runs' lines."""
    out = {}
    for name in metrics:
        values = [json.loads(line)["metrics"][name]["value"] for line in lines]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return out


def better_pairs(pairs: list[dict], metrics: dict) -> dict:
    """Per metric, the pairs in which the change's run read better by more
    than NOISE; the others count for neither side."""
    def gain(pair, name, better):
        change, parent = (json.loads(pair[side])["metrics"][name]["value"]
                          for side in ("change", "parent"))
        return (change - parent) * (1 if better == "higher" else -1), max(abs(change), abs(parent))
    return {name: sum(diff > NOISE * scale for diff, scale in (gain(p, name, better) for p in pairs))
            for name, better in metrics.items()}


def machine(checkout: Path) -> dict:
    """CPU count, Python, and tests/digests.py's numpy, scipy and BLAS strings."""
    code = ("import json, sys; sys.path.insert(0, 'tests'); import digests; "
            "print(json.dumps(digests.platform()))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout, capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": "src"})
    return {"cpu_count": os.cpu_count(), "python": sys.version,
            **json.loads(proc.stdout)}


def source_lines(checkout: Path) -> int:
    """Lines in src/ratioscope/*.py, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "ratioscope").glob("*.py"))


def tier1(checkout: Path) -> dict:
    """Tier-1's pass count, failure count and wall time in ``checkout``."""
    t0 = time.monotonic()
    proc = subprocess.run(TIER1, cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": "src"})
    wall = time.monotonic() - t0
    tail = proc.stdout.strip().splitlines()[-1]
    counts = {key: int(n) for n, key in re.findall(r"(\d+) (passed|failed|error)", tail)}
    return {"command": " ".join(["python"] + TIER1[1:]), "summary": tail,
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "wall_s": round(wall, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    doc = {
        "parent_commit": args.parent_commit,
        "change": "the commit that adds this file",
        "command": f"ratiobench/run.py --workload W --seed S --seconds {seconds:g} --trace T",
        "machine": machine(sides["change"]),
        "source_lines": {side: source_lines(path) for side, path in sides.items()},
        "workloads": {},
    }
    seed = args.seed
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: {pair[side]}", file=sys.stderr)
            pairs.append(pair)
            seed += 1
        traced = {"seed": seed}
        for side in sides:
            traced[side] = run_once(sides[side], workload, seed, seconds, trace=1)
            print(f"{workload} seed {seed} {side} traced: {traced[side]}", file=sys.stderr)
        seed += 1
        doc["workloads"][workload] = {
            "pairs": pairs,
            "traced": traced,
            **{side: summary([p[side] for p in pairs], metrics) for side in sides},
            "change_better_pairs": better_pairs(pairs, metrics),
        }
    doc["tier1"] = tier1(sides["change"])
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
