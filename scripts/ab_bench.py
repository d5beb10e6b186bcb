"""Alternating A/B runs of the benchmark: a git revision against the working tree.

Extracts the base revision with ``git archive`` into a temporary directory,
copies the working tree's ``src/`` and ``perfbench/`` into another, and runs
``perfbench/run.py --workload W --seed s --seconds S --trace 0`` on each
side, one run at a time, K pairs per workload.  Pair i of a workload runs
both sides on one seed, and the base first when i is even; the seeds count
up from ``--seed-base`` over the workloads in the order given.  Each run's
last line of standard output is its JSON result.

The output file holds, per workload, the seeds, which side ran first, each
side's attempted and failed jobs per run and, per end-to-end metric of
``BENCHMARK.json``, each side's runs, median and quartiles
(``statistics.quantiles(n=4, method='inclusive')``), and the comparison:
the change in percent, the pairs the change wins (a tie counts for
neither), the base's IQR, the gap between the medians and whether the
change is inside the metric's bound.  The script decides no claim.  A run
that exits non-zero or prints no result line stops it with exit 1 and no
output file.  It writes nothing in the repository but that file.

    python3 scripts/ab_bench.py --base HEAD --workload pearson-exact identity-structure \\
        --pairs 10 --seconds 45 --seed-base 1 --out ab.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


class RunError(RuntimeError):
    """A benchmark run exited non-zero or printed no result line."""


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one benchmark run in `tree`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RunError(f"{tree.name} {workload} seed {seed} exited {proc.returncode}:"
                       f" {proc.stderr.strip()}")
    try:
        body = json.loads(lines[-1])
    except ValueError:
        body = None
    if not isinstance(body, dict) or "metrics" not in body:
        raise RunError(f"{tree.name} {workload} seed {seed} printed no result line")
    return body


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


def _numbers(runs: list) -> list:
    """A metric's values with the runner's null (a non-finite value) read as +inf."""
    return [math.inf if v is None else v for v in runs]


def summary(runs: list) -> dict:
    """The runs, median and inclusive quartiles of one side's values of a metric."""
    q1, median, q3 = statistics.quantiles(_numbers(runs), n=4, method="inclusive")
    return {"runs": runs, "median": _finite(median), "q1": _finite(q1), "q3": _finite(q3)}


def comparison(parent: list, change: list, better: str, bound: float) -> dict:
    """The change's median against the parent's, pair by pair and against `bound`.

    `better` is "lower" or "higher"; the change is inside its bound when its
    median is worse than the parent's by at most `bound` times the parent's.
    """
    sign = 1 if better == "higher" else -1
    p, c = _numbers(parent), _numbers(change)
    wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
    pm, cm = statistics.median(p), statistics.median(c)
    q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive")
    worse = sign * (pm - cm)
    return {
        "change_pct": _finite(round(100 * (cm - pm) / pm, 2)) if pm else None,
        "change_better_pairs": f"{wins}/{len(p)}",
        "parent_iqr": _finite(q3 - q1),
        "median_gap": _finite(abs(cm - pm)),
        "bound_pct": 100 * bound,
        "inside_bound": worse <= bound * abs(pm),
    }


def workload_record(results: list, seeds: list, metrics: list) -> dict:
    """The record of one workload from its pairs of results (parent, change)."""
    record = {"seeds": seeds,
              "first_side": [SIDES[i % 2] for i in range(len(results))]}
    for k, side in enumerate(SIDES):
        runs = [pair[k] for pair in results]
        record[side] = {"jobs_attempted": [r["attempted"] for r in runs],
                        "jobs_failed": [r["failed"] for r in runs]}
        for m in metrics:
            record[side][m["name"]] = summary([r["metrics"][m["name"]]["value"] for r in runs])
    record["comparison"] = {
        m["name"]: comparison(record["parent"][m["name"]]["runs"],
                              record["change"][m["name"]]["runs"], m["better"], m["bound"])
        for m in metrics
    }
    return record


def measure(trees: dict, args, metrics: list) -> dict:
    """Every workload's record, from alternating pairs of runs in `trees`."""
    out, seed = {}, args.seed_base
    for workload in args.workload:
        results, seeds = [], []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_once(trees[side], workload, seed, args.seconds) for side in order}
            results.append((pair["parent"], pair["change"]))
            seeds.append(seed)
            print(f"{workload} pair {i} seed {seed}: done", file=sys.stderr, flush=True)
            seed += 1
        out[workload] = workload_record(results, seeds, metrics)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 for quartiles")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.base],
                            capture_output=True, text=True)
    if commit.returncode:
        print(f"error: no revision {args.base}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        trees["parent"].mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base,
                                  "src", "perfbench"], capture_output=True)
        if archive.returncode:
            print(f"error: no src/ and perfbench/ at {args.base}", file=sys.stderr)
            return 1
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive.stdout,
                       check=True)
        ignore = shutil.ignore_patterns("__pycache__", "out")
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, trees["change"] / part, ignore=ignore)
        try:
            workloads = measure(trees, args, metrics)
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    body = {"parent_commit": commit.stdout.strip(), "seconds": args.seconds,
            "pairs": args.pairs, "end_to_end": workloads}
    Path(args.out).write_text(json.dumps(body, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
