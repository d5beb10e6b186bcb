#!/usr/bin/env python3
"""Benchmark of latticeops verdicts: time to verdict, wrong verdicts, layers.

Run from the root of a checkout (the library is imported from ``src``):

    python3 perfbench/run.py --workload pearson-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process runs one workload with one client in a closed loop: the next
job starts when the previous verdict is in.  Every verdict is checked
against a known answer; a wrong verdict or a raised job counts as +inf in
the latency percentiles, which are Harrell-Davis estimates.  End-to-end times are in reference seconds: each
wall time is rescaled by fixed pure-Python loops timed around it, so the
swings in speed of a shared machine cancel (see ``Speed``).  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  ``--workload all`` runs every workload in its own process and
prints one table.  The last line of standard output is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads as W  # noqa: E402

SETUP_REPS = 11
IMPORT_REPS = 3
# Blocks run untimed before timing starts on workloads with shared caches.
WARM_BLOCKS = 3
OUT_DIR = os.path.join(BENCH_DIR, "out")
# One reference second is a second of a machine on which the reference
# loops take this long (geometric mean); they are timed again at least every
# SPEED_EVERY s.
REFERENCE_S = 3.5e-3
SPEED_EVERY = 0.25
QUANTILE_STEPS = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def harmonic_loop() -> Fraction:
    """Exact sums whose denominators grow to a thousand bits."""
    total = Fraction(0)
    for k in range(1, 700):
        total += Fraction(1, k)
    return total


def recurrence_loop() -> Fraction:
    """Alternating exact products and sums, as in a three-term recurrence."""
    value = Fraction(0)
    for k in range(1, 300):
        value = (value * Fraction(k % 7 + 1, k % 5 + 2) + Fraction(1, k % 9 + 1)) % 7
    return value


REFERENCE_LOOPS = (harmonic_loop, recurrence_loop)


class Speed:
    """The machine's speed over time, as the reference loops' time.

    A shared host runs the same code up to twice as fast in one phase of a
    second or more as in the next.  Timing fixed loops between jobs and
    dividing each job's wall time by their time around it gives a duration
    that depends much less on the phase.  The two loops slow differently in
    different phases, and their geometric mean follows the library's jobs
    more closely than either.
    """

    def __init__(self):
        self.samples = []  # (perf_counter time, loop time)

    def sample(self) -> None:
        log_sum = 0.0
        for loop in REFERENCE_LOOPS:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                loop()
                best = min(best, time.perf_counter() - t0)
            log_sum += math.log(best)
        self.samples.append((time.perf_counter(), math.exp(log_sum / len(REFERENCE_LOOPS))))

    def due(self) -> bool:
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= SPEED_EVERY

    def loop_seconds(self, at: float) -> float:
        """The loops' time at ``at``, interpolated between the samples."""
        xs = self.samples
        if at <= xs[0][0]:
            return xs[0][1]
        for (t0, v0), (t1, v1) in zip(xs, xs[1:]):
            if at <= t1:
                return v0 + (v1 - v0) * (at - t0) / (t1 - t0)
        return xs[-1][1]

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over the interval [t0, t1]."""
        return REFERENCE_S / self.loop_seconds((t0 + t1) / 2)


class Record:
    __slots__ = ("job", "start", "wall", "scaled", "ok", "error")

    def __init__(self, job, start, wall, ok, error):
        self.job, self.start, self.wall, self.ok, self.error = job, start, wall, ok, error
        self.scaled = wall


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, 0 < q < 1.

    A mean of every order statistic, the i-th of n weighted by the mass of
    Beta((n+1)q, (n+1)(1-q)) on [(i-1)/n, i/n].  A Pearson run holds about
    fifty jobs whose times differ a hundredfold, and reading one or two
    order statistics there spreads twice as much across seeds.  Every value
    has a weight, so a single +inf makes the estimate +inf.
    """
    xs = sorted(values)
    n = len(xs)
    if math.isinf(xs[-1]):
        return math.inf
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # Midpoint rule, QUANTILE_STEPS points per order statistic; the weights
    # are normalised, so the rule's error cancels from their sum.
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(QUANTILE_STEPS):
            t = (i + (k + 0.5) / QUANTILE_STEPS) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def verdict_times(records):
    """Per-job times, with +inf for every wrong or raised job."""
    return [r.scaled if r.ok else math.inf for r in records]


def run_jobs(wl, ctx, blocks, seconds: float, speed: Speed = None):
    """Run jobs until ``seconds`` of job time have been measured.

    Only the call into ``wl.run`` is timed; reference answers and checks
    happen outside it.  With ``speed`` the reference loops run between jobs,
    ``seconds`` counts reference seconds, and each record's ``scaled`` time
    is in reference seconds; without it ``scaled`` is the wall time.
    """
    records = []
    busy = 0.0
    for job in (job for block in blocks for job in block):
        wl.prepare(ctx, job)
        if speed is not None and speed.due():
            speed.sample()
        t0 = time.perf_counter()
        try:
            outcome = W.Outcome(value=wl.run(ctx, job))
        except Exception as exc:  # a raised job is a wrong verdict
            outcome = W.Outcome(error=exc)
        wall = time.perf_counter() - t0
        ok = wl.check(job, outcome)
        err = None if outcome.error is None else repr(outcome.error)
        records.append(Record(job, t0, wall, ok, err))
        # Until the next sample, the latest one estimates the scale.
        busy += wall if speed is None else wall * REFERENCE_S / speed.samples[-1][1]
        if busy >= seconds:
            break
    if speed is not None:
        speed.sample()
        for r in records:
            r.scaled = r.wall * speed.scale(r.start, r.start + r.wall)
    return records


def fresh_context(wl, seed: int):
    ctx = wl.setup()
    if wl.warm:
        blocks = wl.blocks(seed)
        for _ in range(WARM_BLOCKS):
            for job in next(blocks):
                wl.run(ctx, job)
    return ctx


def probe_seconds(code: str, reps: int, outside: bool, speed: Speed = None) -> float:
    """Median over ``reps`` fresh interpreters running ``code``.

    The child prints one line when done.  With ``outside`` the time is taken
    by this process from spawn to that line; otherwise the line is the
    child's own measurement.  With ``speed`` each time is in reference
    seconds, scaled by the reference loop timed just before and after.
    """
    samples = []
    for _ in range(reps):
        if speed is not None:
            speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"probe failed: {err.strip()}")
        seconds = t1 - t0 if outside else float(line)
        if speed is not None:
            speed.sample()
            seconds *= speed.scale(t0, t1)
        samples.append(seconds)
    return statistics.median(samples)


def setup_seconds(name: str) -> float:
    """Fresh process until the first job is ready: import, fields, lattices."""
    code = (f"import sys; sys.path.insert(0, {BENCH_DIR!r}); import workloads; "
            f"workloads.WORKLOADS[{name!r}]().setup(); print('ready', flush=True)")
    return probe_seconds(code, SETUP_REPS, outside=True, speed=Speed())


def import_seconds() -> float:
    code = (f"import sys, time; sys.path.insert(0, {W.SRC!r}); t = time.perf_counter(); "
            "import latticeops.cli; print(time.perf_counter() - t, flush=True)")
    return probe_seconds(code, IMPORT_REPS, outside=False)


def peak_rss_mb(name: str) -> float:
    # cli-all does its work in child processes; ru_maxrss is in KiB on Linux.
    who = resource.RUSAGE_CHILDREN if name == "cli-all" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def make_workload(name: str, traced: bool = False):
    if name == "cli-all":
        return W.CliWorkload(in_process=traced)
    return W.WORKLOADS[name]()


def end_to_end(name: str, seed: int, seconds: float):
    setup = setup_seconds(name)
    wl = make_workload(name)
    ctx = fresh_context(wl, seed)
    speed = Speed()
    records = run_jobs(wl, ctx, wl.blocks(seed), seconds, speed)
    loop = statistics.median(v for _, v in speed.samples)
    print(f"reference loops: median {loop * 1e3:.3f} ms over {len(speed.samples)} samples; "
          f"{sum(r.wall for r in records):.2f} s of wall time measured")
    times = verdict_times(records)
    busy = sum(r.scaled for r in records)
    metrics = {
        "setup_s": setup,
        "verdict_s.p50": percentile(times, 0.5),
        "verdict_s.p90": percentile(times, 0.9),
        "verdicts_per_s": sum(r.ok for r in records) / busy,
        "peak_rss_mb": peak_rss_mb(name),
    }
    return records, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer(name: str, seed: int, seconds: float):
    """Untraced jobs, then the same jobs traced from a fresh state.

    Counts and times are per job, so runs of different lengths compare.
    """
    from micro import scalar_metrics
    from spans import SPAN_NAMES, Tracer

    wl = make_workload(name, traced=True)
    # Half the run untraced, so the traced replay fits in the rest.
    untraced = run_jobs(wl, fresh_context(wl, seed), wl.blocks(seed), seconds / 2)
    jobs = [r.job for r in untraced]
    ctx = fresh_context(wl, seed)
    tracer = Tracer()
    with tracer.installed():
        records = run_jobs(wl, ctx, [jobs], math.inf)
    spans, root_s = tracer.summary()
    wall = sum(r.wall for r in records)
    per_job = len(records)

    metrics = {}
    for span in SPAN_NAMES:
        if span == "cli.battery":
            continue
        row = spans.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        metrics[f"{span}.calls"] = (row["calls"] / per_job, "count/job")
        metrics[f"{span}.self_s"] = (row["self_s"] / per_job, "s/job")
        metrics[f"{span}.total_s"] = (row["total_s"] / per_job, "s/job")
    counts = tracer.counts
    mono_calls = spans.get("operators.monomial", {"calls": 0})["calls"]
    distinct = counts["operators.monomial.distinct"]
    metrics["operators.monomial.distinct"] = (distinct / per_job, "count/job")
    metrics["operators.monomial.reuse_ratio"] = (
        1 - distinct / mono_calls if mono_calls else 0.0, "ratio")
    metrics["functionals.moments.built"] = (
        counts["functionals.moments.built"] / per_job, "count/job")
    metrics["functionals.ttrr_oracle.levels"] = (
        counts["functionals.ttrr_oracle.levels"] / per_job, "count/job")

    if name == "cli-all":
        battery = spans["cli.battery"]["self_s"] / per_job
    else:
        battery = battery_self_seconds(seed)
    metrics["cli.battery.self_s"] = (battery, "s")
    metrics["cli.import_s"] = (import_seconds(), "s")
    for key, value in scalar_metrics().items():
        metrics[key] = (value, "ns")
    metrics["trace.overhead_ratio"] = (wall / sum(r.wall for r in untraced), "ratio")
    metrics["trace.coverage"] = (root_s / wall, "ratio")

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.tsv"))
    return untraced + records, metrics


def battery_self_seconds(seed: int) -> float:
    """Self time of ``cli.main(["all", ...])`` run once in this process."""
    from spans import Tracer

    wl = W.CliWorkload(in_process=True)
    ctx = wl.setup()
    job = next(wl.blocks(seed))[0]
    tracer = Tracer()
    with tracer.installed():
        outcome = W.Outcome(value=wl.run(ctx, job))
    if not wl.check(job, outcome):
        raise RuntimeError("the in-process CLI battery did not pass")
    return tracer.summary()[0]["cli.battery"]["self_s"]


def finite(value):
    return value if math.isfinite(value) else None


def result_line(records, metrics) -> str:
    failed = sum(not r.ok for r in records)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": finite(v), "unit": u} for k, (v, u) in metrics.items()},
    })


def print_table(title: str, metrics) -> None:
    print(f"== {title}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<42} {value:>14.6g} {unit}")


def print_checks(records) -> None:
    failed = [r for r in records if not r.ok]
    print(f"  checks: {len(records) - len(failed)} of {len(records)} verdicts correct, "
          f"wrong_verdict_ratio {len(failed) / len(records):.4f}")
    for r in failed[:10]:
        print(f"    wrong: {r.job.kind} {json.dumps(r.job.params)} {r.error or ''}")


def run_all(args) -> int:
    """Every workload in its own process; one table and one summary line."""
    attempted = failed = 0
    merged = {}
    for name in W.WORKLOADS:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"== {name}: failed\n{proc.stderr.strip()}")
            return 1
        print("\n".join(lines[:-1]))
        body = json.loads(lines[-1])
        attempted += body["attempted"]
        failed += body["failed"]
        for key, m in body["metrics"].items():
            merged[f"{name}/{key}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        W.import_library()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot import latticeops from the checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        records, metrics = per_layer(args.workload, args.seed, args.seconds)
    else:
        records, metrics = end_to_end(args.workload, args.seed, args.seconds)
    print_table(f"{args.workload} seed {args.seed} trace {args.trace}", metrics)
    print_checks(records)
    print(result_line(records, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
