"""Tests of the benchmark itself: inputs, known answers, percentiles, tracing.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

L = W.import_library()


def _first_blocks(name, seed, count=3):
    blocks = W.WORKLOADS[name]().blocks(seed)
    return [[(j.kind, j.params) for j in next(blocks)] for _ in range(count)]


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_one_seed_always_generates_the_same_inputs(name):
    assert _first_blocks(name, 7) == _first_blocks(name, 7)
    assert _first_blocks(name, 7) != _first_blocks(name, 8)


def test_a_pearson_round_holds_the_same_slots_whatever_the_seed():
    slots = W.pearson_slots(8, 28)
    assert {n for _, n, _ in slots} == set(range(8, 29))
    assert sorted(li for li, _, _ in slots) == sorted(list(range(6)) * 6)
    assert len(set(slots)) == 36
    for row in range(6):
        assert sorted(li for li, _, _ in slots[6 * row:6 * row + 6]) == list(range(6))
    for seed in (3, 4):
        block = _first_blocks("pearson-exact", seed, count=1)[0]
        assert [(json.loads(p["lattice"]), p["N"], kind) for kind, p in block] == [
            (W.PEARSON_LATTICES[li], n, kind) for li, n, kind in slots]
    kinds = [kind for _, _, kind in slots]
    assert kinds.count("admissibility") == kinds.count("witness") == 3


def _small_pearson_jobs(kinds=("regular", "admissibility", "witness")):
    jobs = []
    for block in W.pearson_inputs(11, 8, 9):
        jobs += [j for j in block if j.kind in kinds]
        if {j.kind for j in jobs} >= set(kinds):
            return jobs


def test_known_answers_pass_on_the_library_as_it_is():
    wl = W.WORKLOADS["pearson-exact"]()
    records = run.run_jobs(wl, wl.setup(), [_small_pearson_jobs()], math.inf)
    assert records and all(r.ok for r in records)


class CorruptedB(W.PearsonWorkload):
    """Adds 1 to the closed-form B_1 before the check sees it."""

    def run(self, ctx, job):
        out = super().run(ctx, job)
        bs, _ = out["closed"]
        bs[1] = bs[1] + 1
        return out


def test_a_corrupted_b_n_is_counted_as_a_wrong_verdict():
    wl = CorruptedB("pearson-exact", "exact", 8, 9)
    records = run.run_jobs(wl, wl.setup(), [_small_pearson_jobs(("regular",))], math.inf)
    assert records and not any(r.ok for r in records)
    assert run.percentile(run.verdict_times(records), 0.5) == math.inf


class Raising(W.IdentityWorkload):
    """Every third job raises."""

    calls = 0

    def run(self, ctx, job):
        self.calls += 1
        if self.calls % 3 == 0:
            raise ArithmeticError("injected")
        return super().run(ctx, job)


def test_a_raised_job_counts_as_inf_in_the_percentiles():
    wl = Raising()
    records = run.run_jobs(wl, wl.setup(), [next(wl.blocks(1))], math.inf)
    raised = [r for r in records if r.error]
    assert raised and all(not r.ok for r in raised)
    assert all("injected" in r.error for r in raised)
    times = run.verdict_times(records)
    assert times.count(math.inf) == len(raised)
    # Every job weighs in the Harrell-Davis estimate, so both read +inf.
    assert run.percentile(times, 0.9) == math.inf
    assert run.percentile(times, 0.5) == math.inf
    assert math.isfinite(run.percentile([t for t in times if math.isfinite(t)], 0.5))


def test_percentile_is_the_harrell_davis_estimate():
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert run.percentile([7.0] * 40, 0.9) == pytest.approx(7.0)
    # For n = 3 and q = 1/2 the weights are the masses of Beta(2, 2) on
    # [0, 1/3], [1/3, 2/3] and [2/3, 1]: 7/27, 13/27 and 7/27.
    assert run.percentile([1.0, 2.0, 10.0], 0.5) == pytest.approx(
        (7 * 1.0 + 13 * 2.0 + 7 * 10.0) / 27, rel=1e-3)
    xs = [float(k * k) for k in range(1, 60)]
    assert run.percentile(xs, 0.5) < run.percentile(xs, 0.9) < xs[-1]
    assert run.percentile([1.0, 2.0, math.inf], 0.1) == math.inf


def test_speed_interpolates_the_reference_loop_between_samples():
    speed = run.Speed()
    speed.samples = [(10.0, 2e-3), (12.0, 4e-3)]
    assert speed.loop_seconds(9.0) == 2e-3
    assert speed.loop_seconds(11.0) == pytest.approx(3e-3)
    assert speed.loop_seconds(13.0) == 4e-3
    # A job over [10.5, 11.5] ran while the loop took 3 ms.
    assert speed.scale(10.5, 11.5) == pytest.approx(run.REFERENCE_S / 3e-3)


def test_jobs_timed_with_speed_are_in_reference_seconds():
    wl = W.IdentityWorkload()
    speed = run.Speed()
    records = run.run_jobs(wl, wl.setup(), [next(wl.blocks(4))], math.inf, speed)
    assert all(r.ok for r in records)
    # Sampled before the first job and after the last one.
    assert speed.samples[0][0] <= records[0].start
    assert speed.samples[-1][0] >= records[-1].start + records[-1].wall
    for r in records:
        assert r.scaled == pytest.approx(r.wall * speed.scale(r.start, r.start + r.wall))


def _snapshot():
    """Identity of every attribute of every latticeops module and class."""
    out = {}
    for mod in spans.library_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = id(cvalue)
    return out


def test_wrappers_patch_every_lookup_site_and_leave_latticeops_unpatched():
    import latticeops.characterize as characterize
    import latticeops.cli as cli
    import latticeops.operators as operators

    before = _snapshot()
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert characterize.dx is operators.dx is L.dx
            assert cli.ttrr_oracle is L.functionals.ttrr_oracle is L.ttrr_oracle
            assert hasattr(L.Polynomial.__mul__, "__wrapped_original__")
            assert L.Polynomial.__rmul__ is L.Polynomial.__mul__
            wl = W.IdentityWorkload()
            run.run_jobs(wl, wl.setup(), [next(wl.blocks(2))], math.inf)
            1 / 0
    assert _snapshot() == before
    assert not hasattr(operators.dx, "__wrapped_original__")
    summary, root_s = tracer.summary()
    assert summary["polynomials.mul"]["calls"] > 0
    assert root_s > 0


def test_traced_pearson_job_covers_its_wall_time_and_counts_levels():
    wl = W.WORKLOADS["pearson-exact"]()
    ctx = wl.setup()
    jobs = _small_pearson_jobs(("regular",))[:1]
    tracer = spans.Tracer()
    with tracer.installed():
        records = run.run_jobs(wl, ctx, [jobs], math.inf)
    assert records[0].ok
    summary, root_s = tracer.summary()
    assert root_s / records[0].wall > 0.9
    n = jobs[0].params["N"]
    assert tracer.counts["functionals.ttrr_oracle.levels"] == n + 1
    assert tracer.counts["functionals.moments.built"] == 2 * n + 3
    assert summary["lattice.build"]["calls"] == 1
    for name in ("classical.regularity", "classical.ttrr_closed",
                 "functionals.moments", "functionals.ttrr_oracle"):
        assert summary[name]["total_s"] >= summary[name]["self_s"] > 0


def test_scalar_micro_run_reports_positive_times():
    from micro import scalar_metrics

    metrics = scalar_metrics()
    assert set(metrics) == {
        "scalars.exact_mul_ns", "scalars.exact_add_ns", "scalars.exact_div_ns",
        "scalars.bigfloat_mul_ns", "scalars.bigfloat_add_ns"}
    assert all(v > 0 for v in metrics.values())
