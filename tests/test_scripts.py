"""Smoke runs of the scripts under scripts/: each exits 0 and prints its table
(the mutation script only lists its mutants), and the output comparison finds
no difference against its own tree and one planted change in a copy, in the
section that reads it.  The tree is dumped once per session; each copy's
dump is compared with it as ``same_outputs.py --base`` compares two trees.
The A/B benchmark script summarises synthetic runs, and runs against a stub
``perfbench/run.py`` in a throwaway git repository, never the benchmark."""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args", [
    ["asymptotics_table.py"],
    ["asymptotics_table.py", "--quadratic"],
    ["raising_construction_scan.py", "--count", "2"],
    ["mutants.py", "classical", "scalars", "--list"],
])
def test_script_runs(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


# The smoke size of scripts/same_outputs.py: two Pearson jobs of each
# workload, the first CLI command on each backend and the operator images of
# z^0..z^3 and of the seeded inputs f1..f3.
SMOKE = argparse.Namespace(jobs=2, seeds=[1], max_commands=1, degree=3)


def same_outputs(base, tmp_path):
    """Run scripts/same_outputs.py at the smoke size against `base`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "same_outputs.py"),
                           "--base", str(base), "--jobs", str(SMOKE.jobs),
                           "--seeds", *map(str, SMOKE.seeds), "--max-commands",
                           str(SMOKE.max_commands), "--degree", str(SMOKE.degree)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="session")
def script():
    """scripts/same_outputs.py as a module."""
    path = ROOT / "scripts" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def tree_outputs(script):
    """The smoke-sized outputs of this tree, dumped once for every
    changed-copy test."""
    return script.keyed_outputs(ROOT, SMOKE)


def differ(script, tree_outputs, base):
    """The keys whose outputs differ between `base` and this tree, in the order
    ``same_outputs.py --base`` prints them."""
    return script.differing(script.keyed_outputs(base, SMOKE), tree_outputs)[1]


def changed_copy(tmp_path, module, old, new):
    """A copy of src/ under tmp_path/base whose `module` has its one `old` replaced by `new`."""
    shutil.copytree(ROOT / "src", tmp_path / "base" / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "base" / "src" / "latticeops" / f"{module}.py"
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return tmp_path / "base"


def test_same_outputs_finds_no_difference_against_the_tree_itself(tmp_path):
    proc = same_outputs(ROOT, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("outputs compared, 0 differ")


def test_same_outputs_finds_one_changed_constant(script, tree_outputs, tmp_path):
    """A copy of src/ whose closed C_1 divides by d_2 instead of d_1 differs
    in the closed C_1 of every job, and in nothing else."""
    base = changed_copy(tmp_path, "classical", "_checked_d(pair, 1)", "_checked_d(pair, 2)")
    keys = differ(script, tree_outputs, base)
    assert keys == [f"pearson-{backend} seed 1 job {job} closed C_1"
                      for backend in ("exact", "bigfloat") for job in (0, 1)]


def test_same_outputs_finds_a_changed_lattice_constant(script, tree_outputs, tmp_path):
    """A copy of src/ whose sequence horizon is 2047, not 2048, differs in
    alpha_n, gamma_n, s_n and level_row at n = 2048 (an error, not a value)
    and 2049 (the horizon its error names) on every q-lattice of the lattice
    section, six on exact and seven on each bigfloat precision, and in
    nothing else."""
    base = changed_copy(tmp_path, "lattice", "DEFAULT_TABLE_HORIZON = 2048",
                        "DEFAULT_TABLE_HORIZON = 2047")
    keys = differ(script, tree_outputs, base)
    assert len(keys) == 2 * 4 * (6 + 7 + 7)
    assert all(k.startswith("lattice ") and k.endswith(("(2048)", "(2049)"))
               for k in keys), keys
    assert not [k for k in keys if "t_pow" in k or '"q": "1"' in k]


def test_same_outputs_finds_a_changed_operator(script, tree_outputs, tmp_path):
    """A copy of src/ whose sx_interp divides by 3, not 2, differs in the
    sx_interp images of z, z^2, z^3 and the seeded inputs f1, f2, f3 on the
    eight lattices of the operator section, on exact and on each bigfloat
    precision, and in nothing else."""
    base = changed_copy(tmp_path, "operators", "eval_row(row, zm, zero)) / 2",
                        "eval_row(row, zm, zero)) / 3")
    keys = differ(script, tree_outputs, base)
    assert len(keys) == 6 * 8 * 3
    assert all(k.startswith("operator ") and k.endswith(("sx_interp(z^1)", "sx_interp(z^2)",
                                                         "sx_interp(z^3)", "sx_interp(f1)",
                                                         "sx_interp(f2)", "sx_interp(f3)"))
               for k in keys), keys


def test_same_outputs_finds_a_dropped_q_power(script, tree_outputs, tmp_path):
    """A copy of src/ whose integer Horner in ``eval_row`` drops one power of
    the point's denominator q differs in the dx_interp and sx_interp images of
    z, z^2, z^3, f1, f2 and f3 on the eight lattices of the operator section,
    on exact only (bigfloat takes the scalar loop), and in nothing else."""
    base = changed_copy(tmp_path, "scalars", "Fraction(acc, den * qn)",
                        "Fraction(acc, den * qn // q)")
    keys = differ(script, tree_outputs, base)
    assert len(keys) == 2 * 6 * 8
    assert all(k.startswith("operator --backend exact ") and "_interp(" in k
               and not k.endswith("(z^0)") for k in keys), keys


def test_same_outputs_finds_a_changed_functional_product(script, tree_outputs, tmp_path):
    """A copy of src/ whose scalar ``*`` of a functional adds 1 to every moment
    differs in the 13 moments of the ``*`` functional of both bases (the seeded
    random functional and the README pair's) on the eight lattices of the
    functional section, on exact and on each bigfloat precision, and in
    nothing else."""
    base = changed_copy(tmp_path, "functionals", "lambda k: s * self.moment(k))",
                        "lambda k: s * self.moment(k) + 1)")
    keys = differ(script, tree_outputs, base)
    assert len(keys) == 13 * 2 * 8 * 3
    assert all(k.startswith("functional ") and " * mu_" in k for k in keys), keys


@pytest.fixture(scope="session")
def ab_bench():
    """scripts/ab_bench.py as a module."""
    path = ROOT / "scripts" / "ab_bench.py"
    spec = importlib.util.spec_from_file_location("ab_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_result(rss, p50=0.01):
    """A result line of ``perfbench/run.py`` with these peak RSS and p50."""
    values = {"verdict_s.p50": p50, "verdict_s.p90": 0.03, "verdicts_per_s": 50.0,
              "peak_rss_mb": rss, "setup_s": 0.2}
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}


def test_ab_bench_reports_a_peak_rss_rise_outside_its_bound(ab_bench):
    """Synthetic pairs in which the change's peak RSS is 11% above the
    parent's: that metric is outside its 10% bound, the unchanged ones are
    inside it and tie in every pair, and p50 wins the pairs where it is lower."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rss = [20.0, 21.0, 22.0, 23.0]
    results = [(bench_result(r), bench_result(r * 1.11, p50=0.01 if i % 2 else 0.009))
               for i, r in enumerate(rss)]
    record = ab_bench.workload_record(results, [5, 6, 7, 8], metrics)
    assert record["first_side"] == ["parent", "change", "parent", "change"]
    parent = record["parent"]["peak_rss_mb"]
    assert (parent["median"], parent["q1"], parent["q3"]) == (21.5, 20.75, 22.25)
    comparison = record["comparison"]
    assert comparison["peak_rss_mb"]["change_pct"] == 11.0
    assert comparison["peak_rss_mb"]["inside_bound"] is False
    assert comparison["peak_rss_mb"]["change_better_pairs"] == "0/4"
    assert comparison["verdict_s.p50"]["change_better_pairs"] == "2/4"
    assert comparison["verdict_s.p50"]["change_pct"] == -5.0
    assert all(comparison[m]["inside_bound"] and comparison[m]["change_better_pairs"] == "0/4"
               for m in ("verdict_s.p90", "verdicts_per_s", "setup_s"))
    assert record["parent"]["jobs_failed"] == record["change"]["jobs_failed"] == [0] * 4


STUB_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
values = {{"verdict_s.p50": 0.01, "verdict_s.p90": 0.03, "verdicts_per_s": 50.0,
          "peak_rss_mb": {rss} + seed, "setup_s": 0.2}}
print("== stub")
print(json.dumps({{"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {{k: {{"value": v, "unit": ""}} for k, v in values.items()}}}}))
sys.exit({code})
"""


def stub_repo(tmp_path):
    """A git repository holding this ab_bench.py, BENCHMARK.json and a stub
    perfbench/run.py (peak RSS 20 + seed MB) in its one commit."""
    repo = tmp_path / "repo"
    (repo / "scripts").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    (repo / "src" / "latticeops").mkdir(parents=True)
    (repo / "src" / "latticeops" / "__init__.py").write_text("")
    shutil.copy(ROOT / "scripts" / "ab_bench.py", repo / "scripts")
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    (repo / "perfbench" / "run.py").write_text(STUB_RUN.format(rss=20, code=0))
    git = ["git", "-C", str(repo), "-c", "user.name=stub", "-c", "user.email=stub@stub"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + argv, check=True, capture_output=True)
    return repo


def run_ab_bench(repo, out):
    return subprocess.run([sys.executable, str(repo / "scripts" / "ab_bench.py"), "--base", "HEAD",
                           "--workload", "w1", "w2", "--pairs", "2", "--seconds", "0.1",
                           "--seed-base", "3", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)


def test_ab_bench_smoke_run_on_a_stub_benchmark(tmp_path):
    """Against a stub run.py whose working-tree copy reports 25% more peak
    RSS, two pairs per workload read the seeds 3..6 on both sides and put
    only peak RSS outside its bound; neither tree gains a file."""
    repo = stub_repo(tmp_path)
    (repo / "perfbench" / "run.py").write_text(STUB_RUN.format(rss=25, code=0))
    proc = run_ab_bench(repo, tmp_path / "ab.json")
    assert proc.returncode == 0, proc.stderr
    body = json.loads((tmp_path / "ab.json").read_text())
    assert list(body["end_to_end"]) == ["w1", "w2"] and body["pairs"] == 2
    w2 = body["end_to_end"]["w2"]
    assert w2["seeds"] == [5, 6]
    assert w2["parent"]["peak_rss_mb"]["runs"] == [25.0, 26.0]
    assert w2["change"]["peak_rss_mb"]["runs"] == [30.0, 31.0]
    assert [m for m, c in w2["comparison"].items() if not c["inside_bound"]] == ["peak_rss_mb"]
    status = subprocess.run(["git", "-C", str(repo), "status", "--porcelain"],
                            capture_output=True, text=True, check=True)
    assert status.stdout.split() == ["M", "perfbench/run.py"]


@pytest.mark.parametrize("stub, message", [
    (STUB_RUN.format(rss=20, code=3), "exited 3"),
    ("print('== no result')\n", "printed no result line"),
])
def test_ab_bench_stops_on_a_failed_run(tmp_path, stub, message):
    """A run that exits non-zero or prints no result line stops the script
    with exit 1 and no output file."""
    repo = stub_repo(tmp_path)
    (repo / "perfbench" / "run.py").write_text(stub)
    proc = run_ab_bench(repo, tmp_path / "ab.json")
    assert proc.returncode == 1
    assert message in proc.stderr and not (tmp_path / "ab.json").exists()
