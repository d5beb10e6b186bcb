"""Smoke runs of the scripts under scripts/: each exits 0 and prints its table
(the mutation script only lists its mutants), and the output comparison finds
no difference against its own tree and one planted change in a copy, in the
section that reads it.  The tree is dumped once per session; each copy's
dump is compared with it as ``same_outputs.py --base`` compares two trees."""

from __future__ import annotations

import argparse
import importlib.util
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
