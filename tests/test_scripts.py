"""Smoke runs of the scripts under scripts/: each exits 0 and prints its table
(the mutation script only lists its mutants), and the output comparison finds
no difference against its own tree and one changed constant against a copy,
in the section that reads it."""

from __future__ import annotations

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


def same_outputs(base, tmp_path):
    """Run scripts/same_outputs.py on two Pearson jobs of each workload, the
    first CLI command on each backend and the operator images of z^0..z^3 and
    of the seeded inputs f1..f3, against `base`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "same_outputs.py"),
                           "--base", str(base), "--jobs", "2", "--seeds", "1",
                           "--max-commands", "1", "--degree", "3"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)


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


def test_same_outputs_finds_one_changed_constant(tmp_path):
    """A copy of src/ whose closed C_1 divides by d_2 instead of d_1 differs
    in the closed C_1 of every job, and in nothing else."""
    base = changed_copy(tmp_path, "classical", "_checked_d(pair, 1)", "_checked_d(pair, 2)")
    proc = same_outputs(base, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differ = [k for k in proc.stdout.splitlines() if not k.startswith(" ")][:-1]
    assert differ == [f"pearson-{backend} seed 1 job {job} closed C_1"
                      for backend in ("exact", "bigfloat") for job in (0, 1)]


def test_same_outputs_finds_a_changed_lattice_constant(tmp_path):
    """A copy of src/ whose sequence horizon is 2047, not 2048, differs in
    alpha_n, gamma_n, s_n and level_row at n = 2048 (an error, not a value)
    and 2049 (the horizon its error names) on every q-lattice of the lattice
    section, six on exact and seven on each bigfloat precision, and in
    nothing else."""
    base = changed_copy(tmp_path, "lattice", "DEFAULT_TABLE_HORIZON = 2048",
                        "DEFAULT_TABLE_HORIZON = 2047")
    proc = same_outputs(base, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differ = [k for k in proc.stdout.splitlines() if not k.startswith(" ")][:-1]
    assert len(differ) == 2 * 4 * (6 + 7 + 7)
    assert all(k.startswith("lattice ") and k.endswith(("(2048)", "(2049)"))
               for k in differ), differ
    assert not [k for k in differ if "t_pow" in k or '"q": "1"' in k]


def test_same_outputs_finds_a_changed_operator(tmp_path):
    """A copy of src/ whose sx_interp divides by 3, not 2, differs in the
    sx_interp images of z, z^2, z^3 and the seeded inputs f1, f2, f3 on the
    eight lattices of the operator section, on exact and on each bigfloat
    precision, and in nothing else."""
    base = changed_copy(tmp_path, "operators", "eval_row(row, zm, zero)) / 2",
                        "eval_row(row, zm, zero)) / 3")
    proc = same_outputs(base, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differ = [k for k in proc.stdout.splitlines() if not k.startswith(" ")][:-1]
    assert len(differ) == 6 * 8 * 3
    assert all(k.startswith("operator ") and k.endswith(("sx_interp(z^1)", "sx_interp(z^2)",
                                                         "sx_interp(z^3)", "sx_interp(f1)",
                                                         "sx_interp(f2)", "sx_interp(f3)"))
               for k in differ), differ


def test_same_outputs_finds_a_dropped_q_power(tmp_path):
    """A copy of src/ whose integer Horner in ``eval_row`` drops one power of
    the point's denominator q differs in the dx_interp and sx_interp images of
    z, z^2, z^3, f1, f2 and f3 on the eight lattices of the operator section,
    on exact only (bigfloat takes the scalar loop), and in nothing else."""
    base = changed_copy(tmp_path, "scalars", "Fraction(acc, den * qn)",
                        "Fraction(acc, den * qn // q)")
    proc = same_outputs(base, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differ = [k for k in proc.stdout.splitlines() if not k.startswith(" ")][:-1]
    assert len(differ) == 2 * 6 * 8
    assert all(k.startswith("operator --backend exact ") and "_interp(" in k
               and not k.endswith("(z^0)") for k in differ), differ
