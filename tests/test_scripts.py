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
    first CLI command on each backend and the operator images through z^3,
    against `base`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "same_outputs.py"),
                           "--base", str(base), "--jobs", "2", "--seeds", "1",
                           "--max-commands", "1", "--degree", "3"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)


def test_same_outputs_finds_no_difference_against_the_tree_itself(tmp_path):
    proc = same_outputs(ROOT, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("outputs compared, 0 differ")


def test_same_outputs_finds_one_changed_constant(tmp_path):
    """A copy of src/ whose closed C_1 divides by d_2 instead of d_1 differs
    in the closed C_1 of every job, and in nothing else."""
    shutil.copytree(ROOT / "src", tmp_path / "base" / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "base" / "src" / "latticeops" / "classical.py"
    text = path.read_text()
    assert text.count("_checked_d(pair, 1)") == 1
    path.write_text(text.replace("_checked_d(pair, 1)", "_checked_d(pair, 2)"))
    proc = same_outputs(tmp_path / "base", tmp_path)
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
    shutil.copytree(ROOT / "src", tmp_path / "base" / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "base" / "src" / "latticeops" / "lattice.py"
    text = path.read_text()
    assert text.count("DEFAULT_TABLE_HORIZON = 2048") == 1
    path.write_text(text.replace("DEFAULT_TABLE_HORIZON = 2048", "DEFAULT_TABLE_HORIZON = 2047"))
    proc = same_outputs(tmp_path / "base", tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differ = [k for k in proc.stdout.splitlines() if not k.startswith(" ")][:-1]
    assert len(differ) == 2 * 4 * (6 + 7 + 7)
    assert all(k.startswith("lattice ") and k.endswith(("(2048)", "(2049)"))
               for k in differ), differ
    assert not [k for k in differ if "t_pow" in k or '"q": "1"' in k]


def test_same_outputs_finds_a_changed_operator(tmp_path):
    """A copy of src/ whose sx_interp divides by 3, not 2, differs in the
    sx_interp images of z, z^2 and z^3 on the six Pearson lattices, on exact
    and on each bigfloat precision, and in nothing else."""
    shutil.copytree(ROOT / "src", tmp_path / "base" / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "base" / "src" / "latticeops" / "operators.py"
    text = path.read_text()
    old = "(f(zp) + f(zm)) / 2"
    assert text.count(old) == 1
    path.write_text(text.replace(old, "(f(zp) + f(zm)) / 3"))
    proc = same_outputs(tmp_path / "base", tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differ = [k for k in proc.stdout.splitlines() if not k.startswith(" ")][:-1]
    assert len(differ) == 3 * 6 * 3
    assert all(k.startswith("operator ") and k.endswith(("sx_interp(z^1)", "sx_interp(z^2)",
                                                         "sx_interp(z^3)")) for k in differ), differ
