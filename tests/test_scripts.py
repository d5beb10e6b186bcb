"""Smoke runs of the scripts under scripts/: each exits 0 and prints its table."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args", [
    ["asymptotics_table.py"],
    ["asymptotics_table.py", "--quadratic"],
    ["raising_construction_scan.py", "--count", "2"],
])
def test_script_runs(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
