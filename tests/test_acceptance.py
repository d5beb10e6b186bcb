"""End-to-end acceptance battery: the named checks of ``latticeops.checks`` at seed 0.

Each headline guarantee is stated once, in the docstring and body of its
check in the registry that ``latticeops all`` runs, with its size,
tolerance and precision.  Every check must pass; the named tests below read
a check's verdict record (computed once per pytest run by
``conftest.run_check``), pin the figures its claim names and bound the wall
time where the claim states one.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import conftest
from conftest import run_check
from latticeops import Lattice, checks
from latticeops.checks import CHECKS


@pytest.mark.parametrize("name", [name for name, _ in CHECKS])
def test_check_passes(name):
    record, _ = run_check(name, 0)
    assert record["passed"], record


def record_of(name: str) -> dict:
    return run_check(name, 0)[0]


def test_operator_identities_randomized():
    record, seconds = run_check("operator-identities", 0)
    assert record["residual"] == 0.0
    assert record["bigfloat_residual"] < 1e-25
    assert seconds < 30.0


def test_moment_side_leibniz_rules():
    assert record_of("functional-identities")["residual"] == 0.0


def test_closed_recurrence_matches_moment_oracle():
    record = record_of("oracle-equivalence")
    assert record["pairs"] == 46 and record["residual"] == 0.0


def test_closed_recurrence_matches_moment_oracle_through_n20():
    record = record_of("oracle-equivalence")
    assert record["pearson_pairs"] == 6 and record["pearson_n_max"] == 20
    assert record["pearson_residual"] == 0.0


def test_regularity_biconditional():
    record = record_of("regularity-biconditional")
    assert record["verdict"] == "zero-witness-at-2"
    assert record["oracle_zero_level"] <= 3
    assert record["regular_pairs_with_zero_norm"] == []


def test_rodrigues_representation():
    assert record_of("rodrigues")["residual"] == 0.0


def test_raising_construction_coincides_with_askey_wilson_and_raises():
    """The symbolic certificate (q, C_1, B_0 and the offset c3 symbolic) is in
    test_characterize.py."""
    record = record_of("raising-construction-consistency")
    assert record["askey_wilson_residual"] < 1e-25
    assert record["residual"] == 0.0
    assert record["first_fails"] == [3, 4, 3]
    assert record["sx_raise_residuals"][:3] == [0.0, 0.0, 0.0]


def test_q_hermite_lowering_and_chebyshev_contrast():
    record = record_of("q-hermite-lower-and-system")
    assert record["residual"] == 0.0 and record["system_passed"]
    record = record_of("chebyshev-lower-fails-system-passes")
    assert record["lower_first_fail"] == 2 and record["system_passed"]


def test_four_term_counterexample_data():
    assert record_of("counterexample-4term")["residual"] < 1e-25


def test_meixner_image_raising_dichotomy():
    record = record_of("raising-linear-vs-quadratic")
    assert record["linear_first_fail"] is None
    assert record["quadratic_first_fail"] <= 3


def test_recurrence_asymptotics():
    record, seconds = run_check("asymptotics", 0)
    assert record["ratio_error"] < 1e-6 and record["series_error"] < 1e-6
    assert all(err < 1e-2 for pair in record["growth_errors"] for err in pair)
    assert seconds < 60.0


def test_the_three_pearson_lattice_lists_agree(exact, monkeypatch):
    """``checks``, the tests and the benchmark's workloads each spell out the
    six Pearson lattices; all three are the same lattices in the same order."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    from_checks = [Lattice(exact, q, c).to_json() for q, c in checks.PEARSON_LATTICES]
    assert len(from_checks) == 6
    for specs in (conftest.PEARSON_LATTICES, workloads.PEARSON_LATTICES):
        assert [Lattice.from_json(exact, s).to_json() for s in specs] == from_checks
