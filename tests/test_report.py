"""Every pass/fail checker returns the one ``Report`` shape, on both backends."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import latticeops
from latticeops import (
    Lattice,
    MomentFunctional,
    OPSequence,
    PearsonPair,
    Polynomial,
    check_meixner_linear,
    check_structure,
    check_system,
    make_family,
    rodrigues_verify,
    verify_functional_identity,
    verify_operator_identity,
)


def gen_lattice(field):
    return Lattice(field, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))


def sym_lattice(field, q):
    return Lattice(field, q, (Fraction(1, 2), Fraction(1, 2), 0))


def operator_identity(field):
    f = Polynomial(field, (1, Fraction(-1, 2), 2))
    return verify_operator_identity(gen_lattice(field), "product_dx", f, f)


def functional_identity(field):
    u = MomentFunctional(field, extender=lambda k: Fraction(1, k + 2))
    f = Polynomial(field, (0, 1))
    return verify_functional_identity(gen_lattice(field), "dual_product_dx", f, u, horizon=6)


def rodrigues(field):
    lat = gen_lattice(field)
    pair = PearsonPair(
        lat,
        Polynomial(field, (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7))),
        Polynomial(field, (Fraction(1, 2), Fraction(3, 4))),
    )
    return rodrigues_verify(pair, 2, horizon=6)


def structure(field):
    lat = sym_lattice(field, Fraction(1, 4))
    cheb = make_family("chebyshev_u", lat, ())
    return check_structure(lat, OPSequence(field, cheb.ttrr), "lower", 4)


def counterexample(field):
    return check_structure(sym_lattice(field, Fraction(1, 16)), None, "counterexample4term", 4)


def meixner(field):
    lat = Lattice(field, 1, (0, 1, 0))
    return check_meixner_linear(lat, Fraction(1, 3), Fraction(2, 5), 4)


def system(field):
    lat = sym_lattice(field, Fraction(1, 4))
    return check_system(lat, make_family("q_hermite", lat, ()).ttrr, 6)


CHECKERS = (operator_identity, functional_identity, rodrigues, structure,
            counterexample, meixner, system)


@pytest.mark.parametrize("backend", ["exact", "big"])
@pytest.mark.parametrize("checker", CHECKERS, ids=lambda c: c.__name__)
def test_every_checker_returns_the_one_report(request, checker, backend):
    field = request.getfixturevalue(backend)
    rep = checker(field)
    assert type(rep) is latticeops.Report
    blob = rep.to_json()
    assert set(blob) == {"name", "residuals", "first_fail", "failing", "passed", "detail"}
    assert blob["passed"] is rep.passed
    assert (rep.failing is None) is rep.passed
    assert rep.residual == max(rep.residuals)
    json.dumps(blob)


def test_failing_system_is_the_failed_report_of_its_check(monkeypatch):
    """q-hermite-lower-and-system keeps ``system_passed`` and reports a failed
    system as its ``failed_report``."""
    from latticeops import checks

    def raised_b3(lat, ttrr, n_max):
        bumped = latticeops.TTRRCoeffs(
            lat.field, lambda n: ttrr.b(n) + (Fraction(1, 10) if n == 3 else 0), ttrr.c)
        return check_system(lat, bumped, n_max)

    monkeypatch.setattr(checks, "check_system", raised_b3)
    record = checks.q_hermite_lower_and_system(0)
    assert record["passed"] is False and record["system_passed"] is False
    assert record["failed_report"]["name"] == "system"
    assert record["failed_report"]["first_fail"] == 2  # eq3
