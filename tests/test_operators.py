from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latticeops import (
    OPERATOR_IDENTITIES,
    Lattice,
    Polynomial,
    dx,
    dx_power,
    make_field,
    monomial_action,
    sx,
    tnk,
    verify_operator_identity,
)
from latticeops.checks import random_poly, reference_lattices
from latticeops.lattice import LatticeError
from latticeops.operators import dx_interp, sx_interp

from conftest import identity_lattices

coeff_lists = st.lists(
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9),
    min_size=2,
    max_size=7,
)


class TestFrozenValuesQ4:
    """Hand-checked operator images on the q = 4 symmetric lattice."""

    @pytest.fixture()
    def lat(self, exact):
        return Lattice(exact, 4, (Fraction(1, 2), Fraction(1, 2), 0))

    def test_dx_square(self, lat, exact):
        z2 = Polynomial.monomial(exact, 2)
        assert dx(lat, z2) == Polynomial(exact, (0, Fraction(5, 2)))

    def test_sx_square(self, lat, exact):
        z2 = Polynomial.monomial(exact, 2)
        assert sx(lat, z2) == Polynomial(exact, (Fraction(-9, 16), 0, Fraction(17, 8)))

    def test_dx_linear(self, lat, exact):
        z = Polynomial.monomial(exact, 1)
        assert dx(lat, z) == Polynomial.one(exact)
        assert sx(lat, z) == Polynomial(exact, (0, Fraction(5, 4)))

    def test_leibniz_coefficients(self, lat, exact):
        z = Polynomial.monomial(exact, 1)
        assert tnk(lat, z, 0, 0) == z
        assert tnk(lat, z, 1, 0) == Polynomial(exact, (0, Fraction(4, 5)))
        assert tnk(lat, z, 1, 1) == Polynomial(exact, (Fraction(4, 5),))


def test_sx_square_general_offset(exact):
    lat = Lattice(exact, 4, (Fraction(1, 2), Fraction(1, 2), 0))
    got = sx(lat, Polynomial.monomial(exact, 2))
    # alpha_2 z^2 + hat(u)_2 z + hat(v)_2 with c3 = 0
    act = monomial_action(lat, 2)
    assert got.coeff(2) == act.alpha_n
    assert got.coeff(1) == act.u_hat_n
    assert got.coeff(0) == act.v_hat_n


@pytest.mark.parametrize("idx", range(4))
def test_two_routes_agree(exact, idx):
    """Recurrence-built images match divided-difference interpolation."""
    lat = reference_lattices(exact)[idx]
    rng = random.Random(100 + idx)
    for _ in range(6):
        f = random_poly(exact, rng)
        assert dx(lat, f) == dx_interp(lat, f)
        assert sx(lat, f) == sx_interp(lat, f)


def test_two_routes_agree_bigfloat(big):
    lat = Lattice(big, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    rng = random.Random(7)
    for _ in range(4):
        f = random_poly(big, rng, max_degree=6)
        assert (dx(lat, f) - dx_interp(lat, f)).max_abs_coeff() < 1e-18
        assert (sx(lat, f) - sx_interp(lat, f)).max_abs_coeff() < 1e-18


def test_constant_lattice_reduces_to_derivative(exact):
    lat = Lattice(exact, 1, (0, 0, Fraction(3, 7)))
    f = Polynomial(exact, (1, -2, Fraction(4, 3), 5))
    assert dx(lat, f) == f.derivative()
    assert sx(lat, f) == f


def test_degree_and_leading_coefficient_laws(gen_lattice, exact):
    con = gen_lattice.constants
    for n in range(1, 9):
        f = Polynomial.monomial(exact, n, Fraction(3, 7))
        df, sf = dx(gen_lattice, f), sx(gen_lattice, f)
        assert df.degree == n - 1
        assert sf.degree == n
        assert df.coeff(n - 1) == exact(Fraction(3, 7)) * con.gamma_n(n)
        assert sf.coeff(n) == exact(Fraction(3, 7)) * con.alpha_n(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_monomial_action_closed_forms(gen_lattice, n):
    """Three leading coefficients of D_x z^n and S_x z^n in closed form."""
    act = monomial_action(gen_lattice, n)
    df = dx(gen_lattice, Polynomial.monomial(gen_lattice.field, n))
    sf = sx(gen_lattice, Polynomial.monomial(gen_lattice.field, n))
    assert df.coeff(n - 1) == act.gamma_n
    assert df.coeff(n - 2) == act.u_n
    assert df.coeff(n - 3) == act.v_n
    assert sf.coeff(n) == act.alpha_n
    assert sf.coeff(n - 1) == act.u_hat_n
    assert sf.coeff(n - 2) == act.v_hat_n


def test_monomial_action_not_defined_off_q_lattices(quad_lattice):
    with pytest.raises(LatticeError):
        monomial_action(quad_lattice, 3)


@pytest.mark.parametrize("identity", OPERATOR_IDENTITIES)
@pytest.mark.parametrize("idx", range(8))
def test_identities_exact(exact, identity, idx):
    lat = identity_lattices(exact)[idx]
    rng = random.Random(f"{identity}:{idx}")
    for _ in range(5):
        f, g = random_poly(exact, rng), random_poly(exact, rng)
        rep = verify_operator_identity(lat, identity, f, g, n=rng.randint(1, 4))
        assert rep.passed and rep.residual == 0.0


@pytest.mark.parametrize("identity", OPERATOR_IDENTITIES)
def test_identities_bigfloat(big, identity):
    lat = Lattice(big, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0))
    rng = random.Random(identity)
    f, g = random_poly(big, rng), random_poly(big, rng)
    rep = verify_operator_identity(lat, identity, f, g, n=2)
    assert rep.passed
    assert rep.residual < 1e-25


def test_product_identity_needs_second_polynomial(gen_lattice, exact):
    with pytest.raises(ValueError):
        verify_operator_identity(gen_lattice, "product_dx", Polynomial.one(exact))


def test_unknown_identity_rejected(gen_lattice, exact):
    f = Polynomial.monomial(exact, 2)
    with pytest.raises(ValueError):
        verify_operator_identity(gen_lattice, "chain_rule", f, f)


def test_dx_power_matches_iterated_dx(gen_lattice, exact):
    f = Polynomial(exact, (1, Fraction(-1, 2), 0, 2, Fraction(3, 5)))
    assert dx_power(gen_lattice, f, 3) == dx(
        gen_lattice, dx(gen_lattice, dx(gen_lattice, f))
    )
    assert dx_power(gen_lattice, f, 0) == f


def test_report_serialization(gen_lattice, exact):
    f = Polynomial.monomial(exact, 3)
    rep = verify_operator_identity(gen_lattice, "product_dx", f, f)
    blob = rep.to_json()
    assert blob["name"] == "product_dx"
    assert blob["passed"] is True


@settings(max_examples=25)
@given(coeff_lists, coeff_lists)
def test_product_rules_hypothesis(cf, cg):
    exact = make_field("exact")
    lat = Lattice(exact, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 3), 0))
    f, g = Polynomial(exact, cf), Polynomial(exact, cg)
    for identity in ("product_dx", "product_sx"):
        rep = verify_operator_identity(lat, identity, f, g)
        assert rep.passed


@settings(max_examples=25)
@given(coeff_lists)
def test_linearity_hypothesis(cf):
    exact = make_field("exact")
    lat = Lattice(exact, 9, (2, Fraction(1, 3), Fraction(-1, 7)))
    f = Polynomial(exact, cf)
    g = Polynomial(exact, (Fraction(1, 3), -2, 0, 1))
    lam = exact(Fraction(5, 9))
    assert dx(lat, lam * f + g) == lam * dx(lat, f) + dx(lat, g)
    assert sx(lat, lam * f + g) == lam * sx(lat, f) + sx(lat, g)
