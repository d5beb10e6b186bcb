from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from latticeops import BackendMismatch, Polynomial, interpolate, make_field
from latticeops.polynomials import add_coeffs, mul_coeffs

coeff = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9
)
coeff_lists = st.lists(coeff, min_size=1, max_size=6)


def test_trailing_zeros_trimmed(exact):
    p = Polynomial(exact, (1, 2, 0, 0))
    assert p.degree == 1
    assert p.coeffs == (exact(1), exact(2))


def test_degree_sentinel_for_zero(exact):
    assert Polynomial.zero(exact).degree == -1
    assert Polynomial(exact, (0, 0)).degree == -1


def test_coeff_out_of_range(exact):
    p = Polynomial(exact, (3, 5))
    assert p.coeff(7) == exact.zero


def test_evaluation_matches_direct_sum(exact):
    p = Polynomial(exact, (Fraction(1, 2), -2, 0, Fraction(3, 7)))
    z = exact(Fraction(5, 3))
    direct = sum(
        (p.coeff(k) * z**k for k in range(p.degree + 1)), exact.zero
    )
    assert p(z) == direct


def test_ring_operations(exact):
    f = Polynomial(exact, (1, 0, Fraction(1, 3)))
    g = Polynomial(exact, (-2, 5))
    z = exact(Fraction(7, 11))
    assert (f + g)(z) == f(z) + g(z)
    assert (f - g)(z) == f(z) - g(z)
    assert (f * g)(z) == f(z) * g(z)
    assert (f**3)(z) == f(z) ** 3


def test_divmod_reconstructs(exact):
    f = Polynomial(exact, (1, -2, 0, Fraction(4, 5), 3))
    g = Polynomial(exact, (Fraction(1, 2), 0, 1))
    quot, rem = divmod(f, g)
    assert quot * g + rem == f
    assert rem.degree < g.degree


def test_divide_by_zero_poly(exact):
    f = Polynomial(exact, (1, 1))
    with pytest.raises(ZeroDivisionError):
        divmod(f, Polynomial.zero(exact))


def test_coefficient_kernels_match_evaluation(exact):
    f = Polynomial(exact, (2, -1, Fraction(1, 4)))
    g = Polynomial(exact, (Fraction(-1, 2), 0, 0, 3))
    for a, b in ((f, g), (g, f), (f, Polynomial.zero(exact))):
        prod = Polynomial(exact, mul_coeffs(a.coeffs, b.coeffs))
        total = Polynomial(exact, add_coeffs(a.coeffs, b.coeffs))
        for z in (0, 1, Fraction(2, 7), Fraction(-9, 4), exact(1, -2)):
            assert prod(z) == (a * b)(z) == a(z) * b(z)
            assert total(z) == (a + b)(z) == a(z) + b(z)


def test_derivative(exact):
    f = Polynomial(exact, (5, 4, 3, 2))
    assert f.derivative() == Polynomial(exact, (4, 6, 6))
    assert Polynomial(exact, (7,)).derivative().degree == -1


def test_immutable(exact):
    p = Polynomial(exact, (1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_cross_backend_rejected(exact):
    other = make_field("bigfloat")
    p = Polynomial(exact, (1, 2))
    q = Polynomial(other, (1, 2))
    with pytest.raises(BackendMismatch):
        p + q


def test_json_roundtrip(exact, big):
    for field in (exact, big):
        p = Polynomial(field, (Fraction(1, 3), 0, Fraction(-7, 2)))
        q = Polynomial.from_json(field, p.to_json())
        assert (p - q).max_abs_coeff() < 1e-30


def test_interpolate_recovers_values(exact):
    pts = [(exact(k), exact(k * k - 3)) for k in range(4)]
    p = interpolate(exact, pts)
    assert p == Polynomial(exact, (-3, 0, 1))


def test_interpolate_duplicate_nodes_rejected(exact):
    pts = [(exact(1), exact(0)), (exact(1), exact(2))]
    with pytest.raises(ValueError):
        interpolate(exact, pts)


@given(coeff_lists)
def test_interpolation_roundtrip(coeffs):
    exact = make_field("exact")
    p = Polynomial(exact, coeffs)
    nodes = [exact(Fraction(k, 2)) for k in range(len(coeffs))]
    rebuilt = interpolate(exact, [(z, p(z)) for z in nodes])
    assert rebuilt == p


@given(coeff_lists, coeff_lists)
def test_product_degree_and_evaluation(cf, cg):
    exact = make_field("exact")
    f, g = Polynomial(exact, cf), Polynomial(exact, cg)
    h = f * g
    if f.degree >= 0 and g.degree >= 0:
        assert h.degree == f.degree + g.degree
    z = exact(Fraction(3, 4))
    assert h(z) == f(z) * g(z)
