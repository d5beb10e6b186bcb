from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from latticeops import BackendMismatch, Polynomial, interpolate, make_field
from latticeops.polynomials import newton
from latticeops.scalars import add_rows, mul_coeffs, mul_rows

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


def test_repr_lists_the_nonzero_terms(exact, big):
    p = Polynomial(exact, (Fraction(1, 2), 0, Fraction(-3, 4), exact(0, Fraction(1, 3))))
    assert repr(p) == "Polynomial((1/2)*z^0 + (-3/4)*z^2 + (0+1/3i)*z^3)"
    p = Polynomial(big, (Fraction(1, 2), 0, Fraction(-3, 4)))
    assert repr(p) == "Polynomial((0.5)*z^0 + (-0.75)*z^2)"
    assert repr(Polynomial.zero(exact)) == "Polynomial(0)"


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


def test_coefficient_kernels_match_evaluation(exact):
    f = Polynomial(exact, (2, -1, Fraction(1, 4)))
    g = Polynomial(exact, (Fraction(-1, 2), 0, 0, 3))
    h = Polynomial(exact, (exact(1, 2), Fraction(1, 3)))
    for a, b in ((f, g), (g, f), (f, Polynomial.zero(exact)), (f, h), (h, g)):
        ra, rb = exact.pack(a.coeffs), exact.pack(b.coeffs)
        prod = Polynomial(exact, mul_coeffs(a.coeffs, b.coeffs))
        packed_prod = Polynomial(exact, exact.unpack(mul_rows(ra, rb)))
        packed_total = Polynomial(exact, exact.unpack(add_rows(ra, rb)))
        for z in (0, 1, Fraction(2, 7), Fraction(-9, 4), exact(1, -2)):
            assert prod(z) == packed_prod(z) == (a * b)(z) == a(z) * b(z)
            assert packed_total(z) == (a + b)(z) == a(z) + b(z)


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


def test_row_and_from_row_are_pack_and_unpack(exact, big):
    """``p.row`` is ``field.pack(p.coeffs)`` and ``Polynomial.from_row`` is
    ``Polynomial`` of ``field.unpack``, in value, type and hash: on exact for
    ints, Fractions, a QRational, the zero polynomial, a row with trailing
    zeros and an unreduced row over a denominator > 1, and on bigfloat at
    128 bits by the mpc bits."""
    q = exact(Fraction(1, 3), Fraction(-2, 7))
    polys = [(3, -4, 0, 7), (Fraction(1, 2), Fraction(-5, 12), 0, 7), (q, Fraction(1, 4)),
             (), (0, Fraction(9, 1024))]
    rows = [([3, -4, 0, 7], 1), ([6, -4, 0, 8], 12), ([1, 2, 0, 0], 5), ([], 1), ([0, 0], 3),
            ([q, Fraction(1, 2)], 1), ([Fraction(1, 2), q, 0], 6)]
    for coeffs in polys:
        p = Polynomial(exact, coeffs)
        (got, gden), (want, wden) = p.row, exact.pack(p.coeffs)
        assert (got, gden) == (want, wden) and type(gden) is type(wden)
        assert [type(v) for v in got] == [type(v) for v in want]
        assert hash((*got, gden)) == hash((*want, wden))
        assert Polynomial.from_row(exact, p.row) == p
    for row in rows:
        got, want = Polynomial.from_row(exact, row), Polynomial(exact, exact.unpack(row))
        assert got == want and hash(got) == hash(want)
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    third = big(Fraction(1, 3))
    p = Polynomial(big, (third, big(Fraction(-5, 12), Fraction(2, 3)), 0, 7))
    got, want = p.row, big.pack(p.coeffs)
    assert got[1] == want[1] == 1 and [v._mpc_ for v in got[0]] == [v._mpc_ for v in want[0]]
    for row in (([third, big(2), big(0)], 1), ([big(1), third, big(7)], 3), ([], 1)):
        got, want = Polynomial.from_row(big, row), Polynomial(big, big.unpack(row))
        assert [c._mpc_ for c in got.coeffs] == [c._mpc_ for c in want.coeffs]
        assert got == want and hash(got) == hash(want)


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


@given(coeff_lists, st.integers(min_value=0, max_value=3))
def test_newton_kernel_recovers_a_lower_degree_polynomial(coeffs, extra):
    """Through more nodes than coefficients the top Newton coefficients are
    zero, and the kernel reads only as many nodes as it has values."""
    exact = make_field("exact")
    p = Polynomial(exact, coeffs)
    zs = [exact(Fraction(k * k, 3) + k) for k in range(len(coeffs) + extra + 2)]
    diffs = [[z - w for w in reversed(zs[:i])] for i, z in enumerate(zs)]
    values = [p(z) for z in zs[:len(coeffs) + extra]]
    assert newton(exact, zs, diffs, values) == p
    assert newton(exact, zs, diffs, [exact.zero] * 3) == Polynomial.zero(exact)


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
