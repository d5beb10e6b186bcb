from __future__ import annotations

import functools
import gc
import math
import random
import weakref
from fractions import Fraction
from itertools import zip_longest

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
    operators,
    sx,
    tnk,
    verify_operator_identity,
)
from latticeops.checks import random_poly, reference_lattices
from latticeops.lattice import LatticeError
from latticeops.operators import (
    _nodes,
    dx_interp,
    dx_monomial,
    monomial_rows,
    product_rule_step,
    sx_interp,
    sx_monomial,
)
from latticeops.polynomials import interpolate, newton

from conftest import EVERY_KIND, PEARSON_LATTICES, gaussian_lattices, identity_lattices, readme_pair

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


def _tnk_by_recursion(lat, f, n, k):
    """T_{n,k} f from its defining recursion, read off the operator docstring."""
    if k < 0 or k > n:
        return Polynomial.zero(lat.field)
    if n == 0:
        return f
    con = lat.constants
    same = _tnk_by_recursion(lat, f, n - 1, k)
    down = _tnk_by_recursion(lat, f, n - 1, k - 1)
    return (sx(lat, same)
            - (con.gamma_n(n - k) / con.alpha_n(n - k)) * (lat.u1() * dx(lat, same))
            + (lat.field.one / con.alpha_n(n + 1 - k)) * dx(lat, down))


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
def test_leibniz_coefficients_follow_their_recursion(backend):
    """tnk equals the recursion for n <= 4 and every k, bit for bit on 128 bits."""
    field = make_field(backend, precision=128)
    lat = Lattice(field, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    f = Polynomial(field, (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7), Fraction(1, 9)))
    for n in range(5):
        for k in range(-1, n + 2):
            assert tnk(lat, f, n, k).coeffs == _tnk_by_recursion(lat, f, n, k).coeffs, (n, k)


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


@pytest.mark.parametrize("idx", range(3))
def test_two_routes_agree_on_gaussian_coefficients(exact, idx):
    """Gaussian-rational coefficients with zero interior ones, so the packed
    sums in dx and sx mix int rows with rows of Gaussian rationals."""
    lat = gaussian_lattices(exact)[idx]
    f = Polynomial(exact, (exact(Fraction(1, 2), Fraction(-1, 3)), 0, Fraction(2, 7), 0,
                           exact(3, Fraction(1, 5))))
    df, sf = dx(lat, f), sx(lat, f)
    assert df == dx_interp(lat, f) and df.degree == 3
    assert sf == sx_interp(lat, f) and sf.degree == 4


@pytest.mark.parametrize("idx", range(len(PEARSON_LATTICES)))
def test_monomial_images_match_interpolation(exact, idx):
    """High-degree rows of the packed image tables, unpacked, against divided differences of z^n."""
    lat = Lattice.from_json(exact, PEARSON_LATTICES[idx])
    for n in (17, 29, 41):
        zn = Polynomial.monomial(exact, n)
        assert dx_monomial(lat, n) == dx_interp(lat, zn)
        assert sx_monomial(lat, n) == sx_interp(lat, zn)


def seeded_lattices(field):
    return (reference_lattices(field) + gaussian_lattices(field)
            + [Lattice(field, q, c) for q, c in EVERY_KIND.values()])


def seeded_rows(lat, phi, psi, top):
    """(G_n, H_n) for n = 0..top, stepped by product_rule_step from the seed (psi, phi)."""
    field = lat.field
    rows = field.pack(psi.coeffs), field.pack(phi.coeffs)
    out = []
    for n in range(top + 1):
        if n:
            rows = product_rule_step(lat, rows)
        out.append(tuple(Polynomial(field, field.unpack(r)) for r in rows))
    return out


def pearson_images(lat, phi, psi, d, s):
    """phi D + psi S and phi S + psi U2 D, for the images D, S of one monomial."""
    return phi * d + psi * s, phi * s + psi * (lat.u2() * d)


@functools.cache
def exact_pearson_images(idx):
    """The coefficients of pearson_images of the README pair for n = 0..40 on
    seeded lattice idx, from the unpacked rows of the exact tables."""
    field = make_field("exact")
    lat = seeded_lattices(field)[idx]
    pair = readme_pair(lat)
    out = []
    for n in range(41):
        d, s = (Polynomial(field, field.unpack(r)) for r in monomial_rows(lat, n))
        out.append(tuple(p.coeffs for p in pearson_images(lat, pair.phi, pair.psi, d, s)))
    return out


@pytest.mark.parametrize("idx", range(11))
def test_seeded_step_gives_the_pearson_rows(exact, idx):
    """G_n = phi D_x z^n + psi S_x z^n and H_n = phi S_x z^n + psi U2 D_x z^n through n = 40."""
    pair = readme_pair(seeded_lattices(exact)[idx])
    got = seeded_rows(pair.lattice, pair.phi, pair.psi, 40)
    assert [(g.coeffs, h.coeffs) for g, h in got] == exact_pearson_images(idx)


@pytest.mark.parametrize("precision", [128, 256])
@pytest.mark.parametrize("idx", range(11))
def test_seeded_step_gives_the_pearson_rows_bigfloat(precision, idx):
    """The bigfloat G_n and H_n through n = 40 against the exact images,
    by approx_eq on every coefficient."""
    field = make_field("bigfloat", precision=precision)
    pair = readme_pair(seeded_lattices(field)[idx])
    got = seeded_rows(pair.lattice, pair.phi, pair.psi, 40)
    for n, (rows, want) in enumerate(zip(got, exact_pearson_images(idx))):
        for a, b in zip(rows, want):
            assert all(field.approx_eq(x, y) for x, y in
                       zip_longest(a.coeffs, b, fillvalue=0)), n


@pytest.mark.parametrize("idx", range(11))
def test_seeded_step_matches_interpolation(exact, idx):
    """The same G_n and H_n against the divided-difference images of z^n.

    Interpolation costs about n^3 big-integer steps per degree, so this
    route samples n; the table route above covers every n <= 40.
    """
    lat = seeded_lattices(exact)[idx]
    pair = readme_pair(lat)
    rows = seeded_rows(lat, pair.phi, pair.psi, 13)
    for n in (0, 1, 2, 3, 5, 8, 13):
        zn = Polynomial.monomial(exact, n)
        d, s = dx_interp(lat, zn), sx_interp(lat, zn)
        assert rows[n] == pearson_images(lat, pair.phi, pair.psi, d, s), n


def test_bigfloat_dx_sx_never_format_polynomials(big, monkeypatch):
    """dx and sx never hand a Polynomial to an mpmath operation.

    If one did, mpmath would try to convert the Polynomial first and
    format it with repr for its error message before Python falls back;
    dx and sx multiply packed rows of scalars and build one Polynomial.
    """
    lat = Lattice(big, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    f = Polynomial(big, (1, Fraction(-1, 2), Fraction(2, 3), 0, 3, Fraction(3, 5)))
    expected = dx(lat, f), sx(lat, f)

    def refuse(self):
        raise AssertionError("Polynomial.__repr__ was called")

    monkeypatch.setattr(Polynomial, "__repr__", refuse)
    assert (dx(lat, f), sx(lat, f)) == expected
    assert expected[0].degree == 4 and expected[1].degree == 5


def test_two_routes_agree_bigfloat(big):
    lat = Lattice(big, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    rng = random.Random(7)
    for _ in range(4):
        f = random_poly(big, rng, max_degree=6)
        assert (dx(lat, f) - dx_interp(lat, f)).max_abs_coeff() < 1e-18
        assert (sx(lat, f) - sx_interp(lat, f)).max_abs_coeff() < 1e-18


HALF = Fraction(1, 2)


def scan_nodes(lat, m):
    """The first m usable nodes (z, x(s + 1/2), x(s - 1/2)) of a fresh scan of
    ``node_stream``, or None where that scan gives up: after the first stream
    entry past s = 4m + 8."""
    out = []
    for s, z in lat.node_stream():
        zp, zm = lat.x(s + HALF), lat.x(s - HALF)
        if zp - zm != 0:
            out.append((z, zp, zm))
            if len(out) == m:
                return out
        if s > 4 * m + 8:
            return None


def table_nodes(lat, m):
    t = _nodes(lat, m)
    return [(z, zp, zm) for z, (zp, zm, _) in zip(t.zs[:m], t.ends[:m])]


def dx_by_scan(lat, f):
    """D_x f through a fresh node scan and ``interpolate``, with no node table."""
    pts = [(z, (f(zp) - f(zm)) / (zp - zm)) for z, zp, zm in scan_nodes(lat, f.degree)]
    return interpolate(lat.field, pts)


def sx_by_scan(lat, f):
    """S_x f through a fresh node scan and ``interpolate``, with no node table."""
    pts = [(z, (f(zp) + f(zm)) / 2) for z, zp, zm in scan_nodes(lat, f.degree + 1)]
    return interpolate(lat.field, pts)


def same_values(a, b):
    """Equal exact values of one type each, or identical bigfloat values."""
    a, b = list(a), list(b)
    return (a == b and [type(v) for v in a] == [type(v) for v in b]
            and [repr(v) for v in a] == [repr(v) for v in b])


def node_lattices(field):
    return identity_lattices(field) + gaussian_lattices(field) + [
        Lattice(field, q, c) for name, (q, c) in EVERY_KIND.items() if name != "const"]


@pytest.mark.parametrize("bits", [None, 128, 256])
def test_node_table_rows_are_a_fresh_node_scan(bits):
    """Each row of the node table is the node a fresh ``node_stream`` scan
    finds, with its step x(s + 1/2) - x(s - 1/2) and its differences to the
    nodes before it."""
    field = make_field("exact") if bits is None else make_field("bigfloat", precision=bits)
    for lat in node_lattices(field):
        for m in (1, 5, 17):
            assert table_nodes(lat, m) == scan_nodes(lat, m), (lat, m)
        t = _nodes(lat, 17)
        for i, z in enumerate(t.zs):
            zp, zm, h = t.ends[i]
            assert same_values([h], [zp - zm])
            assert same_values(t.diffs[i], [z - w for w in reversed(t.zs[:i])])


@pytest.mark.parametrize("bits", [None, 128])
def test_node_table_growth_order_does_not_matter(bits):
    """m = 12 then m = 3 gives the nodes, differences and images of m = 3 then m = 12."""
    field = make_field("exact") if bits is None else make_field("bigfloat", precision=bits)
    rng = random.Random(31)
    polys = {m: random_poly(field, rng, degree=m) for m in (2, 3, 11, 12)}

    def ask(lat, m):
        t = _nodes(lat, m)
        return (table_nodes(lat, m), t.diffs[:m], dx_interp(lat, polys[m]).coeffs,
                sx_interp(lat, polys[m - 1]).coeffs)

    for down, up in zip(node_lattices(field), node_lattices(field)):
        got_down = {m: ask(down, m) for m in (12, 3)}
        got_up = {m: ask(up, m) for m in (3, 12)}
        for m in (3, 12):
            for a, b in zip(got_down[m], got_up[m]):
                assert repr(a) == repr(b), (down, m)
                assert a == b


class GappedLattice(Lattice):
    """x(s) = |s - 39| at integer s, so s = 40..78 repeat earlier values, and
    x(s + 1/2) = x(s - 1/2) except at s in 0..2 and s >= 30: its usable
    nodes are s = 0, 1, 2, 30..39, 79, 80, ..."""

    def __init__(self, field):
        super().__init__(field, 1, (0, 1, 0))

    def x(self, s):
        s = Fraction(s)
        if s.denominator == 1:
            return self.field(abs(s - 39))
        return self.field(sum(1 for u in range(math.ceil(s)) if u < 3 or u >= 30))


def test_node_table_keeps_the_scan_budget(exact):
    """The table fails where a fresh scan gives up after s = 4m + 8, in any
    order of asking: m = 4 and 5 fail in the gap, m = 6 reaches s = 32,
    m = 14 reaches s = 79 across the 39 repeated values, and m = 15..18
    fail because their last node follows an s past 4m + 8, also once
    m = 25 has put that node in the table."""
    expected = {m: scan_nodes(GappedLattice(exact), m) for m in range(1, 26)}
    assert [m for m, nodes in expected.items() if nodes is None] == [4, 5, 15, 16, 17, 18]
    assert expected[14][-1][0] == exact(40)
    for order in (range(1, 26), range(25, 0, -1), (25, 16, 6, 4, 14, 5, 3, 1)):
        lat = GappedLattice(exact)
        for m in order:
            if expected[m] is None:
                with pytest.raises(LatticeError, match="could not find"):
                    _nodes(lat, m)
            else:
                assert table_nodes(lat, m) == expected[m], (order, m)


def test_interpolation_asks_for_as_many_nodes_as_the_degree_needs(exact):
    """dx_interp of degree m and sx_interp of degree m - 1 read m nodes, and
    the table grows only as far as asked: on the gapped lattice, with three
    usable nodes before its gap, degree 3 works for D_x, degree 2 for S_x."""
    lat = GappedLattice(exact)
    f = Polynomial(exact, (1, Fraction(-1, 2), Fraction(2, 3), Fraction(3, 5)))
    g = Polynomial(exact, (Fraction(1, 3), 2, Fraction(-5, 7)))
    assert len(_nodes(lat, 2).zs) == 2
    assert (dx_interp(lat, f), sx_interp(lat, g)) == (dx_by_scan(lat, f), sx_by_scan(lat, g))
    assert len(_nodes(lat, 3).zs) == 3
    with pytest.raises(LatticeError, match="could not find 4 usable operator nodes"):
        dx_interp(lat, f * Polynomial.monomial(exact, 1))
    with pytest.raises(LatticeError, match="could not find 4 usable operator nodes"):
        sx_interp(lat, f)


@pytest.mark.parametrize("bits", [None, 128, 256])
def test_newton_kernel_is_interpolate_on_the_table(bits):
    """The kernel over the table's differences against ``interpolate`` on the
    same points, which forms its own; and dx_interp and sx_interp against
    a fresh node scan and ``interpolate``: equal exact values of one type,
    identical bigfloat values."""
    field = make_field("exact") if bits is None else make_field("bigfloat", precision=bits)
    rng = random.Random(7)
    for lat in node_lattices(field):
        t = _nodes(lat, 12)
        values = [field(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(12)]
        for n in (1, 2, 7, 12):
            got = newton(field, t.zs, t.diffs, values[:n])
            assert same_values(got.coeffs, interpolate(field, list(zip(t.zs, values[:n]))).coeffs)
        for degree in (1, 4, 11):
            f = random_poly(field, rng, degree=degree)
            assert same_values(dx_interp(lat, f).coeffs, dx_by_scan(lat, f).coeffs), lat
            assert same_values(sx_interp(lat, f).coeffs, sx_by_scan(lat, f).coeffs), lat


def benchmark_lattices(field):
    """The five lattices of the identity-structure benchmark workload: the four
    reference lattices and the symmetric q = 1/16 lattice."""
    return reference_lattices(field) + [Lattice(field, Fraction(1, 16), (HALF, HALF, 0))]


@pytest.mark.parametrize("idx", range(5))
def test_interpolation_route_equals_the_tables_on_the_benchmark_lattices(exact, idx):
    """dx_interp and sx_interp against dx and sx, equal values of one type,
    for degrees 0 to 17 with mixed denominators, on each lattice of the
    identity-structure workload."""
    lat = benchmark_lattices(exact)[idx]
    rng = random.Random(350 + idx)
    for degree in range(18):
        f = random_poly(exact, rng, degree=degree)
        assert same_values(dx_interp(lat, f).coeffs, dx(lat, f).coeffs), (lat, degree)
        assert same_values(sx_interp(lat, f).coeffs, sx(lat, f).coeffs), (lat, degree)


def test_a_lattice_with_a_node_table_is_freed_without_the_cycle_collector(exact):
    """The node table holds no reference to its lattice, so dropping a
    lattice that has one frees it at once."""
    lat = Lattice(exact, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    sx_interp(lat, Polynomial.monomial(exact, 5))
    dropped = weakref.ref(lat)
    gc.disable()
    try:
        del lat
        assert dropped() is None
    finally:
        gc.enable()


def test_interpolation_route_reads_no_image_table(exact, monkeypatch):
    """dx_interp and sx_interp never read the D_x/S_x tables, on a cold
    lattice and on one whose node table is grown; both give the images of
    the tables' route."""
    rng = random.Random(10)
    polys = [random_poly(exact, rng, degree=d) for d in (1, 3, 6, 9)]
    warm = identity_lattices(exact)
    expected = [[(dx(lat, f), sx(lat, f)) for f in polys] for lat in warm]
    for lat in warm:
        dx_interp(lat, polys[-1]), sx_interp(lat, polys[-1])

    def forbidden(*args):
        raise AssertionError("the interpolation route must not read the image tables")

    for name in ("monomial_rows", "_monomial_tables", "product_rule_step"):
        monkeypatch.setattr(operators, name, forbidden)
    with pytest.raises(AssertionError):
        dx(warm[0], polys[0])
    for lats in (identity_lattices(exact), warm):
        for lat, images in zip(lats, expected):
            assert [(dx_interp(lat, f), sx_interp(lat, f)) for f in polys] == images, lat


def test_constant_lattice_reduces_to_derivative(exact):
    lat = Lattice(exact, 1, (0, 0, Fraction(3, 7)))
    f = Polynomial(exact, (1, -2, Fraction(4, 3), 5))
    assert dx(lat, f) == f.derivative()
    assert sx(lat, f) == f


def test_degree_and_leading_coefficient_laws(gen_lattice, exact):
    con = gen_lattice.constants
    for n in range(1, 9):
        f = Fraction(3, 7) * Polynomial.monomial(exact, n)
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
