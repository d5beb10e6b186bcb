from __future__ import annotations

import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import gaussian_lattices
from latticeops import Lattice, LatticeError, Polynomial, make_field
from latticeops.checks import reference_lattices
from latticeops.lattice import DEFAULT_TABLE_HORIZON

qs = st.sampled_from(
    [Fraction(1, 9), Fraction(1, 4), Fraction(4), Fraction(9), Fraction(25, 4)]
)


@pytest.mark.parametrize(
    "q, c, kind",
    [
        (Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0), "q-quadratic"),
        (4, (Fraction(1, 2), 0, 3), "q-linear"),
        (1, (1, 0, 0), "quadratic"),
        (1, (0, 1, 0), "linear"),
        (1, (0, 0, Fraction(3, 7)), "linear"),
    ],
)
def test_kind_detection(exact, q, c, kind):
    assert Lattice(exact, q, c).kind == kind


def test_constant_lattice_flag(exact):
    assert Lattice(exact, 1, (0, 0, Fraction(3, 7))).is_constant
    assert not Lattice(exact, 1, (0, 1, 0)).is_constant


@pytest.mark.parametrize(
    "q, c",
    [
        (0, (1, 1, 0)),
        (-4, (1, 1, 0)),
        (Fraction(1, 4), (0, 0, 1)),
        (1, (0, 0, 0)),
    ],
)
def test_invalid_constants_rejected(exact, q, c):
    with pytest.raises(LatticeError):
        Lattice(exact, q, c)


def test_exact_backend_needs_rational_sqrt_q(exact):
    with pytest.raises(LatticeError):
        Lattice(exact, 2, (1, 1, 0))


class TestFrozenValuesQ4:
    """Hand-checked constants on the q = 4 symmetric lattice."""

    @pytest.fixture()
    def lat(self, exact):
        return Lattice(exact, 4, (Fraction(1, 2), Fraction(1, 2), 0))

    def test_alpha(self, lat, exact):
        assert lat.constants.alpha == exact(Fraction(5, 4))

    def test_gamma_2(self, lat, exact):
        assert lat.constants.gamma_n(2) == exact(Fraction(5, 2))

    def test_alpha_2(self, lat, exact):
        assert lat.constants.alpha_n(2) == exact(Fraction(17, 8))

    def test_node_values(self, lat, exact):
        assert lat.x(0) == exact.one
        assert lat.x(1) == exact(Fraction(17, 8))
        assert lat.x(Fraction(1, 2)) == exact(Fraction(5, 4))
        assert list(itertools.islice(lat.node_stream(), 2)) == [
            (0, exact(1)), (1, exact(Fraction(17, 8)))]

    def test_negative_index_values(self, lat, exact):
        assert lat.constants.alpha_n(-1) == lat.constants.alpha
        assert lat.constants.gamma_n(-1) == exact(-1)


class TestRecurrences:
    """The closed-form tables against their initial values and defining recurrences."""

    def check(self, lat, n_max):
        field = lat.field
        con = lat.constants
        alpha, beta = con.alpha, con.beta
        assert con.alpha_n(0) == field.one
        assert con.gamma_n(0) == field.zero
        assert con.beta_n(0) == field.zero
        assert con.alpha_n(1) == alpha
        assert con.gamma_n(1) == field.one
        assert con.beta_n(1) == beta
        assert con.alpha_n(-1) == alpha
        assert con.gamma_n(-1) == -field.one
        for n in range(1, n_max):
            assert con.alpha_n(n + 1) == 2 * alpha * con.alpha_n(n) - con.alpha_n(n - 1)
            assert con.gamma_n(n + 1) - con.gamma_n(n - 1) == 2 * con.alpha_n(n)
            assert (
                con.beta_n(n + 1) - 2 * con.beta_n(n) + con.beta_n(n - 1)
                == 2 * beta * con.alpha_n(n)
            )

    @given(qs)
    def test_q_lattice(self, q):
        exact = make_field("exact")
        self.check(Lattice(exact, q, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))), 12)

    def test_quadratic_lattice(self, quad_lattice):
        self.check(quad_lattice, 64)

    def test_gen_lattice(self, gen_lattice):
        self.check(gen_lattice, 64)


def test_q1_sequences_are_polynomial(quad_lattice, exact):
    con = quad_lattice.constants
    for n in range(8):
        assert con.gamma_n(n) == exact(n)
        assert con.alpha_n(n) == exact.one
    # beta_n = beta n^2 with beta = c4/4
    assert con.beta == exact(Fraction(1, 2))
    assert con.beta_n(3) == exact(Fraction(9, 2))


def test_u2_closed_form(gen_lattice, exact):
    lat = gen_lattice
    alpha = lat.constants.alpha
    c1, c2, c3 = lat.c
    z = Polynomial(exact, (0, 1))
    shifted = z - c3
    expected = (alpha * alpha - exact.one) * (shifted * shifted - 4 * c1 * c2)
    assert lat.u2() == expected


@pytest.mark.parametrize("q, c", [
    (4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
    (Fraction(1, 9), (0, Fraction(1, 3), Fraction(2, 7))),
    (Fraction(25, 4), (Fraction(1, 2), 0, -3)),
])
def test_u1_q_lattice_closed_form(exact, q, c):
    lat = Lattice(exact, q, c)
    alpha = lat.constants.alpha
    z = Polynomial(exact, (0, 1))
    assert lat.u1() == (alpha * alpha - exact.one) * (z - lat.c[2])


def test_u1_u2_quadratic(quad_lattice, exact):
    c4, c5, c6 = quad_lattice.c
    assert quad_lattice.u1() == Polynomial(exact, (c4 / exact(2),))
    z = Polynomial(exact, (0, 1))
    assert quad_lattice.u2() == c4 * (z - c6) + Polynomial(
        exact, (c5 * c5 / exact(4),)
    )


def test_json_roundtrip(exact, gen_lattice):
    lat2 = Lattice.from_json(exact, gen_lattice.to_json())
    assert lat2.q == gen_lattice.q
    assert lat2.c == gen_lattice.c
    assert lat2.kind == gen_lattice.kind


def test_json_kind_mismatch_rejected(exact):
    with pytest.raises(LatticeError):
        Lattice.from_json(
            exact, {"kind": "linear", "q": "4", "c": ["1/2", "1/2", "0"]}
        )


def test_bigfloat_lattice_with_irrational_sqrt_q(big):
    lat = Lattice(big, 2, (1, 1, 0))
    assert big.approx_eq(lat.sqrt_q * lat.sqrt_q, lat.q)


def test_table_horizon_is_enforced(exact):
    lat = Lattice(exact, 4, (1, 1, 0))
    lat.constants.gamma_n(DEFAULT_TABLE_HORIZON)
    with pytest.raises(LatticeError):
        lat.constants.gamma_n(DEFAULT_TABLE_HORIZON + 1)


def test_sequences_start_at_minus_one(exact):
    for lat in (Lattice(exact, 4, (1, 1, 0)), Lattice(exact, 1, (1, 0, 0))):
        con = lat.constants
        con.gamma_n(-1), con.level_row(-1)
        for read in (con.alpha_n, con.gamma_n, con.s_n, con.level_row):
            with pytest.raises(LatticeError, match="< -1"):
                read(-2)


def test_a_cold_level_row_at_the_horizon(exact, big):
    """The packed powers grow in a loop, so the first read of the deepest
    level row needs no recursion through the levels below it."""
    k = DEFAULT_TABLE_HORIZON
    for field in (exact, big):
        lat = Lattice(field, 4, (1, 1, 0))
        t_pow = lat.t_pow
        g, s = field.unpack(lat.constants.level_row(k))[1:3]
        assert field.approx_eq(g, (t_pow(k) - t_pow(-k)) / (t_pow(1) - t_pow(-1)))
        assert field.approx_eq(s, (t_pow(k) - 2 + t_pow(-k)) / (t_pow(1) - 2 + t_pow(-1)))


def _reference_powers(lat, k_max: int) -> dict:
    """t^k for |k| <= k_max, built without the lattice's power table: as
    ``Fraction`` powers on exact, and on bigfloat as the chains of products
    one * t * t ... and one * (1/t) * (1/t) ... that the table holds."""
    field, t = lat.field, lat.sqrt_q
    if field.name == "exact":
        return {k: Fraction(t) ** k for k in range(-k_max, k_max + 1)}
    one = field.one
    ref = {0: one}
    for k in range(1, k_max + 1):
        ref[k], ref[-k] = ref[k - 1] * t, ref[1 - k] * (one / t)
    return ref


def _q_lattices(field) -> list:
    lattices = [lat for lat in (*reference_lattices(field), *gaussian_lattices(field))
                if lat.is_q_lattice]
    assert len(lattices) >= 4
    return lattices


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
def test_packed_powers_are_the_packed_t_pow_values(backend):
    """_powers(k) is pack((t^k, t^-k)): the same ints on exact, the same bits
    on bigfloat, whether the table grows in one step to 64 or index by index."""
    field = make_field(backend, precision=128)
    show = (lambda row: row) if backend == "exact" else repr
    for lat in _q_lattices(field):
        ref = _reference_powers(lat, 64)
        jumped, stepped = lat.constants, Lattice(lat.field, lat.q, lat.c).constants
        jumped._powers(64)
        for k in sorted(range(-64, 65), key=abs):
            want = show(field.pack((ref[k], ref[-k])))
            assert show(jumped._powers(k)) == show(stepped._powers(k)) == want, (lat, k)
        if backend == "exact":
            assert all(type(v) is int for k in range(65) for v in jumped._powers(k)[0])


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
def test_t_pow_alpha_n_and_s_n_are_their_power_formulas(backend):
    """t_pow(k) = t^k, alpha_n = (t^n + t^-n)/2 and s_n = (t^n - 2 + t^-n)/bd
    for the reference powers: equal values on exact, equal bits on bigfloat."""
    field = make_field(backend, precision=128)
    show = (lambda v: v) if backend == "exact" else repr
    for lat in _q_lattices(field):
        ref, con = _reference_powers(lat, 64), lat.constants
        bd = ref[1] - 2 + ref[-1]
        assert show(con.bd) == show(bd), lat
        for n in range(-64, 65):
            assert show(lat.t_pow(n)) == show(ref[n]), (lat, n)
        for n in range(-1, 65):
            assert show(con.alpha_n(n)) == show((ref[n] + ref[-n]) / 2), (lat, n)
            assert show(con.s_n(n)) == show((ref[n] - 2 + ref[-n]) / bd), (lat, n)


def test_t_pow_on_exact_is_a_fraction_with_inverse_powers(exact, big):
    for lat in _q_lattices(exact):
        for k in range(-20, 21):
            assert type(lat.t_pow(k)) is Fraction
            assert lat.t_pow(k) * lat.t_pow(-k) == 1
    for field in (exact, big):
        assert Lattice(field, 4, (1, 1, 0)).t_pow(0) == 1
        flat = Lattice(field, 1, (2, Fraction(1, 3), Fraction(-1, 4)))
        assert all(flat.t_pow(k) == 1 for k in range(-5, 6))


def test_a_cold_t_pow_far_below_zero(exact, big):
    """The first read of t^-2048 grows the table in a loop, with no recursion
    and no horizon."""
    assert Lattice(exact, 4, (1, 1, 0)).t_pow(-2048) == Fraction(1, 2 ** 2048)
    lat = Lattice(big, 4, (1, 1, 0))
    assert repr(lat.t_pow(-2048)) == repr(_reference_powers(lat, 2048)[-2048])


def test_default_horizon_allows_deep_indices(exact):
    lat = Lattice(exact, 4, (1, 1, 0))
    assert lat.constants.gamma_n(40) == exact(Fraction(2**80 - 1, 3 * 2**39))


def test_the_q_one_level_row_holds_field_scalars(exact, big):
    """When q = 1 the level row (1, k, k^2, k^3, k^4) unpacks to scalars of
    the lattice's field on both backends."""
    for field in (exact, big):
        lat = Lattice(field, 1, (2, Fraction(1, 3), Fraction(-1, 4)))
        values = field.unpack(lat.constants.level_row(3))
        assert values == [field(v) for v in (1, 3, 9, 27, 81)]
        assert all(type(v) is type(field.one) for v in values)


def test_a_dropped_lattice_is_freed_without_the_cycle_collector(exact):
    """The lattice, its constants and their memos form no reference cycle, so
    dropping the lattice frees them at once, not at the next collection."""
    lat = Lattice(exact, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    con = lat.constants
    con.gamma_n(6), con.s_n(6), con.level_row(6), lat.u2()
    dropped = weakref.ref(lat), weakref.ref(con)
    gc.disable()
    try:
        del lat, con
        assert all(ref() is None for ref in dropped)
    finally:
        gc.enable()
