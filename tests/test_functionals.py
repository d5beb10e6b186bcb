from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from latticeops import (
    FUNCTIONAL_IDENTITIES,
    AdmissibilityError,
    HorizonError,
    Lattice,
    MomentFunctional,
    NotRegularError,
    OPSequence,
    PearsonPair,
    Polynomial,
    TTRRCoeffs,
    dual_dx,
    dual_sx,
    hankel_dets,
    left_mul,
    make_field,
    ttrr_oracle,
    verify_functional_identity,
)
from latticeops.checks import random_functional
from latticeops.functionals import dual_dx_pow, pearson_moments

from conftest import identity_lattices

small_fracs = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


class TestMomentFunctional:
    def test_from_moments_and_horizon(self, exact):
        u = MomentFunctional(exact, (1, 2, 3))
        assert u.horizon == 2
        assert u.moment(2) == exact(3)
        with pytest.raises(HorizonError):
            u.moment(3)

    def test_extender_values_are_cached(self, exact):
        calls = []

        def ext(k):
            calls.append(k)
            return exact(k)

        u = MomentFunctional(exact, extender=ext)
        assert u.moment(4) == exact(4)
        assert u.moment(4) == exact(4)
        assert calls.count(4) == 1
        assert u.horizon is None

    def test_apply_is_linear_in_the_polynomial(self, exact):
        u = MomentFunctional(exact, (2, -1, 5, 0, 3))
        f = Polynomial(exact, (1, 0, Fraction(2, 3)))
        g = Polynomial(exact, (0, 4, 0, -1))
        lam = exact(Fraction(7, 5))
        assert u.apply(lam * f + g) == lam * u.apply(f) + u.apply(g)

    def test_functional_arithmetic(self, exact):
        u = MomentFunctional(exact, (1, 2, 3))
        v = MomentFunctional(exact, (5, -1, 0))
        w = exact(2) * u - v
        assert w.moments(2) == [exact(-3), exact(5), exact(6)]

    def test_left_mul_adjoint_property(self, exact):
        u = random_functional(exact, 11)
        f = Polynomial(exact, (1, Fraction(-2, 3), 1))
        g = Polynomial(exact, (0, 1, 4))
        assert left_mul(u, f).apply(g) == u.apply(f * g)


class TestDualOperators:
    def test_dual_dx_pairing(self, gen_lattice, exact):
        from latticeops import dx

        u = random_functional(exact, 3)
        f = Polynomial(exact, (Fraction(1, 2), 0, -3, 1))
        assert dual_dx(gen_lattice, u).apply(f) == -u.apply(dx(gen_lattice, f))

    def test_dual_sx_pairing(self, gen_lattice, exact):
        from latticeops import sx

        u = random_functional(exact, 5)
        f = Polynomial(exact, (2, -1, 0, Fraction(5, 7)))
        assert dual_sx(gen_lattice, u).apply(f) == u.apply(sx(gen_lattice, f))

    def test_dual_power_iterates(self, gen_lattice, exact):
        u = random_functional(exact, 8)
        twice = dual_dx(gen_lattice, dual_dx(gen_lattice, u))
        assert dual_dx_pow(gen_lattice, u, 2).moments(4) == twice.moments(4)

    @pytest.mark.parametrize("identity", FUNCTIONAL_IDENTITIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_identities_exact(self, exact, identity, seed):
        """On the q = 4 offset lattice, the other reference lattices and the extra ones."""
        rng = random.Random(seed)
        if identity == "leibniz_deg2":
            f = Polynomial(exact, (Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5)))
        else:
            deg = rng.randint(1, 4)
            f = Polynomial(
                exact,
                [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(deg)]
                + [Fraction(1, 2)],
            )
        u = random_functional(exact, 40 + seed)
        for lat in identity_lattices(exact):
            if identity == "leibniz_deg2" and not lat.is_q_lattice:
                continue
            rep = verify_functional_identity(lat, identity, f, u, n=2, horizon=8)
            assert rep.passed and rep.residual == 0.0, lat.to_json()

    def test_identity_report_serialization(self, gen_lattice, exact):
        u = random_functional(exact, 2)
        f = Polynomial(exact, (0, 1))
        rep = verify_functional_identity(gen_lattice, "dual_product_dx", f, u, horizon=6)
        assert rep.to_json()["name"] == "dual_product_dx"


class TestPearsonMoments:
    def test_first_moment_from_recursion(self, gen_lattice, exact):
        """<u, phi D z + psi S z> = 0 pins mu_1 in terms of mu_0."""
        phi = Polynomial(exact, (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7)))
        psi = Polynomial(exact, (Fraction(1, 2), Fraction(3, 4)))
        pair = PearsonPair(gen_lattice, phi, psi)
        u = pearson_moments(gen_lattice, pair)
        from latticeops import dx, sx

        z = Polynomial.monomial(exact, 1)
        probe = phi * dx(gen_lattice, z) + psi * sx(gen_lattice, z)
        assert u.apply(probe) == exact.zero
        assert u.moment(0) == exact.one

    def test_all_probes_vanish(self, quad_lattice, exact):
        phi = Polynomial(exact, (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7)))
        psi = Polynomial(exact, (Fraction(1, 2), Fraction(3, 4)))
        pair = PearsonPair(quad_lattice, phi, psi)
        u = pearson_moments(quad_lattice, pair)
        from latticeops import dx, sx

        for n in range(1, 8):
            zn = Polynomial.monomial(exact, n)
            probe = phi * dx(quad_lattice, zn) + psi * sx(quad_lattice, zn)
            assert u.apply(probe) == exact.zero

    def test_mu0_scaling(self, gen_lattice, exact):
        phi = Polynomial(exact, (1, 0, Fraction(1, 4)))
        psi = Polynomial(exact, (0, 1))
        pair = PearsonPair(gen_lattice, phi, psi)
        u1 = pearson_moments(gen_lattice, pair, mu0=1)
        u3 = pearson_moments(gen_lattice, pair, mu0=Fraction(3, 2))
        assert u3.moments(5) == [exact(Fraction(3, 2)) * m for m in u1.moments(5)]

    def test_inadmissible_pair_raises(self, gen_lattice, exact):
        # choose a/d = -alpha_2/gamma_2 so d_2 = a gamma_2 + d alpha_2 = 0
        con = gen_lattice.constants
        a = -con.alpha_n(2)
        d = con.gamma_n(2)
        phi = Polynomial(exact, (1, 0, a))
        psi = Polynomial(exact, (0, d))
        pair = PearsonPair(gen_lattice, phi, psi)
        u = pearson_moments(gen_lattice, pair)
        with pytest.raises(AdmissibilityError):
            u.moments(8)


class TestTTRR:
    def test_from_lists_and_rows(self, exact):
        ttrr = TTRRCoeffs.from_lists(exact, [1, 2], [Fraction(1, 3)])
        rows = ttrr.rows(1)
        assert rows == [(0, exact(1), exact.zero), (1, exact(2), exact(Fraction(1, 3)))]
        with pytest.raises(HorizonError):
            ttrr.b(2)

    def test_c0_is_zero(self, exact):
        ttrr = TTRRCoeffs.from_lists(exact, [0], [])
        assert ttrr.c(0) == exact.zero

    def test_to_json_shape(self, exact):
        ttrr = TTRRCoeffs.from_lists(exact, [1, 2], [3])
        blob = ttrr.to_json(1)
        assert blob == [
            {"n": 0, "b": "1", "c": "0"},
            {"n": 1, "b": "2", "c": "3"},
        ]

    def test_sequence_is_monic_with_right_degree(self, exact):
        ttrr = TTRRCoeffs(exact, lambda n: exact(n), lambda n: exact(Fraction(1, n + 1)))
        seq = OPSequence(exact, ttrr)
        for n in range(6):
            p = seq.p(n)
            assert p.degree == n
            assert p.coeff(n) == exact.one
        assert seq.p(-1).degree == -1

    def test_recurrence_holds(self, exact):
        ttrr = TTRRCoeffs.from_lists(
            exact, [1, -1, 2, 0, 1], [Fraction(1, 2), 3, Fraction(-2, 5), 1]
        )
        seq = OPSequence(exact, ttrr)
        z = Polynomial.monomial(exact, 1)
        for n in range(4):
            lhs = seq.p(n + 1)
            rhs = (z - ttrr.b(n)) * seq.p(n) - ttrr.c(n) * seq.p(n - 1)
            assert lhs == rhs


def readme_pair(lat):
    """The README example's Pearson pair, on any lattice and backend."""
    field = lat.field
    phi = Polynomial(field, (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7)))
    psi = Polynomial(field, (Fraction(1, 2), Fraction(3, 4)))
    return PearsonPair(lat, phi, psi)


def recording(moment):
    """A functional with moments ``moment(k)`` that records the highest k read."""
    seen = [-1]

    def ext(k):
        seen[0] = max(seen[0], k)
        return moment(k)

    return MomentFunctional(make_field("exact"), extender=ext), seen


class TestOracle:
    def sample_functional(self, exact):
        phi = Polynomial(exact, (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7)))
        psi = Polynomial(exact, (Fraction(1, 2), Fraction(3, 4)))
        lat = Lattice(exact, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
        return pearson_moments(lat, PearsonPair(lat, phi, psi))

    def test_orthogonality(self, exact):
        u = self.sample_functional(exact)
        ttrr = ttrr_oracle(u, 5)
        seq = OPSequence(exact, ttrr)
        for n in range(5):
            for m in range(n):
                assert u.apply(seq.p(n) * seq.p(m)) == exact.zero
            assert u.apply(seq.p(n) * seq.p(n)) != exact.zero

    def test_hankel_consistency(self, exact):
        """C_(n+1) = Delta_(n+2) Delta_n / Delta_(n+1)^2 against the minors."""
        u = self.sample_functional(exact)
        ttrr = ttrr_oracle(u, 4)
        dets = hankel_dets(u, 6)
        for n in range(4):
            expected = dets[n + 2] * dets[n] / (dets[n + 1] * dets[n + 1])
            assert ttrr.c(n + 1) == expected

    def test_degenerate_moments_detected(self, exact):
        u = MomentFunctional(exact, (1, 0, 0, 0, 0, 0))
        with pytest.raises(NotRegularError) as err:
            ttrr_oracle(u, 2)
        assert err.value.level == 1

    @settings(max_examples=20, deadline=None)
    @given(st.lists(small_fracs, min_size=7, max_size=7))
    def test_random_regular_moments(self, ms):
        exact = make_field("exact")
        u = MomentFunctional(exact, [Fraction(1)] + ms[1:])
        dets = hankel_dets(u, 3)
        assume(all(d != exact.zero for d in dets))
        ttrr = ttrr_oracle(u, 2)
        seq = OPSequence(exact, ttrr)
        assert u.apply(seq.p(1) * seq.p(2)) == exact.zero
        assert u.apply(seq.p(0) * seq.p(2)) == exact.zero

    @pytest.mark.parametrize("n_max", [0, 1, 4, 9])
    def test_regular_run_reads_through_mu_2n_plus_2(self, exact, n_max):
        base = self.sample_functional(exact)
        u, seen = recording(base.moment)
        ttrr_oracle(u, n_max)
        assert seen[0] == 2 * n_max + 2

    @pytest.mark.parametrize("level", [1, 2, 3, 5])
    def test_singular_level_reads_nothing_past_mu_2n(self, exact, level):
        """Shift mu_(2n) by h_n = Delta_(n+1)/Delta_n: u stays regular below
        level n and <u, P_n^2> becomes exactly zero."""
        base = self.sample_functional(exact)
        dets = hankel_dets(base, level + 1)
        h = dets[level + 1] / dets[level]

        def moment(k):
            return base.moment(k) - h if k == 2 * level else base.moment(k)

        u, seen = recording(moment)
        with pytest.raises(NotRegularError) as err:
            ttrr_oracle(u, level + 3)
        assert err.value.level == level
        assert seen[0] == 2 * level

    @pytest.mark.parametrize("n0", [1, 2, 3, 6])
    def test_inadmissible_pair_stops_the_oracle(self, gen_lattice, exact, n0):
        """d_(n0) = 0 leaves mu_(n0+1) undefined; the oracle passes the
        AdmissibilityError on and has read nothing past it."""
        con = gen_lattice.constants
        phi = Polynomial(exact, (1, 0, -con.alpha_n(n0)))
        psi = Polynomial(exact, (0, con.gamma_n(n0)))
        base = pearson_moments(gen_lattice, PearsonPair(gen_lattice, phi, psi))
        u, seen = recording(base.moment)
        with pytest.raises(AdmissibilityError) as err:
            ttrr_oracle(u, 8)
        assert err.value.n == n0
        assert seen[0] == n0 + 1

    @pytest.mark.parametrize(
        "lattice", ["gen_lattice", "sym_lattice", "quad_lattice", "lin_lattice"]
    )
    def test_determinant_route_at_every_level(self, request, lattice):
        """C_(n+1) = Delta_(n+2) Delta_n / Delta_(n+1)^2 for n <= 8."""
        lat = request.getfixturevalue(lattice)
        u = pearson_moments(lat, readme_pair(lat))
        ttrr = ttrr_oracle(u, 8)
        dets = hankel_dets(u, 10)
        for n in range(9):
            expected = dets[n + 2] * dets[n] / (dets[n + 1] * dets[n + 1])
            assert ttrr.c(n + 1) == expected

    def test_oracle_reads_moments_only(self, exact, monkeypatch):
        """The oracle forms no polynomial and applies u to none: it works
        from the moment table alone."""
        moments = self.sample_functional(exact).moments(26)
        u = MomentFunctional(exact, moments)

        def forbidden(*args):
            raise AssertionError("the moment oracle must not build polynomials")

        monkeypatch.setattr(Polynomial, "__mul__", forbidden)
        monkeypatch.setattr(MomentFunctional, "apply", forbidden)
        ttrr = ttrr_oracle(u, 12)
        assert ttrr.horizon == 12
        assert ttrr.c(13) != exact.zero

    @pytest.mark.parametrize("n_max", [12, 16])
    @pytest.mark.parametrize(
        "lattice", ["gen_lattice", "sym_lattice", "quad_lattice"]
    )
    def test_bigfloat_oracle_matches_exact(self, request, big, lattice, n_max):
        exact_lat = request.getfixturevalue(lattice)
        big_lat = Lattice(big, exact_lat.q, exact_lat.c)
        want = ttrr_oracle(pearson_moments(exact_lat, readme_pair(exact_lat)), n_max)
        got = ttrr_oracle(pearson_moments(big_lat, readme_pair(big_lat)), n_max)
        for n in range(n_max + 1):
            assert big.approx_eq(got.b(n), want.b(n))
            assert big.approx_eq(got.c(n + 1), want.c(n + 1))
