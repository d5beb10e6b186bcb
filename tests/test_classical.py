from __future__ import annotations

import random
from fractions import Fraction

import pytest

from latticeops import (
    Lattice,
    NotRegularError,
    PearsonPair,
    Polynomial,
    admissibility,
    asymptotics,
    make_field,
    regularity,
    rodrigues_verify,
    ttrr_from_pearson,
    ttrr_oracle,
    witness_point,
)
from latticeops.characterize import solve_first_characterization
from latticeops.checks import random_regular_pair, sample_pair
from latticeops.classical import b_offset, partial_sum_closed
from latticeops.lattice import LatticeError


class TestPearsonPair:
    def test_degree_validation(self, gen_lattice, exact):
        cubic = Polynomial(exact, (0, 0, 0, 1))
        line = Polynomial(exact, (0, 1))
        with pytest.raises(ValueError):
            PearsonPair(gen_lattice, cubic, line)
        with pytest.raises(ValueError):
            PearsonPair(gen_lattice, line, Polynomial(exact, (0, 0, 1)))

    def test_d_values_match_admissibility_report(self, gen_lattice):
        pair = sample_pair(gen_lattice)
        rep = admissibility(pair, 8)
        assert rep.admissible
        assert rep.values == [pair.d_value(n) for n in range(9)]

    def test_json_roundtrip(self, gen_lattice):
        pair = sample_pair(gen_lattice)
        again = PearsonPair.from_json(gen_lattice, pair.to_json())
        assert again.phi == pair.phi and again.psi == pair.psi

    def test_moments_scale_with_mu0(self, gen_lattice):
        pair = sample_pair(gen_lattice)
        once, twice = pair.moments(1).moments(10), pair.moments(2).moments(10)
        assert twice == [2 * m for m in once]

    def test_from_json_requires_both_parts(self, gen_lattice):
        with pytest.raises(ValueError):
            PearsonPair.from_json(gen_lattice, {"phi": ["1", "0", "1"]})


class TestIterated:
    def test_level_zero_is_the_pair(self, gen_lattice):
        pair = sample_pair(gen_lattice)
        phi0, psi0 = pair.iterated(0)
        assert phi0 == pair.phi and psi0 == pair.psi

    def test_validated_equals_fast_path(self, gen_lattice, quad_lattice):
        for lat in (gen_lattice, quad_lattice):
            pair = sample_pair(lat)
            for k in range(6):
                assert pair.iterated(k, validate=True) == pair.iterated(
                    k, validate=False
                )

    def test_semigroup_property(self, gen_lattice):
        """Iterating twice = iterating once from the once-iterated pair."""
        pair = sample_pair(gen_lattice)
        phi2, psi2 = pair.iterated(2)
        step = PearsonPair(gen_lattice, *pair.iterated(1))
        assert step.iterated(1) == (phi2, psi2)

    def test_degrees_stay_bounded(self, quad_lattice):
        pair = sample_pair(quad_lattice)
        for k in range(8):
            phik, psik = pair.iterated(k)
            assert phik.degree <= 2
            assert psik.degree <= 1


class TestClosedFormTTRR:
    @pytest.mark.parametrize("lattice_name", ["gen", "sym", "quad"])
    def test_matches_moment_oracle_exactly(self, request, lattice_name):
        lat = {
            "gen": request.getfixturevalue("gen_lattice"),
            "sym": request.getfixturevalue("sym_lattice"),
            "quad": request.getfixturevalue("quad_lattice"),
        }[lattice_name]
        pair = sample_pair(lat)
        closed = ttrr_from_pearson(pair)
        oracle = ttrr_oracle(pair.moments(), 8)
        for n in range(9):
            assert closed.b(n) == oracle.b(n)
            assert closed.c(n) == oracle.c(n)

    def test_random_pairs_match_oracle(self, gen_lattice, quad_lattice):
        rng = random.Random(2024)
        for lat in (gen_lattice, quad_lattice):
            for _ in range(4):
                pair = random_regular_pair(lat, rng)
                closed = ttrr_from_pearson(pair)
                oracle = ttrr_oracle(pair.moments(), 6)
                for n in range(7):
                    assert closed.b(n) == oracle.b(n)
                    assert closed.c(n) == oracle.c(n)

    def test_bigfloat_route_agrees(self, big):
        lat = Lattice(big, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
        pair = sample_pair(lat)
        closed = ttrr_from_pearson(pair)
        oracle = ttrr_oracle(pair.moments(), 6)
        for n in range(7):
            assert big.magnitude(closed.b(n) - oracle.b(n)) < 1e-25
            assert big.magnitude(closed.c(n) - oracle.c(n)) < 1e-25


class TestRegularity:
    def test_regular_verdict(self, gen_lattice):
        rep = regularity(sample_pair(gen_lattice), 8)
        assert rep.regular
        assert rep.verdict == "regular-through-horizon"

    def test_zero_witness_matches_oracle_failure(self, sym_lattice):
        """A vanishing phi^[2] witness must show up as a zero norm level <= 3."""
        construct = solve_first_characterization(sym_lattice, Fraction(-225, 128))
        rep = regularity(construct.pair, 6)
        assert not rep.regular
        assert rep.verdict == "zero-witness-at-2"
        with pytest.raises(NotRegularError) as err:
            ttrr_oracle(construct.pair.moments(), 6)
        assert err.value.level <= 3

    def test_admissibility_failure_verdict(self, gen_lattice, exact):
        con = gen_lattice.constants
        phi = Polynomial(exact, (1, 0, -con.alpha_n(2)))
        psi = Polynomial(exact, (0, con.gamma_n(2)))
        rep = regularity(PearsonPair(gen_lattice, phi, psi), 6)
        assert not rep.regular
        assert rep.verdict == "fails-admissibility-at-2"

    def test_witness_point_formula(self, gen_lattice):
        pair = sample_pair(gen_lattice)
        c3 = gen_lattice.c[2]
        for n in range(5):
            expected = c3 - pair.e_value(n) / pair.d_value(2 * n)
            assert witness_point(pair, n) == expected

    def test_witness_is_phi_k_root_detector(self, sym_lattice):
        """witness_zero flags exactly the roots of phi^[n] at the witness."""
        construct = solve_first_characterization(sym_lattice, Fraction(-225, 128))
        pair = construct.pair
        phi2, _ = pair.iterated(2)
        assert phi2(witness_point(pair, 2)) == pair.field.zero


class TestRodrigues:
    @pytest.mark.parametrize("n", range(5))
    def test_q_quadratic(self, gen_lattice, n):
        rep = rodrigues_verify(sample_pair(gen_lattice), n, horizon=10)
        assert rep.passed and rep.residual == 0.0

    @pytest.mark.parametrize("n", range(5))
    def test_quadratic(self, quad_lattice, n):
        rep = rodrigues_verify(sample_pair(quad_lattice), n, horizon=10)
        assert rep.passed and rep.residual == 0.0

    def test_report_shape(self, gen_lattice):
        blob = rodrigues_verify(sample_pair(gen_lattice), 2, horizon=6).to_json()
        assert blob == {
            "name": "rodrigues",
            "residuals": [0.0],
            "first_fail": None,
            "failing": None,
            "passed": True,
            "detail": "n = 2",
        }


class TestAsymptotics:
    def test_partial_sum_identity_exact(self, exact):
        lat = Lattice(exact, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
        pair = sample_pair(lat)
        running = exact.zero
        for j in range(64):
            running = running + b_offset(pair, j)
            assert running == partial_sum_closed(pair, j + 1)

    def test_q_below_one_limits(self):
        big = make_field("bigfloat", precision=512)
        lat = Lattice(big, Fraction(1, 2), (Fraction(1, 2), Fraction(1, 2), 0))
        rep = asymptotics(sample_pair(lat), 300, sum_horizon=48)
        assert rep.sum_residual < 1e-30
        assert rep.ratio_error < 1e-6
        assert big.magnitude(rep.series_estimate - rep.series_value) < 1e-6

    def test_q_above_one_limits(self):
        big = make_field("bigfloat", precision=512)
        lat = Lattice(big, 2, (Fraction(1, 2), Fraction(1, 2), 0))
        rep = asymptotics(sample_pair(lat), 300, sum_horizon=48)
        assert rep.ratio_error < 1e-6
        assert big.magnitude(rep.series_estimate - rep.series_value) < 1e-6

    def test_quadratic_growth_constants(self, big):
        lat = Lattice(big, 1, (2, Fraction(1, 3), Fraction(-1, 4)))
        rep = asymptotics(sample_pair(lat), 2000)
        beta = lat.constants.beta
        assert big.approx_eq(rep.b_scaled_limit, -2 * beta)
        assert big.approx_eq(rep.c_scaled_limit, beta * beta)
        assert rep.b_scaled_error < 1e-2
        assert rep.c_scaled_error < 1e-2

    def test_quadratic_growth_constants_linear_phi(self, big):
        lat = Lattice(big, 1, (2, Fraction(1, 3), Fraction(-1, 4)))
        pair = PearsonPair(
            lat, Polynomial(big, (3, 1)), Polynomial(big, (Fraction(1, 2), Fraction(3, 4)))
        )
        rep = asymptotics(pair, 2000)
        beta = lat.constants.beta
        assert big.approx_eq(rep.b_scaled_limit, -8 * beta)
        assert big.approx_eq(rep.c_scaled_limit, 16 * beta * beta)
        assert rep.b_scaled_error < 1e-2
        assert rep.c_scaled_error < 1e-2

    def test_linear_lattice_rejected(self, lin_lattice):
        with pytest.raises(LatticeError):
            asymptotics(sample_pair(lin_lattice), 100)
