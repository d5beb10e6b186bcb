from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from latticeops import (
    AdmissibilityError,
    Lattice,
    NotRegularError,
    PearsonPair,
    Polynomial,
    asymptotics,
    make_field,
    regularity,
    rodrigues_verify,
    ttrr_from_pearson,
    ttrr_oracle,
    witness_point,
)
from conftest import EVERY_KIND, PEARSON_LATTICES, gaussian_lattices, readme_pair
from latticeops import classical
from latticeops.characterize import solve_first_characterization
from latticeops.checks import random_poly, random_regular_pair, reference_lattices, sample_pair
from latticeops.functionals import InternalCheckError
from latticeops.lattice import LatticeError
from latticeops.operators import dx, sx
from latticeops.scalars import add_rows, mat_row


class TestPearsonPair:
    def test_degree_validation(self, gen_lattice, exact):
        cubic = Polynomial(exact, (0, 0, 0, 1))
        line = Polynomial(exact, (0, 1))
        with pytest.raises(ValueError):
            PearsonPair(gen_lattice, cubic, line)
        with pytest.raises(ValueError):
            PearsonPair(gen_lattice, line, Polynomial(exact, (0, 0, 1)))

    def test_json_roundtrip(self, gen_lattice):
        pair = sample_pair(gen_lattice)
        again = PearsonPair.from_json(gen_lattice, pair.to_json())
        assert again.phi == pair.phi and again.psi == pair.psi

    def test_from_json_requires_both_parts(self, gen_lattice):
        with pytest.raises(ValueError):
            PearsonPair.from_json(gen_lattice, {"phi": ["1", "0", "1"]})
        # a JSON array that holds both names is no pair spec either
        with pytest.raises(ValueError):
            PearsonPair.from_json(gen_lattice, ["phi", "psi"])


class TestIterated:
    def test_level_zero_is_the_pair(self, gen_lattice):
        pair = sample_pair(gen_lattice)
        phi0, psi0 = pair.iterated(0)
        assert phi0 == pair.phi and psi0 == pair.psi

    def test_levels_are_the_recursion_applied_k_times(self, exact, gen_lattice, quad_lattice):
        """iterated(k), read from the closed form, against the recursion map
        applied k times to the pair's own row, for k = 0..9 on every lattice
        kind; levels 7 to 9 lie past the six that ``_check_recursion`` compares."""
        extra = [Lattice(exact, q, c) for q, c in EVERY_KIND.values()]
        for lat in (gen_lattice, quad_lattice, *extra):
            pair = sample_pair(lat)
            rmap, row = classical._recursion_map(lat), pair._own_row
            for k in range(10):
                assert pair.iterated(k) == pair._pair_of(row), (lat, k)
                row = mat_row(rmap, row)

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


class TestRecursionMap:
    @staticmethod
    def longhand(lat, phi, psi):
        """R(phi, psi) = (S phi + U1 S psi + alpha U2 D psi, D phi + alpha S psi + U1 D psi)."""
        alpha, u1, u2 = lat.constants.alpha, lat.u1(), lat.u2()
        return (sx(lat, phi) + u1 * sx(lat, psi) + alpha * u2 * dx(lat, psi),
                dx(lat, phi) + alpha * sx(lat, psi) + u1 * dx(lat, psi))

    def test_map_equals_the_recursion(self, exact):
        """The packed 5x5 map applied to (c, b, a, e, d) gives R written out longhand."""
        extra = [Lattice(exact, *EVERY_KIND[name]) for name in ("qlin_c1", "lin", "const")]
        rng = random.Random(18)
        for lat in (*reference_lattices(exact), *gaussian_lattices(exact), *extra):
            m = exact.unpack(classical._recursion_map(lat))
            for _ in range(3):
                phi, psi = random_poly(exact, rng, degree=2), random_poly(exact, rng, degree=1)
                v = [phi.coeff(0), phi.coeff(1), phi.coeff(2), psi.coeff(0), psi.coeff(1)]
                image = [sum(m[5 * i + j] * v[j] for j in range(5)) for i in range(5)]
                phi_r, psi_r = self.longhand(lat, phi, psi)
                assert Polynomial(exact, image[:3]) == phi_r, lat
                assert Polynomial(exact, image[3:]) == psi_r, lat

    @pytest.mark.parametrize("entry", range(25))
    def test_a_corrupted_entry_fails_regularity(self, exact, big, monkeypatch, entry):
        """Each entry of the map is read: one changed entry fails the first level."""
        original = classical._recursion_map

        def corrupted(lat):
            values, den = original(lat)
            values = list(values)
            values[entry] += 1
            return values, den

        monkeypatch.setattr(classical, "_recursion_map", corrupted)
        slot = "phi" if entry // 5 < 3 else "psi"
        for field in (exact, big):
            for q, c in ((4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
                         (1, (2, Fraction(1, 3), Fraction(-1, 4)))):
                with pytest.raises(InternalCheckError, match=rf"{slot}\^\[1\]"):
                    regularity(readme_pair(Lattice(field, q, c)), 3)

    def test_an_image_beyond_degrees_two_and_one_is_refused(self, exact, monkeypatch):
        lat = Lattice(exact, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
        original = classical.monomial_rows

        def cubic(lat, n):
            """S_x z^2 gains a z^3 term."""
            d, s = original(lat, n)
            return (d, add_rows(s, exact.pack((0, 0, 0, 1)))) if n == 2 else (d, s)

        monkeypatch.setattr(classical, "monomial_rows", cubic)
        with pytest.raises(InternalCheckError, match=r"degrees \(3, 1\)"):
            regularity(readme_pair(lat), 2)

    def test_a_psi_image_beyond_degree_one_is_refused(self, exact, monkeypatch):
        lat = Lattice(exact, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
        original = classical.monomial_rows

        def quadratic(lat, n):
            """D_x z^2 gains a z^2 term."""
            d, s = original(lat, n)
            return (add_rows(d, exact.pack((0, 0, 1))), s) if n == 2 else (d, s)

        monkeypatch.setattr(classical, "monomial_rows", quadratic)
        with pytest.raises(InternalCheckError, match=r"degrees \(2, 2\)"):
            regularity(readme_pair(lat), 2)


class TestClosedBasis:
    @staticmethod
    def longhand(pair, k):
        """(phi^[k], psi^[k]) as scalars, one formula for every lattice."""
        con = pair.lattice.constants
        a, b, c, d, e = pair.a, pair.b, pair.c, pair.d, pair.e
        u1 = pair.lattice.u1()
        u10, a2m1 = u1.coeff(0), u1.coeff(1)
        delta = con.delta
        alpha_k, gamma_k, beta_k = con.alpha_n(k), con.gamma_n(k), con.beta_n(k)
        gamma_2k = con.gamma_n(2 * k)
        phi_k = Polynomial(pair.field, (
            c + b * beta_k + a * (beta_k * beta_k + delta * gamma_k * gamma_k)
            + d * gamma_k * (u10 * beta_k + delta * alpha_k) + e * u10 * gamma_k,
            b * alpha_k + e * a2m1 * gamma_k + 2 * a * (con.beta_n(2 * k) - beta_k)
            + d * u10 * (2 * gamma_2k - gamma_k),
            a * con.alpha_n(2 * k) + d * a2m1 * gamma_2k,
        ))
        psi_k = Polynomial(pair.field, (
            b * gamma_k + e * alpha_k + beta_k * (2 * a * gamma_k + d * (1 + 2 * alpha_k)),
            a * con.gamma_n(2 * k) + d * con.alpha_n(2 * k),
        ))
        return phi_k, psi_k

    @staticmethod
    def lattices(field):
        every = [Lattice(field, *spec) for spec in EVERY_KIND.values()]
        return [*reference_lattices(field), *gaussian_lattices(field), *every]

    @staticmethod
    def pairs(lat, rng):
        field = lat.field
        drawn = [PearsonPair(lat, random_poly(field, rng, degree=2), random_poly(field, rng, degree=1))
                 for _ in range(2)]
        return [readme_pair(lat), *drawn]

    def test_the_matrix_has_five_columns(self, exact):
        """The degree bound as data: five level functions per level, so M is 5 x 5."""
        for lat in self.lattices(exact):
            pair = readme_pair(lat)
            values, _ = pair._closed_matrix()
            assert len(values) == 25
            assert all(len(lat.constants.level_row(k)[0]) == 5 for k in range(-1, 6))

    def test_matrix_times_row_is_the_longhand_formula(self, exact):
        rng = random.Random(19)
        for lat in self.lattices(exact):
            for pair in self.pairs(lat, rng):
                for k in range(41):
                    assert pair._pair_of(pair._closed_row(k)) == self.longhand(pair, k), (lat, k)

    @pytest.mark.parametrize("precision", [128, 256])
    def test_matrix_times_row_on_bigfloat(self, precision):
        big = make_field("bigfloat", precision=precision)
        rng = random.Random(19)
        for lat in self.lattices(big):
            for pair in self.pairs(lat, rng):
                for k in range(41):
                    closed, longhand = pair._pair_of(pair._closed_row(k)), self.longhand(pair, k)
                    rep = big.report("closed", [(closed[0].coeffs, longhand[0].coeffs),
                                                (closed[1].coeffs, longhand[1].coeffs)])
                    assert rep.passed, (lat, k, rep)

    def test_level_algebra_identities(self, exact):
        """alpha_k, gamma_k^2, beta_k, s_2k and gamma_2k in s_k, gamma_k, bd and rho."""
        for lat in self.lattices(exact):
            con = lat.constants
            bd, rho = con.bd, con.rho
            if not lat.is_q_lattice:
                assert (bd, rho) == (0, Fraction(1, 4))
            for k in range(-1, 21):
                g, s = con.gamma_n(k), con.s_n(k)
                assert con.alpha_n(k) == 1 + bd * s / 2
                assert g * g == rho * (4 * s + bd * s * s)
                assert exact.unpack(con.level_row(k)) == [1, g, s, g * s, s * s]
                if k >= 0:
                    assert con.beta_n(k) == con.beta * s
                    assert con.s_n(2 * k) == 4 * s + bd * s * s
                    assert con.gamma_n(2 * k) == 2 * g + bd * g * s

    def test_d_and_e_read_the_first_three_level_functions(self, exact):
        n_max = 12
        for lat in self.lattices(exact):
            con = lat.constants
            pair = readme_pair(lat)
            a, b, d, e = pair.a, pair.b, pair.d, pair.e
            c3 = lat.c[2]
            for n in range(-1, 2 * n_max + 1):
                assert pair.d_value(n) == a * con.gamma_n(n) + d * con.alpha_n(n)
                if lat.is_q_lattice:
                    e_n = pair.phi.derivative()(c3) * con.gamma_n(n) + pair.psi(c3) * con.alpha_n(n)
                else:
                    e_n = b * n + e + 2 * con.beta * d * (n * n)
                assert pair.e_value(n) == e_n

    @pytest.mark.parametrize("entry", range(25))
    def test_a_corrupted_entry_fails_regularity(self, exact, big, monkeypatch, entry):
        """Each entry of M is read: one changed entry fails the first level."""
        original = PearsonPair._closed_matrix

        def corrupted(self):
            values, den = original(self)
            values = list(values)
            values[entry] += 1
            return values, den

        monkeypatch.setattr(PearsonPair, "_closed_matrix", corrupted)
        slot = "phi" if entry // 5 < 3 else "psi"
        for field in (exact, big):
            for q, c in ((4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
                         (1, (2, Fraction(1, 3), Fraction(-1, 4)))):
                with pytest.raises(InternalCheckError, match=rf"{slot}\^\[1\]"):
                    regularity(readme_pair(Lattice(field, q, c)), 3)


class TestClosedFormTTRR:
    @pytest.mark.parametrize("lattice_name", ["gen", "sym", "quad", *EVERY_KIND])
    def test_matches_moment_oracle_exactly(self, request, exact, lattice_name):
        if lattice_name in EVERY_KIND:
            lat = Lattice(exact, *EVERY_KIND[lattice_name])
        else:
            lat = request.getfixturevalue(f"{lattice_name}_lattice")
        pair = sample_pair(lat)
        closed = ttrr_from_pearson(pair)
        oracle = ttrr_oracle(pair.moments(), 10)
        for n in range(11):
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

    @staticmethod
    def _d_zero_pair(lat, exact, k):
        """a/d = -alpha_k/gamma_k, so d_k = a gamma_k + d alpha_k = 0."""
        con = lat.constants
        return PearsonPair(lat, Polynomial(exact, (1, 0, -con.alpha_n(k))),
                           Polynomial(exact, (0, con.gamma_n(k))))

    def test_admissibility_failure_verdict(self, gen_lattice, exact):
        rep = regularity(self._d_zero_pair(gen_lattice, exact, 2), 6)
        assert not rep.regular
        assert rep.verdict == "fails-admissibility-at-2"

    def test_c2_of_a_zero_d2_is_an_admissibility_error(self, gen_lattice, exact):
        """C_2 reads the witness of level 1, whose point divides by d_2."""
        with pytest.raises(AdmissibilityError) as err:
            ttrr_from_pearson(self._d_zero_pair(gen_lattice, exact, 2)).c(2)
        assert err.value.n == 2

    def test_rows_stop_below_half_the_zero_of_d_n(self, gen_lattice, exact):
        """With d_3 = 0, level n needs d_2n: levels 0 and 1 are rows, level 2 is not."""
        pair = self._d_zero_pair(gen_lattice, exact, 3)
        rep = regularity(pair, 4)
        assert rep.admissibility_first_zero == 3
        assert [row.n for row in rep.rows] == [0, 1]

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_admissibility_zero_at_the_top_of_the_scan(self, exact, n_max):
        """The first zero of d_n at n0 = 2 N + 1 is the last index the scan reads;
        one at 2 N + 2 lies beyond it."""
        lat = Lattice(exact, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
        con = lat.constants
        a = Fraction(2, 3)

        def zero_at(n0):
            d = -a * con.gamma_n(n0) / con.alpha_n(n0)
            return PearsonPair(lat, Polynomial(exact, (Fraction(1, 3), Fraction(-1, 3), a)),
                               Polynomial(exact, (Fraction(5, 3), d)))

        n0 = 2 * n_max + 1
        pair = zero_at(n0)
        assert regularity(pair, n_max).verdict == f"fails-admissibility-at-{n0}"
        assert regularity(zero_at(n0 + 1), n_max).verdict == "regular-through-horizon"
        # the moment route stops at the same n: moment n0 + 1 needs 1/d_(n0)
        with pytest.raises(AdmissibilityError) as err:
            pair.moments().moments(n0 + 2)
        assert err.value.n == n0

    def test_witness_point_formula(self, gen_lattice):
        pair = sample_pair(gen_lattice)
        c3 = gen_lattice.c[2]
        for n in range(5):
            expected = c3 - pair.e_value(n) / pair.d_value(2 * n)
            assert witness_point(pair, n) == expected

    def test_witness_point_formula_quadratic(self, quad_lattice):
        """The witness point against its q = 1 form -beta n^2 - e_n/d_2n."""
        pair = sample_pair(quad_lattice)
        beta = quad_lattice.constants.beta
        for n in range(5):
            expected = -beta * (n * n) - pair.e_value(n) / pair.d_value(2 * n)
            assert witness_point(pair, n) == expected

    def test_witness_is_phi_k_root_detector(self, sym_lattice):
        """witness_zero flags exactly the roots of phi^[n] at the witness."""
        construct = solve_first_characterization(sym_lattice, Fraction(-225, 128))
        pair = construct.pair
        phi2, _ = pair.iterated(2)
        assert phi2(witness_point(pair, 2)) == pair.field.zero

    def test_bigfloat_witness_is_measured_against_phi_n(self, exact, big):
        """The zero test of a witness measures it against phi^[n]'s coefficients,
        and not against psi^[n]'s, so 128 bits read the exact verdicts.

        On symmetric q = 1/9 the first pair's witness at level 4 is 0 exactly
        and about 1.3e-25 at 128 bits, a zero only against phi^[4] (c about
        2e13).  The second pair's witness at level 0 is phi(-1) = 1e-20, not
        a zero against phi = (z + 1)^2 + 1e-20, but one against psi's
        e = 1e10."""
        c = Fraction(68376582473665528249708960000000000, 3291687882793454647347)
        cases = [
            (PEARSON_LATTICES[2], (c, Fraction(2000000000, 3), 8000000000),
             (8000000000, 3500000000), 6, "zero-witness-at-4"),
            (PEARSON_LATTICES[0], (1 + Fraction(1, 10**20), 2, 1), (10**10, 10**10), 3,
             "regular-through-horizon"),
        ]
        for spec, phi, psi, n_max, verdict in cases:
            for field in (exact, big):
                lat = Lattice.from_json(field, spec)
                pair = PearsonPair(lat, Polynomial(field, phi), Polynomial(field, psi))
                assert regularity(pair, n_max).verdict == verdict, (field, verdict)
        pair = PearsonPair(Lattice.from_json(big, PEARSON_LATTICES[2]),
                           Polynomial(big, cases[0][1]), Polynomial(big, cases[0][2]))
        assert not big.is_zero(pair.witness(4))
        # the scale is read off the packed row: phi^[n]'s c, b and a, all three
        for field in (exact, big):
            pair = readme_pair(Lattice.from_json(field, PEARSON_LATTICES[1]))
            for n in range(6):
                scale = classical._phi_coeffs(field, pair._level(n))
                assert list(scale) == list(pair.iterated(n)[0].coeffs), (field, n)


class TestMemo:
    LATTICES = ((4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
                (1, (2, Fraction(1, 3), Fraction(-1, 4))),
                (Fraction(1, 9), (Fraction(1, 2), Fraction(1, 2), 0)))

    @staticmethod
    def corrupt_phi_row(monkeypatch, weights):
        """Add weights(lat) to the first row of M, the one of phi's c."""
        original = PearsonPair._closed_matrix

        def corrupted(self):
            values, den = original(self)
            return [v + w * den for v, w in zip(values, weights(self.lattice))] + values[5:], den

        monkeypatch.setattr(PearsonPair, "_closed_matrix", corrupted)

    def test_closed_reads_first_keep_the_recursion_check(self, exact, monkeypatch):
        """C_1, the witness and its point at level 0, the iterated pairs and
        regularity each read the closed rows through the one check, whichever
        reads a fresh pair first."""
        self.corrupt_phi_row(monkeypatch, lambda lat: (1, 0, 0, 0, 0))
        reads = (lambda pair: ttrr_from_pearson(pair).c(1), lambda pair: pair.witness(0),
                 lambda pair: witness_point(pair, 0), lambda pair: pair.iterated(2),
                 lambda pair: regularity(pair, 0))
        for q, c in self.LATTICES:
            for read in reads:
                with pytest.raises(InternalCheckError, match=r"phi\^\[1\] closed form"):
                    read(readme_pair(Lattice(exact, q, c)))

    @staticmethod
    def null_weights(lat):
        """Integer weights w != 0 with w . level_row(k) = 0 for k = 1..4, by
        exact elimination over Fraction."""
        m = [[Fraction(v, den) for v in values]
             for values, den in map(lat.constants.level_row, range(1, 5))]
        pivots = []
        for col in range(5):
            r = len(pivots)
            pivot = next((i for i in range(r, 4) if m[i][col]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            m[r] = [x / m[r][col] for x in m[r]]
            m = [row if i == r else [x - row[col] * y for x, y in zip(row, m[r])]
                 for i, row in enumerate(m)]
            pivots.append(col)
        assert len(pivots) == 4, "level rows 1..4 are independent"
        free = next(col for col in range(5) if col not in pivots)
        w = [Fraction(col == free) for col in range(5)]
        for r, col in enumerate(pivots):
            w[col] = -m[r][free]
        scale = math.lcm(*(x.denominator for x in w))
        return [int(x * scale) for x in w]

    def test_the_check_reaches_level_five(self, exact, monkeypatch):
        """M plus weights that vanish on level rows 1..4 agrees with the
        recursion through level 4; the check must go on to find level 5."""
        self.corrupt_phi_row(monkeypatch, self.null_weights)
        for q, c in self.LATTICES:
            pair = readme_pair(Lattice(exact, q, c))
            assert any(self.null_weights(pair.lattice))
            with pytest.raises(InternalCheckError, match=r"phi\^\[5\] closed form"):
                regularity(pair, 0)

    @pytest.mark.parametrize("backend", ["exact", "bigfloat"])
    @pytest.mark.parametrize("spec", [
        (4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
        (1, (2, Fraction(1, 3), Fraction(-1, 4))),
    ])
    def test_memo_does_not_depend_on_call_order(self, backend, spec):
        field = make_field(backend, precision=128)
        q, c = spec
        top = 12

        def read(order):
            lat = Lattice(field, q, c)
            pair = PearsonPair(lat, Polynomial(field, (Fraction(7, 10), Fraction(-1, 3),
                                                       Fraction(2, 7))),
                               Polynomial(field, (Fraction(1, 2), Fraction(3, 4))))
            con = lat.constants
            values = {n: (pair.d_value(n), pair.e_value(n), con.gamma_n(n), con.alpha_n(n))
                      for n in order}
            # a second read returns the memo
            assert all(a is b for n in order for a, b in zip(
                values[n], (pair.d_value(n), pair.e_value(n), con.gamma_n(n), con.alpha_n(n))))
            return values

        up = read(range(-1, top))
        down = read(range(top - 1, -2, -1))
        assert up == down


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
    def test_q_below_one_limits(self):
        big = make_field("bigfloat", precision=512)
        lat = Lattice(big, Fraction(1, 2), (Fraction(1, 2), Fraction(1, 2), 0))
        rep = asymptotics(sample_pair(lat), 300)
        assert rep.ratio_error < 1e-6
        assert big.magnitude(rep.series_estimate - rep.series_value) < 1e-6

    def test_q_above_one_limits(self):
        big = make_field("bigfloat", precision=512)
        lat = Lattice(big, 2, (Fraction(1, 2), Fraction(1, 2), 0))
        rep = asymptotics(sample_pair(lat), 300)
        assert rep.ratio_error < 1e-6
        assert big.magnitude(rep.series_estimate - rep.series_value) < 1e-6

    def test_q_above_one_limits_match_the_per_kind_formula(self, exact):
        """On the exact q = 4 lattice, the limits stated for |q| < 1 and read at
        t -> 1/t equal their q > 1 forms, written in t."""
        lat = Lattice(exact, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
        pair = sample_pair(lat)
        t, q = lat.sqrt_q, lat.q
        c3 = lat.c[2]
        phid_c3, psi_c3 = pair.phi.derivative()(c3), pair.psi(c3)
        uval = 1 / (t - 1 / t)
        denom = pair.d + 2 * pair.a * uval
        numer = psi_c3 - 4 * lat.constants.alpha * uval * uval * phid_c3
        rep = asymptotics(pair, 6)
        assert rep.ratio_limit == t * numer / (uval * denom)
        assert rep.series_value == (psi_c3 + 2 * uval * phid_c3) / ((1 / q - 1) * denom)

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

    def test_zero_denominator_reports_only_the_kind(self, exact, sym_lattice):
        """On q = 1/4, phi = 3z^2 + 1 and psi = -4z + 1/3 give d - 2a/(t - 1/t) = 0:
        the limits are not defined, and the report holds only its kind."""
        pair = PearsonPair(sym_lattice, Polynomial(exact, (1, 0, 3)),
                           Polynomial(exact, (Fraction(1, 3), -4)))
        blob = asymptotics(pair, 20).to_json(exact)
        assert blob.pop("kind") == "q-quadratic"
        assert blob and set(blob.values()) == {None}

    def test_the_least_index_is_read(self, exact, sym_lattice, quad_lattice):
        """n_eval = 0 on a q-lattice and 1 on a quadratic one, the least index
        each accepts, give estimates (the CLI tests cover the refusals)."""
        assert asymptotics(sample_pair(sym_lattice), 0).ratio_estimate is not None
        assert asymptotics(sample_pair(quad_lattice), 1).b_scaled_estimate is not None

    def test_linear_lattice_rejected(self, lin_lattice):
        with pytest.raises(LatticeError):
            asymptotics(sample_pair(lin_lattice), 100)
