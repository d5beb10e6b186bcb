from __future__ import annotations

from fractions import Fraction

import pytest

from latticeops import (
    HorizonError,
    Lattice,
    NotRegularError,
    OPSequence,
    Polynomial,
    TTRRCoeffs,
    check_meixner_linear,
    check_structure,
    check_system,
    counterexample_ttrr,
    make_family,
    make_field,
    pearson_from_ttrr,
    regularity,
    solve_first_characterization,
    solve_relation,
    system_constants,
    ttrr_from_pearson,
    ttrr_oracle,
    witness_point,
)
from latticeops.lattice import LatticeError


def sym_lattice_at(field, q):
    return Lattice(field, q, (Fraction(1, 2), Fraction(1, 2), 0))


class TestCounterexample:
    """The printed 4-term divided-difference relation for the symmetric
    continuous dual q^(1/2)-Hahn data with parameters (1, -1, q^(1/4))."""

    @pytest.mark.parametrize("q", [Fraction(1, 16), Fraction(1, 81)])
    def test_exact_zero_residual(self, exact, q):
        lat = sym_lattice_at(exact, q)
        rep = check_structure(lat, None, "counterexample4term", 8)
        assert rep.passed
        assert rep.residuals == [0.0] * len(rep.residuals)

    @pytest.mark.parametrize("q", [Fraction(1, 4), Fraction(1, 9)])
    def test_bigfloat_residual(self, q):
        big = make_field("bigfloat", precision=192)
        lat = sym_lattice_at(big, q)
        rep = check_structure(lat, None, "counterexample4term", 10)
        assert rep.passed
        assert max(rep.residuals) < 1e-25

    def test_b0_is_fourth_root_of_q(self, exact):
        lat = sym_lattice_at(exact, Fraction(1, 16))
        ttrr = counterexample_ttrr(lat)
        assert ttrr.b(0) == exact(Fraction(1, 2))  # (1/16)^(1/4)

    def test_needs_symmetric_lattice(self, gen_lattice):
        with pytest.raises(LatticeError):
            counterexample_ttrr(gen_lattice)

    def test_report_identifies_relation(self, exact):
        lat = sym_lattice_at(exact, Fraction(1, 16))
        rep = check_structure(lat, None, "counterexample4term", 4)
        assert rep.to_json()["name"] == "counterexample4term"

    def test_quarter_root_taken_once_per_lattice(self, monkeypatch):
        field = make_field("exact")
        lat = sym_lattice_at(field, Fraction(1, 16))
        roots = []
        sqrt = field.sqrt
        monkeypatch.setattr(field, "sqrt", lambda v: roots.append(v) or sqrt(v))
        assert check_structure(lat, None, "counterexample4term", 4).passed
        counterexample_ttrr(lat)
        assert roots == [lat.sqrt_q]


class TestLowerRelation:
    def test_q_hermite_passes(self, sym_lattice, exact):
        spec = make_family("q_hermite", sym_lattice, ())
        seq = OPSequence(exact, spec.ttrr)
        rep = check_structure(sym_lattice, seq, "lower", 12)
        assert rep.passed and rep.first_fail is None

    def test_q_hermite_c_closed_form(self, sym_lattice, exact):
        spec = make_family("q_hermite", sym_lattice, ())
        c1c2 = sym_lattice.c[0] * sym_lattice.c[1]
        q = sym_lattice.q
        for n in range(10):
            assert spec.ttrr.c(n + 1) == (exact.one - q ** (n + 1)) * c1c2

    def test_chebyshev_fails_at_two(self, sym_lattice, exact):
        spec = make_family("chebyshev_u", sym_lattice, ())
        seq = OPSequence(exact, spec.ttrr)
        rep = check_structure(sym_lattice, seq, "lower", 8)
        assert not rep.passed
        assert rep.first_fail == 2

    def test_pair_reproduces_q_hermite(self, sym_lattice, exact):
        """The pair the lower relation forces regenerates the recurrence."""
        qh = make_family("q_hermite", sym_lattice, ()).ttrr
        pair = pearson_from_ttrr(
            sym_lattice, "lower", qh.b(0), qh.c(1), qh.b(1), qh.c(2)
        )
        pipe = ttrr_from_pearson(pair)
        for n in range(10):
            assert pipe.b(n) == qh.b(n)
            assert pipe.c(n) == qh.c(n)


class TestSystem:
    def test_q_hermite_passes_with_zero_k1(self, sym_lattice, exact):
        qh = make_family("q_hermite", sym_lattice, ()).ttrr
        rep = check_system(sym_lattice, qh, 10)
        assert rep.passed
        assert system_constants(sym_lattice, qh)[0] == exact.zero
        assert rep.residuals == [0.0] * 5

    def test_chebyshev_passes(self, sym_lattice):
        cheb = make_family("chebyshev_u", sym_lattice, ()).ttrr
        rep = check_system(sym_lattice, cheb, 10)
        assert rep.passed

    def test_fitted_constants_match_displayed_formulas(self, sym_lattice, exact):
        qh = make_family("q_hermite", sym_lattice, ()).ttrr
        k1, k2 = system_constants(sym_lattice, qh)
        q = sym_lattice.q
        sq = sym_lattice.sqrt_q
        c1, c2 = qh.c(1), qh.c(2)
        assert k1 == ((exact.one + q) * c1 - c2) / (sq * (q - exact.one) * c1 * c2)
        assert k2 == ((exact.one / q + exact.one) * c1 - c2) / (
            (exact.one / sq) * (exact.one / q - exact.one) * c1 * c2
        )

    def test_t_closed_form_holds_where_eq2_does(self, sym_lattice, exact):
        """t_0 = 2 alpha t_1 - t_2 is k1 + k2 for every recurrence, and where
        eq2 holds t_n = k1 q^(n/2) + k2 q^(-n/2) for every n."""
        con = sym_lattice.constants
        sq = sym_lattice.sqrt_q
        cdq = make_family("cdq_hahn", sym_lattice, (Fraction(1, 2), Fraction(1, 3), 0)).ttrr
        qh = make_family("q_hermite", sym_lattice, ()).ttrr
        for ttrr in (cdq, qh):
            t1, t2 = (con.gamma_n(n) / ttrr.c(n) for n in (1, 2))
            assert sum(system_constants(sym_lattice, ttrr)) == 2 * con.alpha * t1 - t2
        assert check_system(sym_lattice, cdq, 6).first_fail == 1
        assert check_system(sym_lattice, qh, 10).passed
        k1, k2 = system_constants(sym_lattice, qh)
        for n in range(1, 11):
            assert con.gamma_n(n) / qh.c(n) == k1 * sq**n + k2 / sq**n

    @pytest.mark.parametrize("n_max, first_fail", [(0, None), (1, None), (2, 4)])
    def test_small_horizons_have_five_slots(self, sym_lattice, n_max, first_fail):
        """Below n_max = 2 no equation has a row; at 2, eq5 has its first."""
        cdq = make_family("cdq_hahn", sym_lattice, (Fraction(1, 2), Fraction(1, 3), 0)).ttrr
        rep = check_system(sym_lattice, cdq, n_max)
        assert len(rep.residuals) == 5 and rep.first_fail == first_fail

    @pytest.mark.parametrize("backend", ["exact", "big"])
    def test_zero_c1_is_a_value_error(self, request, backend):
        """al_salam(2, 1/2) has C_1 = (1 - ab)(1 - q)/4 = 0, so t_1 is undefined."""
        lat = sym_lattice_at(request.getfixturevalue(backend), Fraction(1, 4))
        ttrr = make_family("al_salam", lat, (2, Fraction(1, 2))).ttrr
        for n_max in (0, 6):
            with pytest.raises(ValueError, match="C_1 = 0"):
                check_system(lat, ttrr, n_max)
        with pytest.raises(ValueError, match="C_1 = 0"):
            system_constants(lat, ttrr)

    @pytest.mark.parametrize("bump", [Fraction(1, 10), Fraction(1, 10**400)])
    def test_exact_verdict_sees_a_raised_b3(self, sym_lattice, exact, bump):
        """q-Hermite with B_3 raised by `bump` breaks the system.

        A bump of 10^-400 is below the float range: every reported residual
        underflows to 0.0, and the verdict must still come out False.
        """
        qh = make_family("q_hermite", sym_lattice, ()).ttrr
        ttrr = TTRRCoeffs(exact, lambda n: qh.b(n) + (bump if n == 3 else 0), qh.c)
        rep = check_system(sym_lattice, ttrr, 10)
        assert not rep.passed
        if bump < Fraction(1, 10**308):
            assert rep.residuals == [0.0] * 5

    def test_failed_exact_report_names_the_underflowing_value(self, sym_lattice, exact):
        """q-Hermite with B_3 + 10^-400: every float residual reads 0.0, yet
        the failed reports name an exactly nonzero value."""
        qh = make_family("q_hermite", sym_lattice, ()).ttrr
        bump = Fraction(1, 10**400)
        ttrr = TTRRCoeffs(exact, lambda n: qh.b(n) + (bump if n == 3 else 0), qh.c)
        lower = check_structure(sym_lattice, OPSequence(exact, ttrr), "lower", 6)
        system = check_system(sym_lattice, ttrr, 10)
        assert lower.residuals == [0.0] * 7
        assert system.residuals == [0.0] * 5
        assert lower.first_fail == 3 and system.first_fail == 2  # eq3
        for rep in (lower, system):
            assert not rep.passed
            assert exact.from_json(rep.failing["value"]) != exact.zero

    @staticmethod
    def _q_hermite_c_with_offsets(lat, exact, offsets):
        """q-Hermite's C_1..C_(N+1) with B_n = c3 + offsets[n], n <= N."""
        qh = make_family("q_hermite", lat, ()).ttrr
        return TTRRCoeffs.from_lists(exact, [lat.c[2] + b for b in offsets],
                                     [qh.c(n) for n in range(1, len(offsets) + 1)])

    def test_b_offsets_solving_eq3_fail_eq4_first(self, sym_lattice, exact):
        """B_n - c3 != 0, stepped by eq3 from B_0 - c3 = 1/3 and B_1 - c3 = -1/5:
        eq1 and eq2 hold through q-Hermite's C_n, eq3 through the step, and eq4
        fails at n = 2 by -t_2 (b_2^2 - 2 alpha b_2 b_1 + b_1^2)."""
        con = sym_lattice.constants
        qh = make_family("q_hermite", sym_lattice, ()).ttrr
        t = [None] + [con.gamma_n(n) / qh.c(n) for n in range(1, 10)]
        t[0] = 2 * con.alpha * t[1] - t[2]
        b = [Fraction(1, 3), Fraction(-1, 5)]
        for n in range(7):
            b.append(((t[n + 2] + t[n + 1]) * b[n + 1] - t[n] * b[n]) / t[n + 3])
        rep = check_system(sym_lattice, self._q_hermite_c_with_offsets(sym_lattice, exact, b), 8)
        eq4 = -t[2] * (b[2] ** 2 - 2 * con.alpha * b[2] * b[1] + b[1] ** 2)
        assert rep.residuals[:3] == [0.0] * 3
        assert (rep.first_fail, rep.failing) == (3, {"index": 0, "value": "11/54"})
        assert exact.from_json(rep.failing["value"]) == eq4

    def test_geometric_b_offsets_fail_only_eq5(self, sym_lattice, exact):
        """B_n - c3 = q^(n/2)/3 makes eq4's right side vanish (q^(1/2) is a root of
        x^2 - 2 alpha x + 1) and, with t_n = k2 q^(-n/2), holds eq3: only eq5 fails."""
        b = [Fraction(1, 3) * sym_lattice.sqrt_q ** n for n in range(9)]
        rep = check_system(sym_lattice, self._q_hermite_c_with_offsets(sym_lattice, exact, b), 8)
        assert rep.residuals[:4] == [0.0] * 4
        assert (rep.first_fail, rep.failing) == (4, {"index": 6, "value": "65149/98304"})

    def test_rejected_off_q_lattices(self, quad_lattice, exact):
        ttrr = make_family("meixner2", quad_lattice, (Fraction(1, 2), 3)).ttrr
        with pytest.raises(LatticeError):
            check_system(quad_lattice, ttrr, 6)
        with pytest.raises(LatticeError):
            system_constants(quad_lattice, ttrr)

    def test_report_serialization(self, sym_lattice, exact):
        qh = make_family("q_hermite", sym_lattice, ()).ttrr
        blob = check_system(sym_lattice, qh, 6).to_json()
        assert blob["passed"] is True
        assert blob["name"] == "system"
        assert len(blob["residuals"]) == 5  # eq1..eq5


class TestRaisingConstruction:
    def test_solution_from_c1(self, sym_lattice, exact):
        fc = solve_first_characterization(sym_lattice, Fraction(-9, 32))
        assert fc.r == exact(2)
        assert fc.kappa == exact.zero
        assert fc.excluded_index is None

    def test_both_branches_recover_c1(self, sym_lattice, exact):
        c1 = exact(Fraction(-9, 32))
        plus = solve_first_characterization(sym_lattice, Fraction(-9, 32), branch="+")
        minus = solve_first_characterization(sym_lattice, Fraction(-9, 32), branch="-")
        assert plus.r == exact(2) and minus.r == exact(-2)
        assert plus.c1 == c1 and minus.c1 == c1

    def test_closed_recurrence_matches_pipeline(self, sym_lattice):
        fc = solve_first_characterization(sym_lattice, Fraction(-9, 32))
        for m in range(1, 10):
            assert fc.ttrr.c(m) == fc.c_closed(m)

    def test_b_equals_lattice_offset(self, sym_lattice, exact):
        fc = solve_first_characterization(sym_lattice, Fraction(-9, 32))
        for n in range(10):
            assert fc.ttrr.b(n) == sym_lattice.c[2]

    def test_witness_values_match_closed_form(self, sym_lattice):
        fc = solve_first_characterization(sym_lattice, Fraction(-9, 32))
        pair = fc.pair
        for n in range(8):
            phin, _ = pair.iterated(n)
            assert phin(witness_point(pair, n)) == fc.witness_closed(n)

    def test_construction_is_regular(self, sym_lattice):
        fc = solve_first_characterization(sym_lattice, Fraction(-9, 32))
        assert regularity(fc.pair, 8).regular

    def test_matches_askey_wilson_parameters(self):
        """C_m agrees with askey_wilson(sqrt(r), -sqrt(r), i/sqrt(rq), -i/sqrt(rq))."""
        big = make_field("bigfloat", precision=192)
        lat = sym_lattice_at(big, Fraction(1, 4))
        fc = solve_first_characterization(lat, Fraction(-9, 32))
        root_r = big.sqrt(fc.r)
        root_rq = big.sqrt(fc.r * lat.q)
        aw = make_family(
            "askey_wilson",
            lat,
            (root_r, -root_r, big.i / root_rq, -big.i / root_rq),
        ).ttrr
        for m in range(1, 12):
            assert big.magnitude(aw.c(m) - fc.ttrr.c(m)) < 1e-25
        for n in range(11):
            assert big.magnitude(aw.b(n) - fc.ttrr.b(n)) < 1e-25

    def test_raising_relation_first_failure_is_slot_three(self, sym_lattice, exact):
        """The constructed family satisfies the raising relation at slots
        0..2 and breaks it at slot 3, where the relation forces a different
        C_3 (see TestSolveRelation).  The family is still regular, matches
        its closed recurrence and matches the Askey-Wilson data."""
        fc = solve_first_characterization(sym_lattice, Fraction(-9, 32))
        seq = OPSequence(exact, fc.ttrr)
        rep = check_structure(sym_lattice, seq, "sx_raise", 6)
        assert rep.first_fail == 3

    def test_excluded_parameter_detected(self, sym_lattice):
        """C_1 = -225/128 puts r on the excluded list (r = q^(n-1) at n = 2)
        and the resulting functional is not regular: C_3 = 0."""
        fc = solve_first_characterization(sym_lattice, Fraction(-225, 128))
        assert fc.excluded_index == 2
        assert not regularity(fc.pair, 6).regular
        with pytest.raises(NotRegularError):
            ttrr_oracle(fc.pair.moments(), 6)

    def test_quadratic_lattice_rejected(self, quad_lattice):
        with pytest.raises(LatticeError):
            solve_first_characterization(quad_lattice, Fraction(1, 2))

    def test_forced_pair_is_the_constructed_pair_negated(self, sym_lattice):
        """At B_0 = c3 the pair the raising relation forces from C_1 is -1
        times the pair built from C_1, so both give one recurrence."""
        forced = pearson_from_ttrr(sym_lattice, "sx_raise", sym_lattice.c[2], Fraction(-9, 32))
        fc = solve_first_characterization(sym_lattice, Fraction(-9, 32))
        assert (forced.phi, forced.psi) == (-fc.pair.phi, -fc.pair.psi)
        ttrr = ttrr_from_pearson(forced)
        for n in range(11):
            assert (ttrr.b(n), ttrr.c(n)) == (fc.ttrr.b(n), fc.ttrr.c(n))

    @pytest.mark.parametrize("q, c", [
        (Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0)),
        (4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
        (Fraction(1, 9), (0, Fraction(1, 3), Fraction(2, 7))),
        (1, (2, Fraction(1, 3), Fraction(-1, 4))),
        (1, (0, 1, 0)),
    ])
    def test_forced_pair_matches_the_per_kind_formula(self, exact, q, c):
        """(U1 (z - B_0) + C_1)/alpha against its per-kind forms:
        (alpha - 1/alpha)(z - c3)(z - B_0) + C_1/alpha on q-lattices and
        2 beta (z - B_0) + C_1 when q = 1."""
        lat = Lattice(exact, q, c)
        b0, c1 = Fraction(2, 7), Fraction(-3, 5)
        alpha, beta = lat.constants.alpha, lat.constants.beta
        z = Polynomial(exact, (0, 1))
        if lat.is_q_lattice:
            expected = (alpha - 1 / alpha) * ((z - lat.c[2]) * (z - b0)) + c1 / alpha
        else:
            expected = 2 * beta * (z - b0) + c1
        pair = pearson_from_ttrr(lat, "sx_raise", b0, c1)
        assert pair.phi == expected
        assert pair.psi == Polynomial(exact, (b0, -1))

    def test_forced_pair_returns_b0_and_c1(self, exact):
        lat = Lattice(exact, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
        b0, c1 = Fraction(1, 3), Fraction(-2, 5)
        ttrr = ttrr_from_pearson(pearson_from_ttrr(lat, "sx_raise", b0, c1))
        assert (ttrr.b(0), ttrr.c(1)) == (exact(b0), exact(c1))


class TestSolveRelation:
    """The relation-first route: the TTRR a relation forces from B_0, C_1."""

    def test_lower_reproduces_q_hermite(self, sym_lattice):
        qh = make_family("q_hermite", sym_lattice, ()).ttrr
        sol = solve_relation(sym_lattice, "lower", qh.b(0), qh.c(1), 12)
        assert sol.first_fail is None
        for n in range(13):
            assert sol.ttrr.b(n) == qh.b(n)
            assert sol.ttrr.c(n) == qh.c(n)
        # a solve that passes stores B_0..B_(n_max) and C_1..C_(n_max), no more
        for read in (sol.ttrr.b, sol.ttrr.c):
            with pytest.raises(HorizonError):
                read(13)

    def test_raise_reproduces_meixner_image_on_linear_lattice(self, lin_lattice):
        from latticeops.characterize import meixner_image_ttrr

        img = meixner_image_ttrr(lin_lattice, Fraction(1, 3), Fraction(2, 5))
        sol = solve_relation(lin_lattice, "sx_raise", Fraction(1, 3), Fraction(2, 5), 9)
        assert sol.first_fail is None
        for n in range(10):
            assert sol.ttrr.b(n) == img.b(n)
            assert sol.ttrr.c(n) == img.c(n)

    def test_raise_has_no_solution_on_quadratic_lattice(self, quad_lattice):
        sol = solve_relation(quad_lattice, "sx_raise", Fraction(1, 3), Fraction(2, 5), 9)
        assert sol.first_fail == 3

    @pytest.mark.parametrize("q, c", [
        (Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0)),
        (Fraction(1, 9), (Fraction(1, 2), Fraction(1, 2), 0)),
        (Fraction(4, 9), (Fraction(1, 2), Fraction(1, 2), 0)),
        (4, (Fraction(1, 2), Fraction(1, 2), 0)),
        (4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
    ])
    @pytest.mark.parametrize("c1", [Fraction(-9, 32), Fraction(2, 5)])
    def test_raise_has_no_solution_on_q_quadratic_lattices(self, exact, q, c, c1):
        """Slot 4 fails at B_0 = c3 and slot 3 at any other B_0, in the
        lowest coefficient."""
        lat = Lattice(exact, q, c)
        c3 = lat.c[2]
        sol = solve_relation(lat, "sx_raise", c3, c1, 10)
        assert (sol.first_fail, sol.failing_degree) == (4, 0)
        assert sol.residual != exact.zero
        off = solve_relation(lat, "sx_raise", c3 + Fraction(1, 3), c1, 10)
        assert (off.first_fail, off.failing_degree) == (3, 0)

    def test_checker_agrees_on_the_forced_family(self, sym_lattice, exact):
        """The forced B_n, C_n pass check_structure at every slot the solver
        found consistent and fail it at the slot it did not."""
        sol = solve_relation(sym_lattice, "sx_raise", 0, Fraction(-9, 32), 10)
        rep = check_structure(sym_lattice, OPSequence(exact, sol.ttrr), "sx_raise", 4)
        assert rep.first_fail == sol.first_fail == 4
        assert rep.residuals[:4] == [0.0] * 4

    def test_slot_four_roots_are_singular(self, sym_lattice, exact):
        """At the two roots of the slot-4 condition the relation goes on,
        but the forced family has C_2 = 0 or C_3 = 0.  The second root is
        the construction's excluded parameter C_1 = -225/128."""
        q = sym_lattice.q
        one = exact.one
        sol = solve_relation(sym_lattice, "sx_raise", 0, -(q - one) ** 2 / (4 * q), 10)
        assert sol.first_fail == 5 and sol.ttrr.c(2) == exact.zero
        c1 = -(q * q - one) ** 2 / (8 * q * q)
        assert c1 == exact(Fraction(-225, 128))
        sol = solve_relation(sym_lattice, "sx_raise", 0, c1, 10)
        assert sol.first_fail == 6 and sol.ttrr.c(3) == exact.zero

    def test_rejections(self, sym_lattice):
        with pytest.raises(ValueError):
            solve_relation(sym_lattice, "counterexample4term", 0, 1, 4)
        big_lat = sym_lattice_at(make_field("bigfloat", precision=128), Fraction(1, 4))
        with pytest.raises(ValueError):
            solve_relation(big_lat, "sx_raise", 0, 1, 4)


class TestMeixnerKindImage:
    def test_linear_lattice_passes(self, lin_lattice):
        rep = check_meixner_linear(lin_lattice, Fraction(1, 3), Fraction(2, 5), 10)
        assert rep.passed and rep.first_fail is None

    def test_linear_pair_reproduces_image(self, lin_lattice, exact):
        from latticeops.characterize import meixner_image_ttrr

        img = meixner_image_ttrr(lin_lattice, Fraction(1, 3), Fraction(2, 5))
        pair = pearson_from_ttrr(lin_lattice, "sx_raise", Fraction(1, 3), Fraction(2, 5))
        pipe = ttrr_from_pearson(pair)
        for n in range(9):
            assert pipe.b(n) == img.b(n)
            assert pipe.c(n) == img.c(n)

    def test_quadratic_lattice_fails_early(self, quad_lattice):
        rep = check_meixner_linear(quad_lattice, Fraction(1, 3), Fraction(2, 5), 5)
        assert not rep.passed
        assert rep.first_fail is not None and rep.first_fail <= 3

    def test_integral_ratio_rejected(self, lin_lattice):
        # 4 C_1 / c5^2 = 2 collides with a vanishing C_3
        with pytest.raises(ValueError):
            check_meixner_linear(lin_lattice, Fraction(0), Fraction(1, 2), 10)

    def test_q_lattice_rejected(self, sym_lattice):
        with pytest.raises(LatticeError):
            check_meixner_linear(sym_lattice, Fraction(0), Fraction(2, 5), 6)

    def test_backends_agree_on_a_vanishing_c_m(self, exact, big):
        """C_m = m (C_1 - (m - 1) c5^2/4) vanishes exactly when 4 C_1/c5^2 is an
        integer; both backends must reject the same points of the scan."""

        def outcome(field, d, k):
            lat = Lattice(field, 1, (0, Fraction(1, d), 0))
            try:
                return check_meixner_linear(lat, Fraction(1, 3), Fraction(k, 4 * d * d), 6).passed
            except ValueError:
                return "C_m = 0"

        points = [(d, k) for d in range(3, 14) for k in range(1, 8)]
        assert [outcome(exact, d, k) for d, k in points] == [
            outcome(big, d, k) for d, k in points]
        assert outcome(big, 7, 1) == "C_m = 0"


class TestStructureDispatch:
    def test_unknown_relation(self, sym_lattice, exact):
        seq = OPSequence(exact, make_family("q_hermite", sym_lattice, ()).ttrr)
        with pytest.raises(ValueError):
            check_structure(sym_lattice, seq, "telescoping", 5)

    def test_report_json_shape(self, sym_lattice, exact):
        seq = OPSequence(exact, make_family("q_hermite", sym_lattice, ()).ttrr)
        blob = check_structure(sym_lattice, seq, "lower", 4).to_json()
        assert blob["passed"] is True
        assert blob["name"] == "lower"
        assert len(blob["residuals"]) == 5  # slots 0..n_max inclusive


# -- symbolic certificate for the raising relation ---------------------------
#
# D_x and S_x act here by evaluation at x(s +- 1/2) on the lattice
# x(s) = (q^-s + q^s)/2 + c3, written as Laurent polynomials in z = q^s with
# t = q^(1/2); nothing below goes through latticeops.operators.


def _laurent_mul(a, b):
    out = {}
    for i, u in a.items():
        for j, v in b.items():
            out[i + j] = out[i + j] + u * v if i + j in out else u * v
    return {k: v for k, v in out.items() if v}


def _laurent_add(a, b, scale=1):
    """a + scale * b."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + scale * v if k in out else scale * v
    return {k: v for k, v in out.items() if v}


def _laurent_pow(a, k, one):
    out = {0: one}
    for _ in range(k):
        out = _laurent_mul(out, a)
    return out


def _in_x_basis(e, x, deg, K):
    """Coefficients r_0..r_deg of the polynomial r with r(x(z)) = e(z)."""
    r = [None] * (deg + 1)
    for m in range(deg, -1, -1):
        r[m] = e[m] * 2**m if m in e else K.zero  # x^m leads with z^m / 2^m
        e = _laurent_add(e, _laurent_pow(x, m, K.one), -r[m])
    assert not e, "not a polynomial in x(s)"
    return r


def _raising_slots(K, t, c3, b0, c1, n_max):
    """Solve the raising relation with symbolic data, slot by slot.

    Returns the forced B_n, C_n (C_0 = 0) and, per slot n, the
    coefficients of degree < n-2 left over: the consistency conditions.
    """
    one = K.one
    x = {-1: one / 2, 0: c3, 1: one / 2}
    x_up = {-1: 1 / (2 * t), 0: c3, 1: t / 2}  # x(s + 1/2)
    x_dn = {-1: t / 2, 0: c3, 1: 1 / (2 * t)}  # x(s - 1/2)
    ups = [_laurent_pow(x_up, k, one) for k in range(n_max + 1)]
    dns = [_laurent_pow(x_dn, k, one) for k in range(n_max + 1)]

    def dx_image(k):  # (X^k - Y^k) / (X - Y) at X = x(s + 1/2), Y = x(s - 1/2)
        e = {}
        for j in range(k):
            e = _laurent_add(e, _laurent_mul(ups[j], dns[k - 1 - j]))
        return _in_x_basis(e, x, k - 1, K)

    def sx_image(k):
        half = one / 2
        return _in_x_basis(_laurent_add({p: half * v for p, v in ups[k].items()}, dns[k], half),
                           x, k, K)

    dx_img = [dx_image(k) for k in range(n_max + 2)]
    sx_img = [sx_image(k) for k in range(n_max + 1)]

    def apply(img, poly, deg):
        out = [K.zero] * (deg + 1)
        for k, a in enumerate(poly):
            for j, w in enumerate(img[k]):
                out[j] += a * w
        return out

    bs, cs, conds = [b0], [K.zero, c1], []
    prev, cur = [], [one]
    for n in range(n_max + 1):
        alpha_n = (t**n + t**-n) / 2
        gamma_n1 = (t ** (n + 1) - t ** -(n + 1)) / (t - 1 / t)
        ratio = gamma_n1 / alpha_n
        base = apply(dx_img, [K.zero] + cur, n)
        base = [u - ratio * v for u, v in zip(base, apply(sx_img, cur, n))]
        d_cur = apply(dx_img, cur, n)
        d_prev = apply(dx_img, prev, n)
        if n >= 1:
            bs.append(base[n - 1] / d_cur[n - 1])
        if n >= 2:
            cs.append((base[n - 2] - bs[n] * d_cur[n - 2]) / d_prev[n - 2])
        c_n = cs[n] if n >= 1 else K.zero
        residual = [u - bs[n] * v - c_n * w for u, v, w in zip(base, d_cur, d_prev)]
        assert not any(residual[max(n - 2, 0):])
        conds.append(residual[: max(n - 2, 0)])
        nxt = [K.zero] + cur
        for k, a in enumerate(cur):
            nxt[k] -= bs[n] * a
        for k, a in enumerate(prev):
            nxt[k] -= c_n * a
        prev, cur = cur, nxt
    return bs, cs, conds


def test_raising_relation_certificate():
    """No regular monic OPS satisfies D_x P_(n+1) = (gamma_(n+1)/alpha_n)
    S_x P_n on a q-quadratic lattice.

    With q = t^2, B_0, C_1 and the offset c3 symbolic: the slot-3 condition
    is (B_0 - c3) C_2 times a factor of t, so a regular solution has
    B_0 = c3; then the slot-4 condition is
    (4 C_1 q + (q-1)^2)(8 C_1 q^2 + (q^2-1)^2) times a factor of t, and the
    two roots are exactly C_2 = 0 and C_3 = 0.  Every factor of t here is
    finite and nonzero at every t > 0 other than t = 1.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.polys.fields import field

    K, t, c3, b0, c1 = field("t,c3,B0,C1", sympy.QQ)
    q = t**2
    t_sym = sympy.Symbol("t")

    def nonzero_factor_of_t(ratio):
        assert ratio != 0
        assert all(ratio.diff(v) == 0 for v in (c3, b0, c1))
        for part in (ratio.numer, ratio.denom):
            roots = sympy.real_roots(sympy.Poly(part.as_expr(), t_sym))
            assert set(roots) <= {-1, 0, 1}
        return True

    _, cs, conds = _raising_slots(K, t, c3, b0, c1, 3)
    assert [len(c) for c in conds] == [0, 0, 0, 1]
    assert nonzero_factor_of_t(conds[3][0] / ((b0 - c3) * cs[2]))

    _, cs, conds = _raising_slots(K, t, c3, c3, c1, 4)
    assert conds[3] == [0]
    root_c2 = 4 * c1 * q + (q - 1) ** 2
    root_c3 = 8 * c1 * q**2 + (q**2 - 1) ** 2
    r0, r1 = conds[4]
    assert r1 == 0
    assert nonzero_factor_of_t(r0 / (root_c2 * root_c3))
    assert nonzero_factor_of_t(cs[2] / root_c2)
    assert nonzero_factor_of_t(cs[3] / root_c3)

    # the exact route's numbers at q = 1/4, C_1 = -9/32 (TestSolveRelation)
    at = {t_sym: sympy.Rational(1, 2), sympy.Symbol("C1"): sympy.Rational(-9, 32),
          sympy.Symbol("c3"): 0}
    assert cs[2].as_expr().subs(at) == sympy.Rational(225, 544)
    assert cs[3].as_expr().subs(at) == sympy.Rational(3969, 3536)
