from __future__ import annotations

from fractions import Fraction

import pytest

from latticeops import (
    FAMILY_NAMES,
    FamilyError,
    Lattice,
    OPSequence,
    Polynomial,
    check_restrictions,
    make_family,
    make_field,
)


def test_registry_contents():
    assert FAMILY_NAMES == (
        "askey_wilson",
        "al_salam",
        "q_hermite",
        "cdq_hahn",
        "meixner2",
        "chebyshev_u",
    )


def test_unknown_family_rejected(sym_lattice):
    with pytest.raises(FamilyError):
        make_family("jacobi", sym_lattice, ())


@pytest.mark.parametrize(
    "name, nparams",
    [
        ("askey_wilson", 4),
        ("al_salam", 2),
        ("q_hermite", 0),
        ("cdq_hahn", 3),
        ("meixner2", 2),
        ("chebyshev_u", 0),
    ],
)
def test_param_count_enforced(sym_lattice, lin_lattice, name, nparams):
    lat = lin_lattice if name == "meixner2" else sym_lattice
    bad = tuple(Fraction(1, 2) for _ in range(nparams + 1))
    with pytest.raises(FamilyError):
        make_family(name, lat, bad)


class TestQHermite:
    def test_frozen_coefficients(self, sym_lattice, exact):
        """C_m = (1 - q^m) c1 c2 at q = 1/4."""
        spec = make_family("q_hermite", sym_lattice, ())
        assert spec.ttrr.b(3) == exact.zero
        assert spec.ttrr.c(1) == exact(Fraction(3, 16))
        assert spec.ttrr.c(4) == exact(Fraction(255, 1024))

    def test_equals_al_salam_at_zero(self, sym_lattice):
        qh = make_family("q_hermite", sym_lattice, ())
        alsc = make_family("al_salam", sym_lattice, (0, 0))
        for n in range(9):
            assert qh.ttrr.b(n) == alsc.ttrr.b(n)
            assert qh.ttrr.c(n) == alsc.ttrr.c(n)

    def test_restrictions_hold(self, sym_lattice):
        rep = check_restrictions(make_family("q_hermite", sym_lattice, ()), 10)
        assert rep.ok and rep.first_violation is None


class TestChebyshevU:
    def test_constant_coefficients(self, gen_lattice, exact):
        spec = make_family("chebyshev_u", gen_lattice, ())
        c1, c2, c3 = gen_lattice.c
        for n in range(8):
            assert spec.ttrr.b(n) == c3
            if n:
                assert spec.ttrr.c(n) == c1 * c2

    def test_symmetric_instance_is_rescaled_chebyshev(self, sym_lattice, exact):
        """On the symmetric lattice these are monic Chebyshev U on [-1, 1]."""
        spec = make_family("chebyshev_u", sym_lattice, ())
        seq = OPSequence(exact, spec.ttrr)
        # monic U_3(z) = z^3 - z/2
        assert seq.p(3) == Polynomial(exact, (0, Fraction(-1, 2), 0, 1))


class TestAskeyWilson:
    def test_frozen_head(self, sym_lattice, exact):
        spec = make_family(
            "askey_wilson",
            sym_lattice,
            (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), Fraction(1, 7)),
        )
        # KLS (14.1.5): A_0 = 819/422, so B_0 = (a1 + 1/a1 - A_0)/2 = 59/211
        assert spec.ttrr.b(0) == exact(Fraction(59, 211))
        assert spec.ttrr.c(1) == exact(Fraction(7351344, 37442161))

    @pytest.mark.parametrize("c, bs, cs", [
        ((Fraction(1, 2), Fraction(1, 2), 0),
         ("66547/1418342", "1802834/180690721", "110131976/46243115521"),
         ("122322002034375/510769073287204",
          "8273114180146227321/33415465854056563204",
          "546126287372222611910625/2189677308134529664819204")),
        ((2, Fraction(1, 2), Fraction(1, 5)),
         ("1041906/3545855", "198719061/903453605", "47344435281/231215577605"),
         ("122322002034375/127692268321801",
          "8273114180146227321/8353866463514140801",
          "546126287372222611910625/547419327033632416204801")),
    ])
    def test_frozen_general_terms(self, exact, c, bs, cs):
        """B_1..B_3 and C_2..C_4 past the n = 0 special cases.

        The literals are KLS (14.1.5) in monic form, B_n = (a1 + 1/a1 - A_n
        - C_n)/2 and C_(n+1) = A_n C_(n+1)/4 with the KLS A_n and C_n,
        mapped by B -> lam B + c3, C -> lam^2 C, lam = 2 sqrt(c1 c2).

        The six pair products of (1/2, -1/3, 1/5, 1/7) are distinct, so a
        factor read with the wrong pair of indices changes these values.
        """
        lat = Lattice(exact, Fraction(1, 4), c)
        spec = make_family(
            "askey_wilson", lat,
            (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), Fraction(1, 7)),
        )
        assert [spec.ttrr.b(n) for n in (1, 2, 3)] == [Fraction(v) for v in bs]
        assert [spec.ttrr.c(m) for m in (2, 3, 4)] == [Fraction(v) for v in cs]

    def test_cdq_hahn_is_fourth_parameter_zero(self, sym_lattice):
        """The three-parameter family is Askey-Wilson at d = 0 (KLS 14.3): B_n and C_m."""
        params3 = (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5))
        hahn = make_family("cdq_hahn", sym_lattice, params3)
        aw = make_family("askey_wilson", sym_lattice, params3 + (0,))
        for m in range(1, 9):
            assert hahn.ttrr.b(m - 1) == aw.ttrr.b(m - 1)
            assert hahn.ttrr.c(m) == aw.ttrr.c(m)

    def test_restriction_scan_flags_bad_product(self, sym_lattice):
        # a1 a2 = q^(-n) collides with the orthogonality restrictions; no other
        # factor vanishes, so only 1 - a1 a2 q^n can report level n (the zero
        # C_m it causes comes one level later)
        for params, n in (((2, 2, 0, 0), 1), ((2, 8, Fraction(1, 3), Fraction(1, 5)), 2)):
            rep = check_restrictions(make_family("askey_wilson", sym_lattice, params), 8)
            assert not rep.ok
            assert rep.first_violation == n, params

    def test_restriction_scans_stop_at_their_last_level(self, sym_lattice, exact):
        """a1 a2 q^3 = 1 for (1/3, 192, 1/5, 1/7) at q = 1/4, and C_4 = 0.

        At n_max = 3 the factor scan reports level 3, one level before the
        C_m scan would report C_4; at n_max = 2 neither scan reaches its zero.
        """
        spec = make_family("askey_wilson", sym_lattice,
                           (Fraction(1, 3), 192, Fraction(1, 5), Fraction(1, 7)))
        assert spec.ttrr.c(4) == 0 and all(spec.ttrr.c(m) != 0 for m in (1, 2, 3))
        rep = check_restrictions(spec, 3)
        assert (rep.ok, rep.first_violation) == (False, 3)
        assert rep.detail == "a parameter product hits q^(-3)"
        assert check_restrictions(spec, 2).ok

    @pytest.mark.parametrize("q", [Fraction(1, 9), Fraction(1, 25), Fraction(1, 36),
                                   Fraction(4, 9), Fraction(9, 25)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_backends_agree_on_a_vanishing_denominator(self, q, n):
        """a1 a2 a3 a4 = q^-(2n-1) zeroes a denominator of B_n and of C_n.

        In bigfloat the factor 1 - a1 a2 a3 a4 q^(2n-1) rounds to a tiny
        nonzero value; it must still count as zero, as it does in exact.
        """
        a4 = 1 / (Fraction(9, 5) * q ** (2 * n - 1))
        params = (Fraction(3, 7), 7, Fraction(3, 5), a4)
        for field in (make_field("exact"), make_field("bigfloat", precision=128)):
            lat = Lattice(field, q, (Fraction(1, 2), Fraction(1, 2), 0))
            spec = make_family("askey_wilson", lat, params)
            rep = check_restrictions(spec, n)
            assert (rep.ok, rep.first_violation) == (False, n), field
            with pytest.raises(FamilyError):
                spec.ttrr.b(n)

    def test_conjugate_parameters_give_real_coefficients(self):
        """(a, -a, i b, -i b) runs the exact family through complex values.

        Every B_n and C_n is real: as displayed (a QRational with a zero
        imaginary part) it hashes as the Fraction it equals, and as read
        it is that Fraction.  Both match the bigfloat family.
        """
        a, b = Fraction(1, 2), Fraction(1, 3)
        specs = []
        for field in (make_field("exact"), make_field("bigfloat", precision=128)):
            lat = Lattice(field, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0))
            spec = make_family("askey_wilson", lat, (a, -a, field(0, b), field(0, -b)))
            assert check_restrictions(spec, 10).ok
            specs.append(spec.ttrr)
        exact, big = specs[0].field, specs[1].field
        for n in range(11):
            for v, vb in ((specs[0].b(n), specs[1].b(n)), (specs[0].c(n), specs[1].c(n))):
                assert type(v) is Fraction
                assert big.magnitude(big(v) - vb) < 1e-25
            for raw in (specs[0].b_fn(n), specs[0].c_fn(n + 1)):
                assert exact.im(raw) == 0
                assert hash(raw) == hash(exact.re(raw))

    def test_good_parameters_pass_scan(self, sym_lattice):
        rep = check_restrictions(
            make_family(
                "askey_wilson",
                sym_lattice,
                (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), Fraction(1, 7)),
            ),
            8,
        )
        assert rep.ok


class TestMeixner2:
    def test_displayed_coefficients(self, lin_lattice, exact):
        spec = make_family("meixner2", lin_lattice, (Fraction(1, 2), 3))
        for n in range(7):
            assert spec.ttrr.b(n) == exact(Fraction(-1, 2)) * (2 * n + 3)
            if n:
                assert spec.ttrr.c(n) == exact(Fraction(5, 4)) * n * (n + 2)

    def test_degenerate_slope_rejected(self, lin_lattice, exact):
        with pytest.raises(FamilyError):
            make_family("meixner2", lin_lattice, (exact.i, 3))


def test_q_families_need_q_quadratic_lattice(lin_lattice, quad_lattice):
    for lat in (lin_lattice, quad_lattice):
        with pytest.raises(FamilyError):
            make_family("q_hermite", lat, ())
        with pytest.raises(FamilyError):
            make_family("chebyshev_u", lat, ())


class TestAffineCovariance:
    """x -> lambda x + tau maps the symmetric data to the general lattice."""

    @pytest.mark.parametrize(
        "name, params",
        [
            ("q_hermite", ()),
            ("al_salam", (Fraction(1, 3), Fraction(1, 7))),
            ("chebyshev_u", ()),
        ],
    )
    def test_recurrence_transforms(self, exact, name, params):
        sym = Lattice(exact, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0))
        gen = Lattice(exact, Fraction(1, 4), (2, Fraction(1, 2), Fraction(1, 5)))
        lam, tau = exact(2), exact(Fraction(1, 5))
        fam_sym = make_family(name, sym, params)
        fam_gen = make_family(name, gen, params)
        for n in range(8):
            assert fam_gen.ttrr.b(n) == lam * fam_sym.ttrr.b(n) + tau
            if n:
                assert fam_gen.ttrr.c(n) == lam * lam * fam_sym.ttrr.c(n)

    def test_polynomials_transform(self, exact):
        sym = Lattice(exact, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0))
        gen = Lattice(exact, Fraction(1, 4), (2, Fraction(1, 2), Fraction(1, 5)))
        lam, tau = exact(2), exact(Fraction(1, 5))
        seq_sym = OPSequence(exact, make_family("q_hermite", sym, ()).ttrr)
        seq_gen = OPSequence(exact, make_family("q_hermite", gen, ()).ttrr)
        z = exact(Fraction(3, 7))
        for n in range(6):
            # monic rescaling: P_n^gen(lam z + tau) = lam^n P_n^sym(z)
            assert seq_gen.p(n)(lam * z + tau) == lam**n * seq_sym.p(n)(z)


def test_family_json_payload(sym_lattice):
    spec = make_family("q_hermite", sym_lattice, ())
    rep = check_restrictions(spec, 6)
    blob = rep.to_json()
    assert blob["ok"] is True
    assert blob["first_violation"] is None
