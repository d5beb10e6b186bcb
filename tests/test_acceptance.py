"""End-to-end acceptance battery.

One test per headline guarantee, each at its stated tolerance. These are
deliberately self-contained (they rebuild everything they need) so a red
line here points at a broken guarantee, not at a fixture.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from latticeops import (
    FUNCTIONAL_IDENTITIES,
    OPERATOR_IDENTITIES,
    Lattice,
    MomentFunctional,
    NotRegularError,
    OPSequence,
    PearsonPair,
    Polynomial,
    check_meixner_linear,
    check_structure,
    check_system,
    make_family,
    make_field,
    regularity,
    rodrigues_verify,
    solve_first_characterization,
    solve_relation,
    ttrr_from_pearson,
    ttrr_oracle,
    verify_functional_identity,
    verify_operator_identity,
)
from latticeops.classical import asymptotics, b_offset, partial_sum_closed

EXACT = make_field("exact")
BIG128 = make_field("bigfloat", precision=128)

LATTICE_SPECS = [
    (Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0)),  # q-quadratic, q < 1
    (4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),  # q-quadratic, q > 1
    (1, (1, 0, 0)),  # quadratic x(s) = s^2
    (1, (0, 1, 0)),  # linear x(s) = s
]


def _random_poly(field, rng, max_degree=8):
    deg = rng.randint(1, max_degree)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    return Polynomial(field, coeffs)


def _random_regular_pair(lat, rng, horizon=11):
    field = lat.field
    while True:
        phi = Polynomial(
            field,
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)],
        )
        psi = Polynomial(
            field,
            (
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9)),
            ),
        )
        if phi.is_zero and psi.is_zero:
            continue
        pair = PearsonPair(lat, phi, psi)
        if regularity(pair, horizon).regular:
            return pair


def test_operator_identities_randomized():
    """Five divided-difference operator identities, 100 random polynomial
    pairs of degree <= 8 spread over the four reference lattices: residual
    exactly 0 on the exact backend and < 1e-25 at 128 bits."""
    start = time.monotonic()
    rng = random.Random(20260814)
    exact_lattices = [Lattice(EXACT, q, c) for q, c in LATTICE_SPECS]
    big_lattices = [Lattice(BIG128, q, c) for q, c in LATTICE_SPECS]
    for trial in range(100):
        which = trial % 4
        f = _random_poly(EXACT, rng)
        g = _random_poly(EXACT, rng)
        n = rng.randint(1, 4)
        fb = Polynomial(BIG128, [EXACT.re(c) for c in f.coeffs])
        gb = Polynomial(BIG128, [EXACT.re(c) for c in g.coeffs])
        for identity in OPERATOR_IDENTITIES:
            rep = verify_operator_identity(exact_lattices[which], identity, f, g, n=n)
            assert rep.residual == 0.0, (identity, which, trial)
            repb = verify_operator_identity(big_lattices[which], identity, fb, gb, n=n)
            assert repb.residual < 1e-25, (identity, which, trial)
    assert time.monotonic() - start < 30.0


def test_moment_side_leibniz_rules():
    """The moment-side Leibniz expansion for n <= 5 and polynomial degree
    <= 4 at horizon 10, plus its degree-2 specialization for n <= 6, hold
    exactly on the exact backend."""
    rng = random.Random(7)
    lattices = [
        Lattice(EXACT, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0)),
        Lattice(EXACT, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
    ]

    def functional(seed):
        def ext(k):
            rr = random.Random(f"{seed}:{k}")
            return EXACT(Fraction(rr.randint(-9, 9), rr.randint(1, 9)))

        return MomentFunctional(EXACT, extender=ext)

    for lat in lattices:
        for n in range(1, 6):
            f = _random_poly(EXACT, rng, max_degree=4)
            rep = verify_functional_identity(
                lat, "leibniz", f, functional(n), n=n, horizon=10
            )
            assert rep.passed and rep.residual == 0.0
        for n in range(1, 7):
            f = Polynomial(
                EXACT,
                (
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                ),
            )
            rep = verify_functional_identity(
                lat, "leibniz_deg2", f, functional(100 + n), n=n, horizon=10
            )
            assert rep.passed and rep.residual == 0.0


def test_closed_recurrence_matches_moment_oracle():
    """Closed-form (B_n, C_n) from the Pearson pair equal the moment-based
    oracle for n <= 10: 20 random admissible pairs on each lattice kind."""
    rng = random.Random(314159)
    for q, c in [
        (Fraction(1, 4), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
        (1, (2, Fraction(1, 3), Fraction(-1, 4))),
    ]:
        lat = Lattice(EXACT, q, c)
        for _ in range(20):
            pair = _random_regular_pair(lat, rng)
            closed = ttrr_from_pearson(pair)
            oracle = ttrr_oracle(pair.moments(), 10)
            for n in range(11):
                assert closed.b(n) == oracle.b(n)
                assert closed.c(n) == oracle.c(n)


def test_closed_recurrence_matches_moment_oracle_through_n20():
    """Closed-form (B_n, C_(n+1)) equal the moment oracle exactly for
    n <= 20 on the six exact lattices of the Pearson benchmark, one regular
    pair each."""
    pearson_lattices = [
        (Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0)),
        (4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
        (Fraction(1, 9), (Fraction(1, 2), Fraction(1, 2), 0)),
        (Fraction(25, 4), (Fraction(1, 3), Fraction(1, 2), Fraction(1, 7))),
        (1, (2, Fraction(1, 3), Fraction(-1, 4))),
        (1, (0, 1, 0)),
    ]
    for q, c in pearson_lattices:
        lat = Lattice(EXACT, q, c)
        pair = PearsonPair(
            lat,
            Polynomial(EXACT, (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7))),
            Polynomial(EXACT, (Fraction(1, 2), Fraction(3, 4))),
        )
        closed = ttrr_from_pearson(pair)
        oracle = ttrr_oracle(pair.moments(), 20)
        for n in range(21):
            assert closed.b(n) == oracle.b(n)
            assert closed.c(n + 1) == oracle.c(n + 1)


def test_regularity_biconditional():
    """A pair whose second-level witness vanishes produces a zero norm in
    the moment oracle at level <= 3; 20 random regular pairs produce none
    through n = 10."""
    sym = Lattice(EXACT, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0))
    degenerate = solve_first_characterization(sym, Fraction(-225, 128))
    rep = regularity(degenerate.pair, 6)
    assert not rep.regular
    assert rep.verdict == "zero-witness-at-2"
    with pytest.raises(NotRegularError) as err:
        ttrr_oracle(degenerate.pair.moments(), 6)
    assert err.value.level <= 3

    rng = random.Random(271828)
    lat = Lattice(EXACT, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    for _ in range(20):
        pair = _random_regular_pair(lat, rng)
        ttrr_oracle(pair.moments(), 10)  # must not raise


def test_rodrigues_representation():
    """P_n u equals k_n times the n-th dual divided-difference power of the
    level-n functional, moment-wise through horizon 10, for n <= 4, on both
    a q-quadratic and a quadratic lattice; exact equality."""
    for q, c in [
        (4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
        (1, (2, Fraction(1, 3), Fraction(-1, 4))),
    ]:
        lat = Lattice(EXACT, q, c)
        pair = PearsonPair(
            lat,
            Polynomial(EXACT, (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7))),
            Polynomial(EXACT, (Fraction(1, 2), Fraction(3, 4))),
        )
        for n in range(5):
            rep = rodrigues_verify(pair, n, horizon=10)
            assert rep.passed and rep.residual == 0.0


def test_raising_construction_coincides_with_askey_wilson_and_raises():
    """The family built from C_1 through the resolvent parameter r must
    match askey_wilson(sqrt(r), -sqrt(r), i/sqrt(rq), -i/sqrt(rq)) to
    1e-25 and keep B_n at the lattice offset.  The raising relation
    D_x P_(n+1) = (gamma_(n+1)/alpha_n) S_x P_n, read first and solved slot
    by slot, forces the family's C_2 but C_3 = 3969/3536 where the family
    has 3969/8738, so the family breaks the relation at slot 3; and the
    relation has no solution at slot 4 (B_0 = c3) or at slot 3 (B_0 != c3).
    Exact rationals, no tolerance.  The symbolic certificate (q, C_1, B_0
    and the offset c3 symbolic) is in test_characterize.py."""
    big = make_field("bigfloat", precision=192)
    lat = Lattice(big, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0))
    fc = solve_first_characterization(lat, Fraction(-9, 32))

    root_r = big.sqrt(fc.r)
    root_rq = big.sqrt(fc.r * lat.q)
    aw = make_family(
        "askey_wilson", lat, (root_r, -root_r, big.i / root_rq, -big.i / root_rq)
    ).ttrr
    for m in range(1, 12):
        assert big.magnitude(aw.c(m) - fc.ttrr.c(m)) < 1e-25
    for n in range(11):
        assert big.magnitude(fc.ttrr.b(n) - lat.c[2]) < 1e-25

    exact_lat = Lattice(EXACT, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0))
    fc_exact = solve_first_characterization(exact_lat, Fraction(-9, 32))
    seq = OPSequence(EXACT, fc_exact.ttrr)
    forced = solve_relation(exact_lat, "sx_raise", exact_lat.c[2], Fraction(-9, 32), 10)
    assert forced.ttrr.c(2) == fc_exact.ttrr.c(2) == EXACT(Fraction(225, 544))
    assert forced.ttrr.c(3) == EXACT(Fraction(3969, 3536))
    assert fc_exact.ttrr.c(3) == EXACT(Fraction(3969, 8738))
    assert forced.ttrr.c(3) != fc_exact.ttrr.c(3)

    rep = check_structure(exact_lat, seq, "sx_raise", 10)
    assert rep.first_fail == 3
    assert rep.residuals[:3] == [0.0, 0.0, 0.0]

    assert forced.first_fail == 4
    off = solve_relation(exact_lat, "sx_raise", Fraction(1, 3), Fraction(-9, 32), 10)
    assert off.first_fail == 3


def test_q_hermite_lowering_and_chebyshev_contrast():
    """Continuous q-Hermite satisfies the lowering relation for n <= 12
    with C_(n+1) = (1 - q^(n+1)) c1 c2; Chebyshev U fails it at n = 2 yet
    passes the five-equation symmetric system, which q-Hermite also passes."""
    sym = Lattice(EXACT, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0))
    c1c2 = sym.c[0] * sym.c[1]

    qh = make_family("q_hermite", sym, ()).ttrr
    rep = check_structure(sym, OPSequence(EXACT, qh), "lower", 12)
    assert rep.passed
    for n in range(13):
        assert qh.c(n + 1) == (EXACT.one - sym.q ** (n + 1)) * c1c2

    cheb = make_family("chebyshev_u", sym, ()).ttrr
    rep = check_structure(sym, OPSequence(EXACT, cheb), "lower", 8)
    assert not rep.passed and rep.first_fail == 2
    assert check_system(sym, cheb, 10).passed
    assert check_system(sym, qh, 10).passed


def test_four_term_counterexample_data():
    """The printed four-term divided-difference relation for the symmetric
    continuous dual q^(1/2)-Hahn data holds for n <= 10 at q in {1/4, 1/9}
    with residual < 1e-25 at 192-bit precision."""
    big = make_field("bigfloat", precision=192)
    for q in (Fraction(1, 4), Fraction(1, 9)):
        lat = Lattice(big, q, (Fraction(1, 2), Fraction(1, 2), 0))
        rep = check_structure(lat, None, "counterexample4term", 10)
        assert rep.passed
        assert max(rep.residuals) < 1e-25


def test_meixner_image_raising_dichotomy():
    """The Meixner-kind image family satisfies D_x P_(n+1) = (n+1) S_x P_n
    on a linear lattice for n <= 10; the analogous construction on a
    quadratic lattice fails by n = 3."""
    lin = Lattice(EXACT, 1, (0, 1, 0))
    rep = check_meixner_linear(lin, Fraction(1, 3), Fraction(2, 5), 10)
    assert rep.passed and rep.first_fail is None

    quad = Lattice(EXACT, 1, (2, Fraction(1, 3), Fraction(-1, 4)))
    rep = check_meixner_linear(quad, Fraction(1, 3), Fraction(2, 5), 5)
    assert not rep.passed
    assert rep.first_fail is not None and rep.first_fail <= 3


def test_recurrence_asymptotics():
    """The telescoped partial-sum identity holds exactly for n <= 64; at
    q = 1/2 the scaled offset q^(-n)(B_n - c3) is within 1e-6 of its limit
    at n = 300 and the partial sums within 1e-6 of the full series; on a
    quadratic lattice B_n/n^2 and C_(n+1)/n^4 are within 1e-2 of their
    growth constants at n = 10^4 for both a quadratic and a linear phi."""
    start = time.monotonic()

    exact_lat = Lattice(EXACT, Fraction(1, 2) ** 2, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    pair = PearsonPair(
        exact_lat,
        Polynomial(EXACT, (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7))),
        Polynomial(EXACT, (Fraction(1, 2), Fraction(3, 4))),
    )
    running = EXACT.zero
    for j in range(64):
        running = running + b_offset(pair, j)
        assert running == partial_sum_closed(pair, j + 1)

    big = make_field("bigfloat", precision=512)
    lat = Lattice(big, Fraction(1, 2), (Fraction(1, 2), Fraction(1, 2), 0))
    bpair = PearsonPair(
        lat,
        Polynomial(big, (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7))),
        Polynomial(big, (Fraction(1, 2), Fraction(3, 4))),
    )
    rep = asymptotics(bpair, 300, sum_horizon=48)
    assert rep.ratio_error < 1e-6
    assert big.magnitude(rep.series_estimate - rep.series_value) < 1e-6

    quad = Lattice(BIG128, 1, (2, Fraction(1, 3), Fraction(-1, 4)))
    beta = quad.constants.beta
    qpair = PearsonPair(
        quad,
        Polynomial(BIG128, (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7))),
        Polynomial(BIG128, (Fraction(1, 2), Fraction(3, 4))),
    )
    rep = asymptotics(qpair, 10**4)
    assert BIG128.approx_eq(rep.b_scaled_limit, -2 * beta)
    assert BIG128.approx_eq(rep.c_scaled_limit, beta * beta)
    assert rep.b_scaled_error < 1e-2
    assert rep.c_scaled_error < 1e-2

    lpair = PearsonPair(
        quad,
        Polynomial(BIG128, (3, 1)),
        Polynomial(BIG128, (Fraction(1, 2), Fraction(3, 4))),
    )
    rep = asymptotics(lpair, 10**4)
    assert BIG128.approx_eq(rep.b_scaled_limit, -8 * beta)
    assert BIG128.approx_eq(rep.c_scaled_limit, 16 * beta * beta)
    assert rep.b_scaled_error < 1e-2
    assert rep.c_scaled_error < 1e-2

    assert time.monotonic() - start < 60.0
