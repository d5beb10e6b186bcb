"""The named checks that ``latticeops all`` and the acceptance tests run.

Each check states one result, "X holds on lattice Y", at its stated size,
tolerance and precision, and returns what the claim rests on; ``run`` adds
the check's name to make one verdict record.  A randomized check draws
from its own base seed plus ``seed``, so seed 0 draws the acceptance
inputs.  Bounds such as ``< 1e-25`` are the stated accuracy of a bigfloat
claim; whether a difference vanishes is decided by ``Field.report``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from . import families
from .characterize import (
    check_meixner_linear,
    check_structure,
    check_system,
    solve_first_characterization,
    solve_relation,
)
from .classical import (
    PearsonPair,
    asymptotics as _asymptotics,
    b_offset,
    partial_sum_closed,
    regularity,
    rodrigues_verify,
    ttrr_from_pearson,
)
from .functionals import (
    FUNCTIONAL_IDENTITIES,
    MomentFunctional,
    NotRegularError,
    OPSequence,
    ttrr_oracle,
    verify_functional_identity,
)
from .lattice import Lattice
from .operators import OPERATOR_IDENTITIES, verify_operator_identity
from .polynomials import Polynomial
from .scalars import make_field

EXACT = make_field("exact")
HALF = Fraction(1, 2)
SYM = (Fraction(1, 4), (HALF, HALF, 0))  # q-quadratic, q < 1, symmetric
GEN = (4, (HALF, Fraction(1, 3), Fraction(1, 5)))  # q-quadratic, q > 1, offset
QUAD = (1, (2, Fraction(1, 3), Fraction(-1, 4)))  # quadratic, beta != 0
LIN = (1, (0, 1, 0))  # linear x(s) = s
# one lattice of each kind the identities must cover
REFERENCE_LATTICES = (SYM, GEN, (1, (1, 0, 0)), LIN)
# the six exact lattices of the Pearson benchmark
PEARSON_LATTICES = (SYM, GEN, (Fraction(1, 9), (HALF, HALF, 0)),
                    (Fraction(25, 4), (Fraction(1, 3), HALF, Fraction(1, 7))), QUAD, LIN)


def reference_lattices(field) -> list:
    return [Lattice(field, q, c) for q, c in REFERENCE_LATTICES]


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_poly(field, rng: random.Random, max_degree: int = 8,
                degree: Optional[int] = None) -> Polynomial:
    """Small rational coefficients and a positive leading one; the degree is drawn unless given."""
    deg = rng.randint(1, max_degree) if degree is None else degree
    coeffs = [_rational(rng) for _ in range(deg)]
    return Polynomial(field, coeffs + [Fraction(rng.randint(1, 9), rng.randint(1, 9))])


def random_functional(field, seed) -> MomentFunctional:
    """Moment k drawn from its own ``f"{seed}:{k}"`` stream, on demand."""
    return MomentFunctional(
        field, extender=lambda k: field(_rational(random.Random(f"{seed}:{k}"))))


def random_regular_pair(lat: Lattice, rng: random.Random) -> PearsonPair:
    """Quadratic phi and linear psi, drawn until the pair is regular through n = 11."""
    while True:
        phi = Polynomial(lat.field, [_rational(rng) for _ in range(3)])
        psi = Polynomial(lat.field, (_rational(rng), Fraction(
            rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))))
        pair = PearsonPair(lat, phi, psi)
        if regularity(pair, 11).regular:
            return pair


def sample_pair(lat: Lattice, linear_phi: bool = False) -> PearsonPair:
    """phi = 2/7 z^2 - 1/3 z + 7/10 (or z + 3) and psi = 3/4 z + 1/2."""
    phi = (3, 1) if linear_phi else (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7))
    return PearsonPair(lat, Polynomial(lat.field, phi),
                       Polynomial(lat.field, (HALF, Fraction(3, 4))))


def _verdict(reports, ok: bool = True, **quantities) -> dict:
    """Passed if every report passed and ``ok`` holds; worst residual, first failed report."""
    failed = next((r.to_json() for r in reports if not r.passed), None)
    return {"passed": ok and failed is None, "residual": max(r.residual for r in reports),
            "failed_report": failed, **quantities}


def operator_identities(seed: int) -> dict:
    """The five operator identities on 100 random pairs of degree <= 8 over the
    reference lattices: exactly zero on the exact backend, < 1e-25 at 128 bits."""
    big = make_field("bigfloat", precision=128)
    exact_lats, big_lats = reference_lattices(EXACT), reference_lattices(big)
    rng = random.Random(20260814 + seed)
    reports, big_residual = [], 0.0
    for trial in range(100):
        f, g = random_poly(EXACT, rng), random_poly(EXACT, rng)
        n = rng.randint(1, 4)
        fb, gb = Polynomial(big, f.coeffs), Polynomial(big, g.coeffs)
        for identity in OPERATOR_IDENTITIES:
            reports.append(verify_operator_identity(exact_lats[trial % 4], identity, f, g, n=n))
            big_residual = max(big_residual, verify_operator_identity(
                big_lats[trial % 4], identity, fb, gb, n=n).residual)
    return _verdict(reports, big_residual < 1e-25, bigfloat_residual=big_residual)


def functional_identities(seed: int) -> dict:
    """The moment-side Leibniz expansion for n <= 5 and degree <= 4, its degree-2
    form for n <= 6, and all five dual identities at n = 2, exactly at horizon 10
    on the two q-quadratic reference lattices."""
    rng = random.Random(7 + seed)
    lattices = reference_lattices(EXACT)[:2]
    reports = []
    for lat in lattices:
        for n in range(1, 6):
            f = random_poly(EXACT, rng, 4)
            reports.append(verify_functional_identity(
                lat, "leibniz", f, random_functional(EXACT, n), n=n, horizon=10))
        for n in range(1, 7):
            f = random_poly(EXACT, rng, degree=2)
            reports.append(verify_functional_identity(
                lat, "leibniz_deg2", f, random_functional(EXACT, 100 + n), n=n, horizon=10))
    for lat in lattices:
        for identity in FUNCTIONAL_IDENTITIES:
            f = random_poly(EXACT, rng, 4, degree=2 if identity == "leibniz_deg2" else None)
            u = random_functional(EXACT, rng.randint(0, 10**9))
            reports.append(verify_functional_identity(lat, identity, f, u, n=2, horizon=10))
    return _verdict(reports)


def _closed_vs_oracle(pair: PearsonPair, n_max: int):
    closed, oracle = ttrr_from_pearson(pair), ttrr_oracle(pair.moments(), n_max)
    return EXACT.report("closed_vs_oracle", (
        ([closed.b(n), closed.c(n), closed.c(n + 1)], [oracle.b(n), oracle.c(n), oracle.c(n + 1)])
        for n in range(n_max + 1)))


def oracle_equivalence(seed: int) -> dict:
    """Closed-form B_n, C_n equal the moment oracle's: through n = 10 for 20 random
    regular pairs on each of a q-quadratic and a quadratic lattice, and through
    n = 20 for the sample pair on each of the six Pearson benchmark lattices."""
    rng = random.Random(314159 + seed)
    reports = [_closed_vs_oracle(random_regular_pair(lat, rng), 10)
               for lat in (Lattice(EXACT, Fraction(1, 4), GEN[1]), Lattice(EXACT, *QUAD))
               for _ in range(20)]
    pearson = [_closed_vs_oracle(sample_pair(Lattice(EXACT, q, c)), 20)
               for q, c in PEARSON_LATTICES]
    return _verdict(reports + pearson, pairs=len(reports) + len(pearson),
                    pearson_pairs=len(pearson), pearson_n_max=20,
                    pearson_residual=max(r.residual for r in pearson))


def _oracle_zero_level(pair: PearsonPair, n_max: int) -> Optional[int]:
    try:
        ttrr_oracle(pair.moments(), n_max)
    except NotRegularError as exc:
        return exc.level
    return None


def regularity_biconditional(seed: int) -> dict:
    """A pair whose second-level witness vanishes gives a zero norm in the moment
    oracle at level <= 3; 20 random regular pairs give none through n = 10."""
    degenerate = solve_first_characterization(Lattice(EXACT, *SYM), Fraction(-225, 128)).pair
    rep = regularity(degenerate, 6)
    level = _oracle_zero_level(degenerate, 6)
    rng, lat = random.Random(271828 + seed), Lattice(EXACT, *GEN)
    raised = [k for k in range(20)
              if _oracle_zero_level(random_regular_pair(lat, rng), 10) is not None]
    passed = (not rep.regular and rep.verdict == "zero-witness-at-2"
              and level is not None and level <= 3 and not raised)
    return {"passed": passed, "verdict": rep.verdict, "oracle_zero_level": level,
            "regular_pairs_with_zero_norm": raised}


def rodrigues(seed: int) -> dict:
    """P_n u = k_n D^n u^[n] moment-wise through horizon 10, for n <= 4 on a
    q-quadratic and a quadratic lattice; exact equality."""
    return _verdict([rodrigues_verify(sample_pair(Lattice(EXACT, q, c)), n, horizon=10)
                     for q, c in (GEN, QUAD) for n in range(5)])


def counterexample_4term(seed: int) -> dict:
    """The printed four-term relation for the symmetric continuous dual
    q^(1/2)-Hahn data holds for n <= 10 at q in {1/4, 1/9}: < 1e-25 at 192 bits."""
    big = make_field("bigfloat", precision=192)
    reports = [check_structure(Lattice(big, q, (HALF, HALF, 0)), None, "counterexample4term", 10)
               for q in (Fraction(1, 4), Fraction(1, 9))]
    return _verdict(reports, max(r.residual for r in reports) < 1e-25)


def q_hermite_lower_and_system(seed: int) -> dict:
    """Continuous q-Hermite satisfies the lowering relation for n <= 12 with
    C_(n+1) = (1 - q^(n+1)) c1 c2, and the five-equation symmetric system."""
    sym = Lattice(EXACT, *SYM)
    qh = families.make_family("q_hermite", sym, ()).ttrr
    closed = EXACT.report("c_closed", (
        ([qh.c(n + 1)], [(EXACT.one - sym.q ** (n + 1)) * sym.c[0] * sym.c[1]])
        for n in range(13)))
    system = check_system(sym, qh, 10).passed
    return _verdict([check_structure(sym, OPSequence(EXACT, qh), "lower", 12), closed],
                    system, system_passed=system)


def chebyshev_lower_fails_system_passes(seed: int) -> dict:
    """Chebyshev U fails the lowering relation at n = 2 yet passes the system."""
    sym = Lattice(EXACT, *SYM)
    cheb = families.make_family("chebyshev_u", sym, ()).ttrr
    lower = check_structure(sym, OPSequence(EXACT, cheb), "lower", 8).first_fail
    system = check_system(sym, cheb, 10).passed
    return {"passed": lower == 2 and system, "lower_first_fail": lower, "system_passed": system}


def raising_linear_vs_quadratic(seed: int) -> dict:
    """The Meixner-kind image satisfies D_x P_(n+1) = (n+1) S_x P_n on a linear
    lattice for n <= 10; on a quadratic lattice it fails by n = 3."""
    lin = check_meixner_linear(Lattice(EXACT, *LIN), Fraction(1, 3), Fraction(2, 5), 10)
    quad = check_meixner_linear(Lattice(EXACT, *QUAD), Fraction(1, 3), Fraction(2, 5), 5)
    return {"passed": lin.passed and quad.first_fail is not None and quad.first_fail <= 3,
            "linear_first_fail": lin.first_fail, "quadratic_first_fail": quad.first_fail}


def raising_construction_consistency(seed: int) -> dict:
    """The family built from C_1 = -9/32 through the resolvent parameter r matches
    askey_wilson(sqrt(r), -sqrt(r), i/sqrt(rq), -i/sqrt(rq)) to 1e-25 at 192 bits,
    keeps B_n at the offset c3 and C_m at its closed form.  The raising relation
    D_x P_(n+1) = (gamma_(n+1)/alpha_n) S_x P_n, solved slot by slot, forces the
    family's C_2 = 225/544 but C_3 = 3969/3536 where the family has 3969/8738, so
    the family breaks it at slot 3; it has no solution at slot 4 (B_0 = c3) or at
    slot 3 (B_0 != c3).  Exact rationals apart from the Askey-Wilson match."""
    big = make_field("bigfloat", precision=192)
    lat = Lattice(big, *SYM)
    fc = solve_first_characterization(lat, Fraction(-9, 32))
    root_r, root_rq = big.sqrt(fc.r), big.sqrt(fc.r * lat.q)
    aw = families.make_family(
        "askey_wilson", lat, (root_r, -root_r, big.i / root_rq, -big.i / root_rq)).ttrr
    aw_residual = max([big.magnitude(aw.c(m) - fc.ttrr.c(m)) for m in range(1, 12)]
                      + [big.magnitude(fc.ttrr.b(n) - lat.c[2]) for n in range(11)])

    lat = Lattice(EXACT, *SYM)
    fc = solve_first_characterization(lat, Fraction(-9, 32))
    forced = solve_relation(lat, "sx_raise", lat.c[2], Fraction(-9, 32), 10)
    # slot m: C_m against its closed form, B_(m-1) against c3; then the printed C_2, C_3
    closed = EXACT.report("closed_form", [
        ([fc.ttrr.c(m), fc.ttrr.b(m - 1)], [fc.c_closed(m), lat.c[2]]) for m in range(1, 12)] + [
        ([fc.ttrr.c(2), fc.ttrr.c(3), forced.ttrr.c(2), forced.ttrr.c(3)],
         [Fraction(225, 544), Fraction(3969, 8738), Fraction(225, 544), Fraction(3969, 3536)])])
    relation = check_structure(lat, OPSequence(EXACT, fc.ttrr), "sx_raise", 10)
    first_fails = [relation.first_fail, forced.first_fail, solve_relation(
        lat, "sx_raise", Fraction(1, 3), Fraction(-9, 32), 10).first_fail]
    return _verdict([closed], aw_residual < 1e-25 and first_fails == [3, 4, 3],
                    askey_wilson_residual=aw_residual, sx_raise_residuals=relation.residuals,
                    first_fails=first_fails)


def asymptotics(seed: int) -> dict:
    """The telescoped partial-sum identity holds exactly for n <= 64 (and within
    1e-20 at 512 bits); at q = 1/2 the scaled offset q^(-n)(B_n - c3) and the
    partial sums are within 1e-6 of their limits at n = 300; on a quadratic
    lattice (128 bits) B_n/n^2 and C_(n+1)/n^4 are within 1e-2 of their growth
    constants at n = 10^4, for a quadratic and a linear phi."""
    pair = sample_pair(Lattice(EXACT, Fraction(1, 4), GEN[1]))
    running, sums = EXACT.zero, []
    for j in range(64):
        running = running + b_offset(pair, j)
        sums.append(([running], [partial_sum_closed(pair, j + 1)]))
    big = make_field("bigfloat", precision=512)
    rep = _asymptotics(sample_pair(Lattice(big, HALF, (HALF, HALF, 0))), 300, sum_horizon=48)
    series_error = big.magnitude(rep.series_estimate - rep.series_value)
    ok = rep.ratio_error < 1e-6 and series_error < 1e-6 and rep.sum_residual <= 1e-20

    big = make_field("bigfloat", precision=128)
    quad = Lattice(big, *QUAD)
    beta, growth = quad.constants.beta, []
    for linear_phi, b_limit, c_limit in ((False, -2 * beta, beta * beta),
                                         (True, -8 * beta, 16 * beta * beta)):
        grep = _asymptotics(sample_pair(quad, linear_phi), 10**4)
        ok = (ok and big.approx_eq(grep.b_scaled_limit, b_limit)
              and big.approx_eq(grep.c_scaled_limit, c_limit)
              and grep.b_scaled_error < 1e-2 and grep.c_scaled_error < 1e-2)
        growth.append([grep.b_scaled_error, grep.c_scaled_error])
    return _verdict([EXACT.report("partial_sums", sums)], ok, ratio_error=rep.ratio_error,
                    series_error=series_error, sum_residual=rep.sum_residual,
                    growth_errors=growth)


CHECKS = (
    ("operator-identities", operator_identities),
    ("functional-identities", functional_identities),
    ("oracle-equivalence", oracle_equivalence),
    ("rodrigues", rodrigues),
    ("regularity-biconditional", regularity_biconditional),
    ("counterexample-4term", counterexample_4term),
    ("q-hermite-lower-and-system", q_hermite_lower_and_system),
    ("chebyshev-lower-fails-system-passes", chebyshev_lower_fails_system_passes),
    ("raising-linear-vs-quadratic", raising_linear_vs_quadratic),
    ("raising-construction-consistency", raising_construction_consistency),
    ("asymptotics", asymptotics),
)


def run(name: str, seed: int) -> dict:
    """The verdict record of check ``name``: ``check``, ``passed`` and its quantities."""
    return {"check": name, **dict(CHECKS)[name](seed)}
