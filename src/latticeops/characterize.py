"""Structure-relation checkers and the characterization constructions.

Four relation checks run against an orthogonal sequence:

* ``sx_raise``:   D_x P_(n+1) = (gamma_(n+1)/alpha_n) S_x P_n
* ``lower``:      D_x P_(n+1) = gamma_(n+1) P_n
* ``counterexample4term``: the four-term D_x relation, on the symmetric
  lattice of base q, for the continuous dual q-Hahn family of base
  q^(1/2) at parameters (1, -1, q^(1/4))
* ``system``:     the five nonlinear difference equations that the TTRR
  coefficients of any solution of ``lower`` must satisfy, one report slot
  per equation; ``system_constants`` gives the fitted constants k1, k2 of
  t_n = gamma_n/C_n = k1 q^(n/2) + k2 q^(-n/2)

plus the constructive directions: recovering the Pearson pair a
structure relation forces, the Askey-Wilson-type family built from the
one free parameter C_1 of the raising case, and the Meixner-kind image
that solves the raising relation on linear lattices (and provably cannot
on quadratic ones).

``solve_relation`` reads a relation first: it matches coefficients slot by
slot and returns the recurrence the relation forces, or the first slot
where no recurrence satisfies it.  On a q-quadratic lattice ``sx_raise``
has no regular monic solution: slot 3 forces B_0 = c3, and then slot 4
forces C_2 = 0 or C_3 = 0.  The family built from C_1 agrees with the
forced recurrence through C_2 and breaks the relation at slot 3.
The counterexample, the difference system and the raising construction
are q-lattice statements, so they stay per kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .classical import InternalCheckError, PearsonPair, ttrr_from_pearson
from .functionals import OPSequence, TTRRCoeffs
from .lattice import Lattice, LatticeError, memoized
from .operators import dx, sx
from .polynomials import Polynomial
from .scalars import Report

# solve_first_characterization looks for r = q^(n-1) or r = -q^(-n) at n <= this
EXCLUDED_SCAN = 64
# the relations of the form D_x P_(n+1) = (right-hand side at P_n)
_SLOT_RELATIONS = ("sx_raise", "lower")


def _relation_rhs(lat: Lattice, relation: str, n: int, p: Polynomial) -> Polynomial:
    """Right-hand side of a slot relation at slot n, for P_n = p."""
    con = lat.constants
    if relation == "sx_raise":
        return (con.gamma_n(n + 1) / con.alpha_n(n)) * sx(lat, p)
    return con.gamma_n(n + 1) * p


def _relation_slots(lat: Lattice, seq: OPSequence, relation: str, n_max: int):
    """Slot n <= n_max of a slot relation: the coefficients of both sides."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return ((dx(lat, seq.p(n + 1)).coeffs, _relation_rhs(lat, relation, n, seq.p(n)).coeffs)
            for n in range(n_max + 1))


def check_structure(lat: Lattice, seq: Optional[OPSequence], relation: str,
                    n_max: int) -> Report:
    if relation == "counterexample4term":
        return _check_counterexample(lat, n_max)
    if seq is None:
        raise ValueError(f"relation {relation!r} needs an orthogonal sequence")
    if relation not in _SLOT_RELATIONS:
        raise ValueError(f"unknown structure relation {relation!r}")
    return lat.field.report(relation, _relation_slots(lat, seq, relation, n_max))


@dataclass
class RelationSolution:
    """The monic TTRR a slot relation forces from B_0 and C_1.

    ``ttrr`` holds B_0..B_m and C_1..C_m, where m is ``first_fail`` if the
    relation breaks and n_max otherwise.  At ``first_fail`` the stored
    B_m, C_m are the values the degree m-1 and m-2 coefficients force, and
    ``residual`` is the coefficient of degree ``failing_degree`` that is
    still nonzero with them: no choice of B_m, C_m satisfies slot m.
    """

    relation: str
    ttrr: TTRRCoeffs
    first_fail: Optional[int]
    failing_degree: Optional[int] = None
    residual: object = None


def solve_relation(lat: Lattice, relation: str, b0, c1, n_max: int) -> RelationSolution:
    """Solve a slot relation for the TTRR, one slot at a time, from B_0, C_1.

    Slot n of D_x P_(n+1) = (right-hand side at P_n), with
    P_(n+1) = (z - B_n) P_n - C_n P_(n-1), is linear in B_n and C_n.  The
    degree n-1 coefficient fixes B_n (n >= 1), the degree n-2 coefficient
    fixes C_n (n >= 2), and every lower coefficient is a consistency
    condition.  The solve stops at the first slot whose conditions fail.

    This route never reads a Pearson pair or a closed form; it decides by
    exact equality, so it needs the exact backend.
    """
    if relation not in _SLOT_RELATIONS:
        raise ValueError(f"unknown structure relation {relation!r}")
    field = lat.field
    if field.name != "exact":
        raise ValueError("solve_relation decides consistency exactly; use the exact backend")
    z = Polynomial.monomial(field, 1)
    bs = [field(b0)]
    cs = [field(c1)]
    prev, cur = Polynomial.zero(field), Polynomial.one(field)  # P_(n-1), P_n
    d_prev = Polynomial.zero(field)  # D_x P_(n-1)
    for n in range(n_max + 1):
        d_cur = dx(lat, cur)
        # D_x P_(n+1) minus the right-hand side, at B_n = C_n = 0
        base = dx(lat, z * cur) - _relation_rhs(lat, relation, n, cur)
        if n >= 1:
            bs.append(base.coeff(n - 1) / d_cur.coeff(n - 1))
        if n >= 2:
            cs.append((base.coeff(n - 2) - bs[n] * d_cur.coeff(n - 2)) / d_prev.coeff(n - 2))
        c_n = cs[n - 1] if n >= 1 else field.zero
        residual = base - bs[n] * d_cur - c_n * d_prev
        if not residual.is_zero:
            return RelationSolution(relation, TTRRCoeffs.from_lists(field, bs, cs),
                                    n, residual.degree, residual.leading)
        prev, cur = cur, (z - bs[n]) * cur - c_n * prev
        d_prev = d_cur
    return RelationSolution(relation, TTRRCoeffs.from_lists(field, bs, cs), None)


def counterexample_ttrr(lat: Lattice) -> TTRRCoeffs:
    """The B_n, C_n of the four-term counterexample family.

    `lat` is the lattice the relation is checked on (base q); the family
    itself lives at base q^(1/2), and its data are Laurent polynomials
    in r4 := q^(1/4), written as t^k or r4 t^k with t = r4^2 = q^(1/2).
    On the exact backend q must therefore be a rational fourth power.
    """
    field = lat.field
    r4 = _quarter_root(lat)
    one = field.one
    t_pow = lat.t_pow

    def b_fn(n: int):
        return ((one + t_pow(-1)) * t_pow(n) + one - t_pow(-1)) * r4 * t_pow(n) / 2

    def c_fn(n: int):
        return (one + t_pow(n - 1)) * (one - t_pow(n)) * (one - t_pow(2 * n - 1)) / 4

    return TTRRCoeffs(field, b_fn, c_fn)


@memoized
def _quarter_root(lat: Lattice):
    """r4 = q^(1/4) of the symmetric lattice, once per lattice; a lattice that
    is not symmetric is refused before the root is taken."""
    field = lat.field
    half = field(1) / 2
    if lat.kind != "q-quadratic" or not (
        field.approx_eq(lat.c[0], half)
        and field.approx_eq(lat.c[1], half)
        and field.approx_eq(lat.c[2], field.zero)
    ):
        raise LatticeError(
            "the four-term counterexample needs the symmetric lattice "
            "x(s) = (q^(-s) + q^s)/2"
        )
    return field.sqrt(lat.sqrt_q)


def _check_counterexample(lat: Lattice, n_max: int) -> Report:
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    field = lat.field
    ttrr = counterexample_ttrr(lat)
    con = lat.constants
    alpha = con.alpha
    r4 = _quarter_root(lat)
    seq = OPSequence(field, ttrr)

    b_of, c_big = ttrr.b_fn, ttrr.c_fn

    def c_small(n: int):
        # C_n r4^(1-2n)
        return c_big(n) * r4 * lat.t_pow(-n)

    one = field.one
    a2m1 = alpha * alpha - one
    pi_poly = Polynomial(field, (-one, 0, one))  # z^2 - 1

    def slot(n: int):
        lhs = a2m1 * (pi_poly * dx(lat, seq.p(n)))
        rhs = a2m1 * con.gamma_n(n) * seq.p(n + 1)
        rhs = rhs + (
            c_small(n + 1) - alpha * c_small(n) + (one - alpha) * con.alpha_n(n) * b_of(n)
        ) * seq.p(n)
        rhs = rhs + (
            (b_of(n) - alpha * b_of(n - 1)) * c_small(n) + (one - alpha * alpha) * con.gamma_n(n) * c_big(n)
        ) * seq.p(n - 1)
        rhs = rhs + (
            c_small(n - 1) * c_big(n) - alpha * c_small(n) * c_big(n - 1)
        ) * seq.p(n - 2)
        return lhs.coeffs, rhs.coeffs

    return field.report(
        "counterexample4term",
        (slot(n) for n in range(n_max + 1)),
        detail=f"relation base {field.to_str(lat.q)}, family base sqrt of that",
    )


def pearson_from_ttrr(lat: Lattice, case: str, b0, c1, b1=None, c2=None) -> PearsonPair:
    """The Pearson pair forced on u by a structure relation.

    case "sx_raise" needs (B_0, C_1); case "lower" needs (B_0, C_1, B_1, C_2).
    """
    field = lat.field
    b0 = field(b0)
    c1 = field(c1)
    if not c1:
        raise ValueError("C_1 must be nonzero for a regular functional")
    con = lat.constants
    alpha = con.alpha
    beta = con.beta
    z = Polynomial.monomial(field, 1)
    if case == "sx_raise":
        psi = Polynomial(field, (b0, -field.one))
        phi = (field.one / alpha) * (lat.u1() * (z - b0) + c1)
        return PearsonPair(lat, phi, psi)
    if case == "lower":
        if b1 is None or c2 is None:
            raise ValueError("case 'lower' needs B_1 and C_2 as well")
        b1 = field(b1)
        c2 = field(c2)
        if not c2:
            raise ValueError("C_2 must be nonzero for a regular functional")
        frak_a = alpha * (2 * c1 - c2) / c2
        frak_b = beta - b0 + 2 * alpha * b1 * c1 / c2
        psi = z - b0
        phi = (frak_a * z - frak_b) * (z - b0) - (frak_a + alpha) * c1
        return PearsonPair(lat, phi, psi)
    raise ValueError(f"unknown construction case {case!r}")


def _system_t(lat: Lattice, ttrr: TTRRCoeffs, n_top: int) -> list:
    """[t_0, ..., t_(n_top)] for n_top >= 2: t_n := gamma_n/C_n, t_0 := 2 alpha t_1 - t_2."""
    if not lat.is_q_lattice:
        raise LatticeError("the difference system is stated for q-lattices")
    field = lat.field
    con = lat.constants
    t = [None]
    for n in range(1, n_top + 1):
        cn = ttrr.c(n)
        if field.is_zero(cn):
            raise ValueError(f"C_{n} = 0: t_{n} undefined")
        t.append(con.gamma_n(n) / cn)
    t[0] = 2 * con.alpha * t[1] - t[2]
    return t


def system_constants(lat: Lattice, ttrr: TTRRCoeffs) -> Tuple[object, object]:
    """k1, k2 of t_n = k1 q^(n/2) + k2 q^(-n/2), fitted from t_1 and t_2."""
    _, t1, t2 = _system_t(lat, ttrr, 2)
    q, sq = lat.q, lat.sqrt_q
    det = lat.field.one / sq - sq
    return (t1 / q - t2 / sq) / det, (t2 * sq - t1 * q) / det


def check_system(lat: Lattice, ttrr: TTRRCoeffs, n_max: int) -> Report:
    """The five difference equations forced by ``lower``, one slot each.

    c_n := gamma_n, t_n := c_n/C_n for n >= 1 and t_0 := 2 alpha t_1 - t_2,
    which is k1 + k2 for the constants of ``system_constants``; with it eq2
    states t_n = k1 q^(n/2) + k2 q^(-n/2).  Slot k holds both sides of
    eq(k+1) at every n in its range, so ``first_fail`` is the index of the
    first failing equation and ``failing["index"]`` the position in it.
    A zero C_n (n <= max(2, n_max)) raises ``ValueError``.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    t = _system_t(lat, ttrr, max(2, n_max))
    one = lat.field.one
    con = lat.constants
    alpha = con.alpha
    c = con.gamma_n
    c1c2 = lat.c[0] * lat.c[1]

    def b(n: int):
        return ttrr.b(n) - lat.c[2]

    def cc(n: int):
        return ttrr.c(n) - c1c2

    def equation(ns, sides):
        rows = [sides(n) for n in ns]
        return [lhs for lhs, _ in rows], [rhs for _, rhs in rows]

    return lat.field.report("system", (
        equation(range(n_max - 1), lambda n: (c(n + 2) + c(n), 2 * alpha * c(n + 1))),
        equation(range(n_max - 1), lambda n: (t[n + 2] + t[n], 2 * alpha * t[n + 1])),
        equation(range(n_max - 2), lambda n: (
            t[n + 3] * b(n + 2) + t[n] * b(n), (t[n + 2] + t[n + 1]) * b(n + 1))),
        equation(range(2, n_max - 1), lambda n: (
            (t[n + 1] + t[n + 2]) * cc(n + 1) - 2 * (one + alpha) * t[n] * cc(n)
            + (t[n - 1] + t[n - 2]) * cc(n - 1),
            t[n] * (b(n) ** 2 - 2 * alpha * b(n) * b(n - 1) + b(n - 1) ** 2))),
        equation(range(1, n_max), lambda n: (
            c(n + 1) * b(n + 1) + c(n) * b(n - 1), (2 * alpha - one) * b(n))),
    ))


@dataclass
class FirstCharacterization:
    pair: PearsonPair
    ttrr: TTRRCoeffs
    r: object
    kappa: object
    c1: object
    branch: str
    excluded_index: Optional[int]

    def c_closed(self, m: int):
        """Closed form of C_m for the family built from C_1 (the Pearson route)."""
        lat = self.pair.lattice
        one = lat.field.one
        n = m - 1
        c1c2 = lat.c[0] * lat.c[1]
        qp = lat.q_pow
        return (
            c1c2
            * (one + qp(n - 2))
            * (one - qp(n + 1))
            * (one + self.r * qp(n))
            * (one - qp(n - 1) / self.r)
            / ((one + qp(2 * n - 2)) * (one + qp(2 * n)))
        )

    def witness_closed(self, n: int):
        """Closed form of phi^[n] at the regularity witness point."""
        lat = self.pair.lattice
        field = lat.field
        q = lat.q
        one = field.one
        c1c2 = lat.c[0] * lat.c[1]
        alpha = lat.constants.alpha
        qn = lat.q_pow(n)
        return (
            c1c2
            * (q - one)
            / (2 * alpha)
            * (one + self.r * qn)
            * (one - qn / (self.r * q))
            / qn
        )


def solve_first_characterization(lat: Lattice, c1, branch: str = "+") -> FirstCharacterization:
    """Build the Askey-Wilson-type family of the raising case from C_1.

    The raising case is D_x P_(n+1) = (gamma_(n+1)/alpha_n) S_x P_n.
    Returns its Pearson pair at B_0 = c3, the closed-form TTRR, and the
    parameter r (quadratic in C_1; `branch` picks the sign of the
    square root).  The round trip C_1(r) == C_1 is asserted.

    The family does not solve the relation: it matches the recurrence the
    relation forces through C_2 and fails at slot 3, and no regular
    family solves it past slot 3 (see `solve_relation`).
    """
    if lat.kind != "q-quadratic":
        raise LatticeError("the raising characterization needs a q-quadratic lattice")
    field = lat.field
    c1 = field(c1)
    if not c1:
        raise ValueError("C_1 must be nonzero")
    q = lat.q
    one = field.one
    c1c2 = lat.c[0] * lat.c[1]
    alpha = lat.constants.alpha
    kappa = (c1 + 2 * (alpha * alpha - one) * c1c2) / ((one - q) * c1c2)
    root = field.sqrt(one / q + kappa * kappa)
    if branch == "+":
        r = kappa + root
    elif branch == "-":
        r = kappa - root
    else:
        raise ValueError("branch must be '+' or '-'")
    if field.is_zero(r):
        raise ValueError("degenerate parameter r = 0")
    c1_back = (one - one / q) * (one + one / r) * (one - r * q) * c1c2 / 2
    if not field.approx_eq(c1_back, c1):
        raise InternalCheckError("C_1 round trip through r failed")
    excluded_index = None
    for n in range(EXCLUDED_SCAN + 1):
        if field.approx_eq(r, lat.q_pow(n - 1)) or field.approx_eq(r, -lat.q_pow(-n)):
            excluded_index = n
            break
    c3 = lat.c[2]
    inv_alpha = one / alpha
    z = Polynomial.monomial(field, 1)
    phi = -(alpha - inv_alpha) * ((z - c3) * (z - c3)) - inv_alpha * c1
    psi = z - c3
    pair = PearsonPair(lat, phi, psi)
    return FirstCharacterization(
        pair=pair,
        ttrr=ttrr_from_pearson(pair),
        r=r,
        kappa=kappa,
        c1=c1,
        branch=branch,
        excluded_index=excluded_index,
    )


def meixner_image_ttrr(lat: Lattice, b0, c1) -> TTRRCoeffs:
    """TTRR of (i c5/2)^n M_n(2i(B_0 - z)/c5; 0, -4 C_1/c5^2) on a linear lattice."""
    field = lat.field
    if lat.is_q_lattice or lat.c[0] != field.zero or lat.c[1] == field.zero:
        raise LatticeError("the Meixner-kind image lives on a linear lattice")
    b0 = field(b0)
    c1 = field(c1)
    c5 = lat.c[1]

    def c_fn(m: int):
        value = m * (c1 - (m - 1) * c5 * c5 / 4)
        if field.is_zero(value):
            raise ValueError(
                f"C_{m} = 0: 4*C_1/c5^2 = {m - 1} violates the non-integrality condition"
            )
        return value

    return TTRRCoeffs(field, lambda n: b0, c_fn)


def check_meixner_linear(lat: Lattice, b0, c1, n_max: int) -> Report:
    """The raising relation for the Meixner-kind image.

    On a linear lattice the image family satisfies
    D_x P_(n+1) = (n+1) S_x P_n for all n; on a quadratic lattice
    (beta != 0) the pair-generated sequence must fail it at small n,
    which is exactly what the report shows.
    """
    field = lat.field
    if lat.is_q_lattice:
        raise LatticeError("this check compares linear against quadratic lattices")
    if lat.is_constant:
        raise LatticeError("a constant lattice has no raising relation to check")
    if lat.c[0] == field.zero:
        ttrr = meixner_image_ttrr(lat, b0, c1)
        detail = "meixner-kind image on a linear lattice"
    else:
        ttrr = ttrr_from_pearson(pearson_from_ttrr(lat, "sx_raise", b0, c1))
        detail = "pair-generated sequence on a quadratic lattice (beta != 0)"
    slots = _relation_slots(lat, OPSequence(field, ttrr), "sx_raise", n_max)
    return field.report("sx_raise", slots, detail)
