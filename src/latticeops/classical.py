"""Pearson pairs on a lattice: regularity, closed recurrence data, Rodrigues.

A pair (phi, psi) with deg phi <= 2, deg psi <= 1 defines a functional u
through D(phi*u) = S(psi*u).  This module decides admissibility and
regularity, produces the closed-form recurrence coefficients B_n and
C_(n+1), the iterated pairs (phi^[k], psi^[k]) with their functionals
u^[k], the Rodrigues-type representation P_n u = k_n D^n u^[k], and the
asymptotic behaviour of the recurrence coefficients.

Every closed form is cross-checked: iterated pairs against their defining
recursion (on six levels, which prove all), moments against the Pearson
recursion, recurrence coefficients against the moment oracle (in the
test-suite), so a transcription slip in any one route cannot pass silently.

The closed route is written once for every lattice, in alpha, beta,
delta = U2(0), alpha_n, beta_n and gamma_n (see ``lattice``): the iterated
pairs, the witness point (the root of psi^[n]) and through them C_(n+1).
Each of its values at level k is a combination of the lattice's five level
functions (1, gamma_k, s_k, gamma_k s_k, s_k^2), the packed ``level_row(k)``:
on q-lattices a Laurent polynomial in t^k with exponents in [-2, 2], when
q = 1 a polynomial of degree <= 4 in k.  ``PearsonPair._closed_matrix``
writes the closed formula out once per pair as the 5x5 matrix M of those
weights, each entry a product of the pair's (c, b, a, e, d) and the lattice
constants beta, delta, bd, rho, U1(0) and alpha^2 - 1, so that
(c, b, a, e, d)^[k] = M row(k); no formula is evaluated over the level
functions.  Likewise (d_n, e_n) = W row(n) for a 2x5 matrix W per pair
that weighs only (1, gamma_n, s_n) (e_n per kind, as ``classify`` prints
it).  M, W and the recursion map R share one layout, entry 5 i + j the
weight of input j in coordinate i, and one product, ``scalars.mat_row``:
on the exact backend an integer matrix times an integer row.
``b_offset``, B_n less its lattice offset, is one formula in gamma_n,
e_n and d_n on both kinds: the difference of consecutive terms
gamma_n e_(n-1) / d_(2n-2), written once, so the partial sums
``partial_sum_closed`` telescope by construction and are no second route;
B_n is checked against the moment oracle.

What is memoized, per PearsonPair, through ``lattice.memoized``: W and
W row(n) at every index, M, the recursion check, and at every level the
product M row(k) and the witness phi^[n](witness_point(n)), which reads
the closed row alone (one quotient per level); ``regularity`` and the
C_(n+1) of ``ttrr_from_pearson`` read the same witness.  Also the term
gamma_n e_(n-1) / d_(2n-2) of ``b_offset``, which B_(n-1) and B_n share.
Per lattice, ``_recursion_map``: the recursion
R(phi, psi) = (S phi + U1 S psi + alpha U2 D psi, D phi + alpha S psi + U1 D psi)
is linear and keeps degrees (2, 1), so it is one 5x5 map R on
(c, b, a, e, d), summed once from the packed rows of the D_x and S_x
tables (``operators.monomial_rows``), U1 and U2.  Every closed row is read
through the recursion check (``_closed_row``), which runs once per pair.
The lattice memoizes alpha_n, gamma_n, s_n and the level rows, read from
its one table of packed powers (t^k, t^-k), and U1 and U2 (see ``lattice``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .functionals import (
    AdmissibilityError,
    InternalCheckError,
    MomentFunctional,
    OPSequence,
    TTRRCoeffs,
    dual_dx,
    dual_dx_pow,
    dual_sx,
    left_mul,
    moment_slot,
    pearson_moments,
)
from .lattice import Lattice, LatticeError, memoized
from .operators import monomial_rows
from .polynomials import Polynomial
from .scalars import Field, Report, add_rows, encode_fields, mat_row, mul_rows


class PearsonPair:
    """phi = a z^2 + b z + c and psi = d z + e on a fixed lattice."""

    def __init__(self, lattice: Lattice, phi: Polynomial, psi: Polynomial):
        if phi.degree > 2:
            raise ValueError("phi must have degree <= 2")
        if psi.degree > 1:
            raise ValueError("psi must have degree <= 1")
        if phi.is_zero and psi.is_zero:
            raise ValueError("the Pearson pair (0, 0) is degenerate")
        self.lattice = lattice
        self.field = lattice.field
        self.phi = phi
        self.psi = psi
        self._own_row = self.field.pack((self.c, self.b, self.a, self.e, self.d))

    @property
    def a(self):
        return self.phi.coeff(2)

    @property
    def b(self):
        return self.phi.coeff(1)

    @property
    def c(self):
        return self.phi.coeff(0)

    @property
    def d(self):
        return self.psi.coeff(1)

    @property
    def e(self):
        return self.psi.coeff(0)

    def _at_c3(self) -> Tuple[object, object]:
        """(phi'(c3), psi(c3)) on a q-lattice, for the c3-offset forms."""
        c3 = self.lattice.c[2]
        return self.phi.derivative()(c3), self.psi(c3)

    def d_value(self, n: int):
        """d_n = a gamma_n + d alpha_n, the admissibility sequence."""
        return self._first_row(n)[0]

    def e_value(self, n: int):
        """e_n, the companion sequence entering B_n; per kind, as ``classify`` prints it."""
        return self._first_row(n)[1]

    @memoized
    def _first_row(self, n: int) -> list:
        """(d_n, e_n) = W row(n)."""
        row = self.lattice.constants.level_row(n)
        return self.field.unpack(mat_row(self._first_weights(), row))

    @memoized
    def _first_weights(self) -> tuple:
        """W, the 2x5 matrix of (d_n, e_n) = W row(n), packed like M.  Its
        weights on gamma_n s_n and s_n^2 are 0; on (1, gamma_n, s_n),
        alpha_n = 1 + bd s_n / 2 makes them (d, a, d bd/2) for d_n, and for
        e_n (psi(c3), phi'(c3), psi(c3) bd/2) on q-lattices, from
        phi'(c3) gamma_n + psi(c3) alpha_n, and (e, b, 2 beta d) when q = 1,
        from b n + e + 2 beta d n^2."""
        con = self.lattice.constants
        if self.lattice.is_q_lattice:
            phid_c3, psi_c3 = self._at_c3()
            e_weights = (psi_c3, phid_c3, psi_c3 * con.bd / 2)
        else:
            e_weights = (self.e, self.b, 2 * con.beta * self.d)
        zeros = (self.field.zero,) * 2
        return self.field.pack((self.d, self.a, self.d * con.bd / 2, *zeros, *e_weights, *zeros))

    @memoized
    def witness(self, n: int):
        """phi^[n](witness_point(n)); a zero of it ends regularity at level n.

        With (C, B, A, E, D) / den the closed row of level n, the witness
        point is -E/D and the witness (C D^2 - B E D + A E^2) / (den D^2).
        """
        _checked_d(self, 2 * n)
        (c, b, a, e, d), den = self._closed_row(n)
        return self.field.unpack(([(c * d - b * e) * d + a * e * e], den * d * d))[0]

    def iterated(self, k: int) -> Tuple[Polynomial, Polynomial]:
        """(phi^[k], psi^[k]), unpacked from the packed row ``_level(k)``."""
        return self._pair_of(self._level(k))

    def _level(self, k: int) -> tuple:
        """Level k's packed row; at k = 0 the pair's own, which M row(0) can round apart from."""
        return self._closed_row(k) if k else self._own_row

    def _pair_of(self, row: tuple) -> Tuple[Polynomial, Polynomial]:
        """(phi, psi) from a packed (c, b, a, e, d) row."""
        values, den = row
        return tuple(Polynomial.from_row(self.field, (v, den)) for v in (values[:3], values[3:]))

    def _closed_row(self, k: int) -> tuple:
        """(c, b, a, e, d)^[k] = M row(k), packed: the one read, through the check."""
        self._check_recursion()
        return self._product(k)

    @memoized
    def _product(self, k: int) -> tuple:
        """M row(k) unchecked, row(k) = ``level_row(k)``: 25 products of ints on exact."""
        return mat_row(self._closed_matrix(), self.lattice.constants.level_row(k))

    @memoized
    def _check_recursion(self) -> None:
        """Compare the recursion R (``_recursion_map``) with the closed form on
        levels 1 to 6, in one report with a phi and a psi slot per level: R on
        the pair's own row against M row(1), then R M row(k) against
        M row(k + 1) for k = 1..5, the denominators cross-multiplied.

        That proves every level.  Each entry of R M row(k) - M row(k + 1) is a
        Laurent polynomial in T = t^k with exponents in [-2, 2] on a q-lattice,
        of degree <= 4 in k when q = 1, so it is 0 once it vanishes at five
        distinct T or k.  ``Lattice`` accepts only real q > 0, so t = sqrt(q)
        is positive and not 1 on every q-lattice: k = 1..5 give five distinct T.
        """
        rmap, closed = _recursion_map(self.lattice), [self._product(k) for k in range(1, 7)]
        slots = []
        for below, (row, cden) in zip((self._own_row, *closed), closed):
            image, iden = mat_row(rmap, below)
            lhs, rhs = [x * cden for x in image], [x * iden for x in row]
            slots += [(lhs[:3], rhs[:3]), (lhs[3:], rhs[3:])]
        rep = self.field.report("iterated", slots)
        if not rep.passed:
            name, level = ("phi", "psi")[rep.first_fail % 2], rep.first_fail // 2 + 1
            raise InternalCheckError(f"{name}^[{level}] closed form disagrees with the recursion")

    @memoized
    def _closed_matrix(self) -> tuple:
        """M with (c, b, a, e, d)^[k] = M row(k), one packed row of 25 entries,
        entry 5 i + j the weight of level function j in coordinate i.

        The closed form of (phi^[k], psi^[k]), one formula for every lattice, is

            c^[k] = c + b beta_k + a (beta_k^2 + delta gamma_k^2)
                    + d gamma_k (u10 beta_k + delta alpha_k) + e u10 gamma_k,
            b^[k] = b alpha_k + e a2m1 gamma_k + 2 a (beta_2k - beta_k)
                    + d u10 (2 gamma_2k - gamma_k),
            a^[k] = a alpha_2k + d a2m1 gamma_2k,
            e^[k] = b gamma_k + e alpha_k + beta_k (2 a gamma_k + d (1 + 2 alpha_k)),
            d^[k] = a gamma_2k + d alpha_2k,

        with u10 = U1(0), a2m1 = alpha^2 - 1 and delta = U2(0), written out in
        the level functions through alpha_k = 1 + h s_k (h = bd / 2),
        beta_k = beta s_k, gamma_k^2 = rho (4 s_k + bd s_k^2),
        s_2k = 4 s_k + bd s_k^2 and gamma_2k = 2 gamma_k + bd gamma_k s_k.
        """
        con = self.lattice.constants
        u1 = self.lattice.u1()
        u10, a2m1 = u1.coeff(0), u1.coeff(1)
        beta, delta, bd, rho = con.beta, con.delta, con.bd, con.rho
        h = bd / 2
        c, b, a, e, d = self.c, self.b, self.a, self.e, self.d
        return self.field.pack((
            c, e * u10 + d * delta, b * beta + 4 * a * delta * rho,
            d * (u10 * beta + delta * h), a * (beta * beta + delta * rho * bd),
            b, e * a2m1 + 3 * d * u10, b * h + 6 * a * beta, 2 * d * u10 * bd, 2 * a * beta * bd,
            a, 2 * d * a2m1, 2 * a * bd, d * a2m1 * bd, a * bd * h,
            e, b, e * h + 3 * d * beta, 2 * a * beta, d * beta * bd,
            d, 2 * a, 2 * d * bd, a * bd, d * bd * h,
        ))

    def moments(self) -> MomentFunctional:
        return pearson_moments(self)

    def to_json(self):
        return {"phi": self.phi.to_json(), "psi": self.psi.to_json()}

    @classmethod
    def from_json(cls, lattice: Lattice, obj) -> "PearsonPair":
        if not isinstance(obj, dict) or "phi" not in obj or "psi" not in obj:
            raise ValueError("pair spec must be an object with 'phi' and 'psi'")
        field = lattice.field
        return cls(
            lattice,
            Polynomial.from_json(field, obj["phi"]),
            Polynomial.from_json(field, obj["psi"]),
        )

    def __repr__(self):
        return f"PearsonPair(phi={self.phi!r}, psi={self.psi!r})"


@memoized
def _recursion_map(lat: Lattice) -> tuple:
    """R(phi, psi) = (S phi + U1 S psi + alpha U2 D psi, D phi + alpha S psi + U1 D psi),
    the step from (phi^[k], psi^[k]) to (phi^[k+1], psi^[k+1]), as one 5x5 map
    on (c, b, a, e, d), packed as one row of 25 entries.

    R is linear and keeps degrees (2, 1): entry 5 i + j, as in M, is coordinate i
    of R on the j-th unit pair (1, 0), (z, 0), (z^2, 0), (0, 1), (0, z).
    The images are sums of the packed rows of the D_x and S_x tables
    (``operators.monomial_rows``), U1, U2 and alpha: R(z^k, 0) = (S z^k, D z^k)
    and R(0, z^k) = (U1 S z^k + alpha U2 D z^k, alpha S z^k + U1 D z^k).
    """
    field = lat.field
    u1, u2 = lat.u1().row, lat.u2().row
    alpha = field.pack((lat.constants.alpha,))
    rows = [monomial_rows(lat, k) for k in range(3)]
    images = [(s, d) for d, s in rows]
    images += [(add_rows(mul_rows(u1, s), mul_rows(mul_rows(u2, d), alpha)),
                add_rows(mul_rows(s, alpha), mul_rows(u1, d))) for d, s in rows[:2]]
    columns = []
    for phi, psi in images:
        phi, psi = field.unpack(phi), field.unpack(psi)
        if len(phi) > 3 or len(psi) > 2:
            raise InternalCheckError(
                f"the recursion takes a unit pair to degrees ({len(phi) - 1}, {len(psi) - 1}),"
                " beyond (2, 1)"
            )
        columns.append(phi + [field.zero] * (3 - len(phi)) + psi + [field.zero] * (2 - len(psi)))
    return field.pack([x for row in zip(*columns) for x in row])


@dataclass
class RegularityRow:
    n: int
    d_n: object
    e_n: object
    witness: object
    witness_zero: bool


@dataclass
class RegularityReport:
    rows: List[RegularityRow]
    admissibility_first_zero: Optional[int]
    witness_first_zero: Optional[int]

    @property
    def regular(self) -> bool:
        return self.admissibility_first_zero is None and self.witness_first_zero is None

    @property
    def verdict(self) -> str:
        if self.admissibility_first_zero is not None:
            return f"fails-admissibility-at-{self.admissibility_first_zero}"
        if self.witness_first_zero is not None:
            return f"zero-witness-at-{self.witness_first_zero}"
        return "regular-through-horizon"

    def to_json(self, field: Field):
        return {
            "regular": self.regular,
            "verdict": self.verdict,
            "rows": [encode_fields(field, r) for r in self.rows],
        }


def witness_point(pair: PearsonPair, n: int):
    """The point where phi^[n] must not vanish for u to stay regular: the
    root -psi^[n](0)/d_2n of psi^[n]."""
    d2n = _checked_d(pair, 2 * n)
    return -pair.field.unpack(pair._closed_row(n))[3] / d2n


def regularity(pair: PearsonPair, n_max: int) -> RegularityReport:
    """Decide regularity through level n_max via d_n and the phi^[n] witnesses."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    field = pair.field
    d_zero = next((n for n in range(2 * n_max + 2) if field.is_zero(pair.d_value(n))), None)
    rows: List[RegularityRow] = []
    witness_zero_at = None
    for n in range(n_max + 1):
        if d_zero is not None and 2 * n >= d_zero:
            break
        w = pair.witness(n)
        wz = field.is_zero(w, scale=_phi_coeffs(field, pair._level(n)))
        rows.append(RegularityRow(n=n, d_n=pair.d_value(n), e_n=pair.e_value(n),
                                  witness=w, witness_zero=wz))
        if wz and witness_zero_at is None:
            witness_zero_at = n
    return RegularityReport(
        rows=rows,
        admissibility_first_zero=d_zero,
        witness_first_zero=witness_zero_at,
    )


def _phi_coeffs(field: Field, row: tuple):
    """phi's (c, b, a) from a packed (c, b, a, e, d) row, unpacked only when
    read: the witness scale, which only bigfloat's ``_vanishes`` reads."""
    values, den = row
    yield from field.unpack((values[:3], den))


def _checked_d(pair: PearsonPair, n: int):
    v = pair.d_value(n)
    if pair.field.is_zero(v):
        raise AdmissibilityError(n)
    return v


@memoized
def _telescoped(pair: PearsonPair, n: int):
    """gamma_n e_(n-1) / d_(2n-2), 0 at n = 0: B_n less its offset is
    ``_telescoped(n) - _telescoped(n + 1)`` (less 2 beta n (n - 1) when q = 1)."""
    if n == 0:
        return pair.field.zero
    return pair.lattice.constants.gamma_n(n) * pair.e_value(n - 1) / _checked_d(pair, 2 * n - 2)


def b_offset(pair: PearsonPair, n: int):
    """B_n minus its lattice offset (c3 for q-lattices, 0 when q = 1), formed
    without cancellation so the q^n-scale tail survives finite precision:
    gamma_n e_(n-1) / d_(2n-2) - gamma_(n+1) e_n / d_(2n), less 2 beta n (n - 1)
    when q = 1."""
    lat = pair.lattice
    value = _telescoped(pair, n) - _telescoped(pair, n + 1)
    if lat.is_q_lattice:
        return value
    return value - 2 * lat.constants.beta * (n * (n - 1))


def ttrr_from_pearson(pair: PearsonPair) -> TTRRCoeffs:
    """Closed-form recurrence coefficients of the orthogonal sequence of u."""
    lat = pair.lattice
    field = pair.field
    con = lat.constants

    def b_fn(n: int):
        base = lat.c[2] if lat.is_q_lattice else field.zero
        return base + b_offset(pair, n)

    def c_fn(m: int):
        n = m - 1
        w = pair.witness(n)
        gamma_next = con.gamma_n(n + 1)
        if n == 0:
            # d_(n-1) appears in both numerator and denominator; cancel it
            # so pairs with d_(-1) = 0 still get their valid C_1
            return -gamma_next * w / _checked_d(pair, 1)
        num = gamma_next * pair.d_value(n - 1)
        return -num / (_checked_d(pair, 2 * n - 1) * _checked_d(pair, 2 * n + 1)) * w

    return TTRRCoeffs(field, b_fn, c_fn)


def rodrigues_constant(pair: PearsonPair, n: int):
    """k_n with P_n u = k_n D^n u^[n]."""
    field = pair.field
    alpha = pair.lattice.constants.alpha
    k = (-alpha) ** (-n) if n else field.one
    k = field(k)
    for j in range(1, n + 1):
        k = k / pair.d_value(n + j - 2)
    return k


def uk_functional(pair: PearsonPair, k: int, u: MomentFunctional) -> MomentFunctional:
    """u^[k]: u^[0] = u and u^[k+1] = D(U2 psi^[k] u^[k]) - S(phi^[k] u^[k])."""
    lat = pair.lattice
    u2 = lat.u2()
    for j in range(k):
        phi_j, psi_j = pair.iterated(j)
        u = dual_dx(lat, left_mul(u, u2 * psi_j)) - dual_sx(lat, left_mul(u, phi_j))
    return u


def rodrigues_verify(pair: PearsonPair, n: int, horizon: int) -> Report:
    """Compare the moments of P_n u with k_n D^n u^[n] up to `horizon`, as one slot."""
    if n < 0:
        raise ValueError(f"the Rodrigues order must be >= 0, got {n}")
    field = pair.field
    lat = pair.lattice
    u = pair.moments()
    seq = OPSequence(field, ttrr_from_pearson(pair))
    lhs = left_mul(u, seq.p(n))
    rhs = rodrigues_constant(pair, n) * dual_dx_pow(lat, uk_functional(pair, n, u), n)
    return field.report("rodrigues", [moment_slot(lhs, rhs, horizon)], detail=f"n = {n}")


@dataclass
class AsymptoticsReport:
    kind: str
    ratio_limit: Optional[object] = None
    ratio_estimate: Optional[object] = None
    ratio_error: Optional[float] = None
    series_value: Optional[object] = None
    series_estimate: Optional[object] = None
    series_error: Optional[float] = None
    b_scaled_limit: Optional[object] = None
    b_scaled_estimate: Optional[object] = None
    b_scaled_error: Optional[float] = None
    c_scaled_limit: Optional[object] = None
    c_scaled_estimate: Optional[object] = None
    c_scaled_error: Optional[float] = None

    def to_json(self, field: Field):
        return encode_fields(field, self)


def partial_sum_closed(pair: PearsonPair, n: int):
    """S_n = sum_(j<n) (B_j - c3) on a q-lattice, telescoped from ``b_offset``
    to -gamma_n e_(n-1) / d_(2n-2), the form that keeps its q^n tail."""
    if not pair.lattice.is_q_lattice:
        raise LatticeError("the telescoped partial sum is a q-lattice statement")
    return -_telescoped(pair, n)


def asymptotics(pair: PearsonPair, n_eval: int) -> AsymptoticsReport:
    """Limit behaviour of the recurrence coefficients, checked numerically.

    q-lattices: the geometric decay rate of B_n - c3 and the value of the
    full series.  Quadratic lattices: the n^2 and n^4 growth constants of
    B_n and C_(n+1).
    """
    lat = pair.lattice
    least = 0 if lat.is_q_lattice else 1  # the quadratic estimates divide by n_eval
    if n_eval < least:
        raise ValueError(
            f"asymptotics on a {lat.kind} lattice needs n_eval >= {least}, got {n_eval}"
        )
    field = pair.field
    con = lat.constants
    if lat.is_q_lattice:
        # t -> 1/t leaves every lattice constant unchanged: use the t with |t| < 1
        s = 1 if field.magnitude(lat.q) < 1 else -1
        t = lat.t_pow(s)
        uval = field.one / (t - lat.t_pow(-s))
        phid_c3, psi_c3 = pair._at_c3()
        a, d = pair.a, pair.d
        denom = d - 2 * a * uval
        if field.is_zero(denom):
            return AsymptoticsReport(kind=lat.kind)
        numer = psi_c3 - 4 * con.alpha * uval * uval * phid_c3
        ratio_limit = -(numer / (uval * denom)) / t
        series_value = (psi_c3 - 2 * uval * phid_c3) / ((lat.t_pow(2 * s) - field.one) * denom)
        scale_pow = lat.q_pow(-s * n_eval)
        ratio_estimate = scale_pow * b_offset(pair, n_eval)
        series_estimate = partial_sum_closed(pair, n_eval)
        return AsymptoticsReport(
            kind=lat.kind,
            ratio_limit=ratio_limit,
            ratio_estimate=ratio_estimate,
            ratio_error=field.magnitude(ratio_estimate - ratio_limit),
            series_value=series_value,
            series_estimate=series_estimate,
            series_error=field.magnitude(series_estimate - series_value),
        )
    beta = con.beta
    if field.is_zero(beta):
        raise LatticeError("quadratic-growth limits need a quadratic lattice (beta != 0)")
    a_zero = field.is_zero(pair.a)
    b_limit = -8 * beta if a_zero else -2 * beta
    c_limit = 16 * beta * beta if a_zero else beta * beta
    n = n_eval
    b_est = b_offset(pair, n) / field(n * n)
    ttrr = ttrr_from_pearson(pair)
    c_est = ttrr.c(n + 1) / field(n**4)
    return AsymptoticsReport(
        kind=lat.kind,
        b_scaled_limit=b_limit,
        b_scaled_estimate=b_est,
        b_scaled_error=field.magnitude(b_est - b_limit),
        c_scaled_limit=c_limit,
        c_scaled_estimate=c_est,
        c_scaled_error=field.magnitude(c_est - c_limit),
    )
