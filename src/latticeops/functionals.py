"""Linear functionals on polynomials, represented by their moment sequences.

A functional u is the sequence mu_n = <u, z^n>.  The dual operators act
through their defining adjunctions

    <D u, f> = -<u, D_x f>        <S u, f> = <u, S_x f>

so every transformed functional is again a moment sequence, computed
lazily from its parent.  This gives an oracle for everything downstream:
Pearson moments, the TTRR by the Chebyshev algorithm on the moments alone,
Hankel determinants (a second, determinant route to the same TTRR), and
moment-wise checks of the dual-side identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .lattice import Lattice
from .operators import dx_monomial, sx_monomial, tnk
from .polynomials import Polynomial, add_coeffs, mul_coeffs
from .scalars import Field, Report


class HorizonError(RuntimeError):
    """A fixed moment table was asked beyond its last entry."""


class NotRegularError(RuntimeError):
    """A functional turned out non-regular during TTRR extraction."""

    def __init__(self, level: int, message: Optional[str] = None):
        self.level = level
        super().__init__(message or f"functional is not regular at level {level}")


class AdmissibilityError(RuntimeError):
    """The Pearson moment recursion hit d_n = 0."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"d_{n} = 0: the Pearson pair is not admissible")


class MomentFunctional:
    """Moment sequence with optional lazy extension."""

    def __init__(self, field: Field, moments: Sequence = (),
                 extender: Optional[Callable[[int], object]] = None):
        self.field = field
        self._moments: List = [field(m) for m in moments]
        self._extender = extender

    @property
    def horizon(self) -> Optional[int]:
        """Largest guaranteed moment index, or None if extendable."""
        if self._extender is not None:
            return None
        return len(self._moments) - 1

    def _ensure(self, n: int) -> None:
        while len(self._moments) <= n:
            if self._extender is None:
                raise HorizonError(
                    f"moment {n} requested but only {len(self._moments)} are known"
                )
            k = len(self._moments)
            self._moments.append(self.field(self._extender(k)))

    def moment(self, n: int):
        if n < 0:
            raise ValueError("moment index must be >= 0")
        self._ensure(n)
        return self._moments[n]

    def moments(self, n: int) -> List:
        self._ensure(n)
        return list(self._moments[: n + 1])

    def apply(self, f: Polynomial):
        """<u, f>."""
        acc = self.field.zero
        for k, c in enumerate(f.coeffs):
            acc = acc + c * self.moment(k)
        return acc

    def __add__(self, other: "MomentFunctional") -> "MomentFunctional":
        return MomentFunctional(
            self.field, extender=lambda k: self.moment(k) + other.moment(k)
        )

    def __sub__(self, other: "MomentFunctional") -> "MomentFunctional":
        return MomentFunctional(
            self.field, extender=lambda k: self.moment(k) - other.moment(k)
        )

    def __rmul__(self, scalar) -> "MomentFunctional":
        s = self.field(scalar)
        return MomentFunctional(self.field, extender=lambda k: s * self.moment(k))

    def __repr__(self):
        shown = ", ".join(self.field.to_str(m) for m in self._moments[:4])
        tail = ", ..." if self._extender is not None or len(self._moments) > 4 else ""
        return f"MomentFunctional([{shown}{tail}])"


def left_mul(u: MomentFunctional, f: Polynomial) -> MomentFunctional:
    """The functional f*u with <f*u, g> = <u, f*g>."""

    def ext(k: int):
        acc = u.field.zero
        for j, c in enumerate(f.coeffs):
            acc = acc + c * u.moment(k + j)
        return acc

    return MomentFunctional(u.field, extender=ext)


def dual_dx(lat: Lattice, u: MomentFunctional) -> MomentFunctional:
    return MomentFunctional(
        u.field, extender=lambda k: -u.apply(dx_monomial(lat, k))
    )


def dual_sx(lat: Lattice, u: MomentFunctional) -> MomentFunctional:
    return MomentFunctional(
        u.field, extender=lambda k: u.apply(sx_monomial(lat, k))
    )


def dual_dx_pow(lat: Lattice, u: MomentFunctional, n: int) -> MomentFunctional:
    for _ in range(n):
        u = dual_dx(lat, u)
    return u


def dual_sx_pow(lat: Lattice, u: MomentFunctional, n: int) -> MomentFunctional:
    for _ in range(n):
        u = dual_sx(lat, u)
    return u


def _pair_polys(pair):
    """Accept a (phi, psi) tuple or any object with .phi/.psi attributes."""
    if isinstance(pair, tuple):
        phi, psi = pair
    else:
        phi, psi = pair.phi, pair.psi
    return phi, psi


def pearson_moments(lat: Lattice, pair, mu0=1) -> MomentFunctional:
    """Moments of the functional solving D(phi*u) = S(psi*u).

    Pairing the equation with z^n gives <u, phi*D_x z^n + psi*S_x z^n> = 0,
    a linear recursion for mu_(n+1) whose leading coefficient is the
    admissibility value d_n = a*gamma_n + d*alpha_n; it is cross-checked
    against that closed form on every step.
    """
    phi, psi = _pair_polys(pair)
    field = lat.field
    con = lat.constants
    a = phi.coeff(2)
    d = psi.coeff(1)
    u = MomentFunctional(field, [field(mu0)])

    def ext(k: int):
        n = k - 1
        # coefficients of g = phi*D_x z^n + psi*S_x z^n, of degree <= n+1
        g = add_coeffs(mul_coeffs(phi.coeffs, dx_monomial(lat, n).coeffs),
                       mul_coeffs(psi.coeffs, sx_monomial(lat, n).coeffs))
        dn = g[n + 1] if len(g) > n + 1 else field.zero
        dn_closed = a * con.gamma_n(n) + d * con.alpha_n(n)
        if not field.approx_eq(dn, dn_closed):
            raise AssertionError(
                f"leading Pearson coefficient disagrees with d_{n} closed form"
            )
        if field.is_zero(dn, scale=g):
            raise AdmissibilityError(n)
        acc = field.zero
        for j in range(n + 1):
            acc = acc + g[j] * u.moment(j)
        return -acc / dn

    u._extender = ext
    return u


@dataclass
class TTRRCoeffs:
    """Coefficients of P_(n+1) = (z - B_n) P_n - C_n P_(n-1), C_0 = 0."""

    field: Field
    b_fn: Callable[[int], object]
    c_fn: Callable[[int], object]
    horizon: Optional[int] = None
    _cache_b: Dict[int, object] = dc_field(default_factory=dict)
    _cache_c: Dict[int, object] = dc_field(default_factory=dict)

    @classmethod
    def from_lists(cls, field: Field, bs: Sequence, cs: Sequence) -> "TTRRCoeffs":
        """bs = [B_0..B_N], cs = [C_1..C_M]."""
        bs = [field(v) for v in bs]
        cs = [field(v) for v in cs]

        def b_fn(n: int):
            if n >= len(bs):
                raise HorizonError(f"B_{n} is beyond the stored range")
            return bs[n]

        def c_fn(n: int):
            if n - 1 >= len(cs):
                raise HorizonError(f"C_{n} is beyond the stored range")
            return cs[n - 1]

        return cls(field, b_fn, c_fn, horizon=len(bs) - 1)

    def b(self, n: int):
        if n < 0:
            raise ValueError("B_n is defined for n >= 0")
        if n not in self._cache_b:
            self._cache_b[n] = self.field(self.b_fn(n))
        return self._cache_b[n]

    def c(self, n: int):
        if n < 0:
            raise ValueError("C_n is defined for n >= 0")
        if n == 0:
            return self.field.zero
        if n not in self._cache_c:
            self._cache_c[n] = self.field(self.c_fn(n))
        return self._cache_c[n]

    def rows(self, n_max: int):
        return [(n, self.b(n), self.c(n)) for n in range(n_max + 1)]

    def to_json(self, n_max: int):
        return [
            {
                "n": n,
                "b": self.field.to_json(b),
                "c": self.field.to_json(c),
            }
            for n, b, c in self.rows(n_max)
        ]


class OPSequence:
    """Monic polynomials generated by a TTRR; p(-1) is the zero polynomial."""

    def __init__(self, field: Field, ttrr: TTRRCoeffs):
        self.field = field
        self.ttrr = ttrr
        self._polys: List[Polynomial] = [Polynomial.one(field)]

    def p(self, n: int) -> Polynomial:
        if n < 0:
            return Polynomial.zero(self.field)
        z = Polynomial.monomial(self.field, 1)
        while len(self._polys) <= n:
            m = len(self._polys) - 1
            prev = self._polys[m]
            prev2 = self._polys[m - 1] if m >= 1 else Polynomial.zero(self.field)
            nxt = (z - self.ttrr.b(m)) * prev - self.ttrr.c(m) * prev2
            self._polys.append(nxt)
        return self._polys[n]


def ttrr_oracle(u: MomentFunctional, n_max: int) -> TTRRCoeffs:
    """Recover B_n (n <= n_max) and C_n (n <= n_max+1) from moments alone.

    Chebyshev algorithm (Gautschi 2004, section 2.1.7) on the mixed moments
    sigma_(k,l) = <u, P_k z^l>, which vanish for l < k:

        sigma_(0,l) = mu_l,
        sigma_(k+1,l) = sigma_(k,l+1) - B_k sigma_(k,l) - C_k sigma_(k-1,l),
        h_n = sigma_(n,n) = <u, P_n^2>,   C_(n+1) = h_(n+1)/h_n,
        B_n = sigma_(n,n+1)/h_n - sigma_(n-1,n)/h_(n-1).

    O(n_max^2) field operations.  The table is filled one anti-diagonal
    k + l = m per moment mu_m, and each one needs only the two before it,
    so level n is decided from mu_0..mu_(2n) alone and a full run reads up
    to mu_(2 n_max + 2).  Raises NotRegularError when some h_n vanishes.
    """
    field = u.field
    bs: List = []
    cs: List = []  # cs[k-1] = C_k
    ratio_prev = field.zero  # sigma_(n-1,n)/h_(n-1); zero for n = 0
    older: List = []  # older[k] = sigma_(k, m-2-k)
    old: List = []  # old[k] = sigma_(k, m-1-k)
    for m in range(2 * n_max + 3):
        diag = [u.moment(m)]  # diag[k] = sigma_(k, m-k), down to k = m // 2
        for k in range(1, m // 2 + 1):
            s = diag[k - 1] - bs[k - 1] * old[k - 1]
            if k >= 2:
                s = s - cs[k - 2] * older[k - 2]
            diag.append(s)
        n, odd = divmod(m, 2)
        if odd:
            ratio = diag[n] / old[n]
            bs.append(ratio - ratio_prev)
            ratio_prev = ratio
        else:
            h = diag[n]
            if n >= 1:
                cs.append(h / older[n - 1])
            if n <= n_max and field.is_zero(h, scale=() if n == 0 else (older[n - 1],)):
                raise NotRegularError(n, f"<u, P_{n}^2> = 0: u is not regular at level {n}")
        older, old = old, diag
    return TTRRCoeffs.from_lists(field, bs, cs)


def hankel_det(u: MomentFunctional, n: int):
    """det [mu_(i+j)] for i, j < n, by Gaussian elimination; n = 0 gives 1."""
    field = u.field
    if n == 0:
        return field.one
    rows = [[u.moment(i + j) for j in range(n)] for i in range(n)]
    det = field.one
    for col in range(n):
        pivot_row = None
        best = -1.0
        for r in range(col, n):
            mag = field.magnitude(rows[r][col])
            if mag > best and rows[r][col] != 0:
                best = mag
                pivot_row = r
        if pivot_row is None:
            return field.zero
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor != 0:
                rows[r] = [rv - factor * cv for rv, cv in zip(rows[r], rows[col])]
    return det


def hankel_dets(u: MomentFunctional, n_max: int) -> List:
    return [hankel_det(u, n) for n in range(n_max + 1)]


FUNCTIONAL_IDENTITIES = (
    "dual_product_dx",
    "dual_product_sx",
    "dual_dxn_sx",
    "leibniz",
    "leibniz_deg2",
)


def _functional_sides(lat: Lattice, identity: str, f: Optional[Polynomial],
                      u: MomentFunctional, n: Optional[int]):
    from .operators import dx, sx  # local import keeps module load order simple

    field = lat.field
    con = lat.constants
    alpha = con.alpha
    inv_alpha = field.one / alpha
    u1 = lat.u1()
    u2 = lat.u2()
    if identity == "dual_product_dx":
        lhs = dual_dx(lat, left_mul(u, f))
        rhs = left_mul(dual_dx(lat, u), sx(lat, f) - inv_alpha * (u1 * dx(lat, f))) + \
            left_mul(dual_sx(lat, u), inv_alpha * dx(lat, f))
        return lhs, rhs
    if identity == "dual_product_sx":
        lhs = dual_sx(lat, left_mul(u, f))
        rhs = left_mul(dual_dx(lat, u), (alpha * u2 - inv_alpha * (u1 * u1)) * dx(lat, f)) + \
            left_mul(dual_sx(lat, u), sx(lat, f) + inv_alpha * (u1 * dx(lat, f)))
        return lhs, rhs
    if identity == "dual_dxn_sx":
        if n is None:
            raise ValueError("dual_dxn_sx needs the composition order n")
        lhs = alpha * dual_dx_pow(lat, dual_sx(lat, u), n)
        rhs = con.alpha_n(n + 1) * dual_sx(lat, dual_dx_pow(lat, u, n)) + \
            con.gamma_n(n) * left_mul(dual_dx_pow(lat, u, n + 1), u1)
        return lhs, rhs
    if identity == "leibniz":
        if n is None:
            raise ValueError("the Leibniz identity needs the order n")
        lhs = dual_dx_pow(lat, left_mul(u, f), n)
        rhs = None
        for k in range(n + 1):
            term = left_mul(
                dual_dx_pow(lat, dual_sx_pow(lat, u, k), n - k),
                tnk(lat, f, n, k),
            )
            rhs = term if rhs is None else rhs + term
        return lhs, rhs
    if identity == "leibniz_deg2":
        if n is None:
            raise ValueError("the degree-2 Leibniz form needs the order n")
        if not lat.is_q_lattice:
            raise ValueError("the degree-2 Leibniz form is for q-lattices only")
        if f.degree > 2:
            raise ValueError("the degree-2 Leibniz form needs deg f <= 2")
        c1, c2, c3 = lat.c
        a = f.coeff(2)
        fp_c3 = f.derivative()(c3)
        f_c3 = f(c3)
        an = con.alpha_n(n)
        an1 = con.alpha_n(n - 1)
        gn = con.gamma_n(n)
        gn1 = con.gamma_n(n - 1)
        zc = Polynomial(field, (-c3, field.one))
        coeff_a = (
            (a * alpha / (an * an1)) * (zc * zc)
            + (fp_c3 / an) * zc
            + f_c3
            + 4 * a * (field.one - alpha * alpha) * gn * c1 * c2 / an1
        )
        coeff_b = (gn / an) * (
            (a * (an + alpha * an1) / (an1 * an1)) * zc + fp_c3
        )
        coeff_c = a * gn * gn1 / (an1 * an1)
        lhs = dual_dx_pow(lat, left_mul(u, f), n)
        rhs = left_mul(dual_dx_pow(lat, u, n), coeff_a)
        if n >= 1:
            rhs = rhs + left_mul(
                dual_dx_pow(lat, dual_sx(lat, u), n - 1), coeff_b
            )
        if n >= 2:
            rhs = rhs + coeff_c * dual_dx_pow(lat, dual_sx_pow(lat, u, 2), n - 2)
        return lhs, rhs
    raise ValueError(f"unknown functional identity {identity!r}")


def moment_slot(lhs: MomentFunctional, rhs: MomentFunctional,
                horizon: int) -> Tuple[List, List]:
    """The moments 0..horizon of two functionals, as one report slot."""
    ms = range(horizon + 1)
    return [lhs.moment(m) for m in ms], [rhs.moment(m) for m in ms]


def verify_functional_identity(lat: Lattice, identity: str, f: Optional[Polynomial],
                               u: MomentFunctional, n: Optional[int] = None,
                               horizon: int = 10) -> Report:
    """One dual-side identity, as one slot: the moments up to `horizon`."""
    lhs, rhs = _functional_sides(lat, identity, f, u, n)
    return lat.field.report(identity, [moment_slot(lhs, rhs, horizon)])
