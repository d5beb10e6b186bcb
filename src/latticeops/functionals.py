"""Linear functionals on polynomials, represented by their moment sequences.

A functional u is the sequence mu_n = <u, z^n>.  The dual operators act
through their defining adjunctions

    <D u, f> = -<u, D_x f>        <S u, f> = <u, S_x f>

so every transformed functional is again a moment sequence, computed
lazily from its parent.  This gives an oracle for everything downstream:
Pearson moments, the TTRR by the Chebyshev algorithm on the moments alone,
Hankel determinants (a second, determinant route to the same TTRR), and
moment-wise checks of the dual-side identities.

A functional keeps mu_0..mu_m as field scalars for `moments` and as one
packed row (format in `scalars`) for `pair` and the oracle, both built by
`MomentFunctional.row` from the field scalars its extender returns.
Every pairing with a polynomial is one method, `MomentFunctional.pair`:
one `mat_row` of that row against the polynomial's packed row `f.row`.
`apply`, `left_mul` and the two duals, which read the monomial images
straight from `operators.monomial_rows`, go through it.  The Pearson
moment recursion reads no table: it steps its own pair of packed rows,
G_n = phi D_x z^n + psi S_x z^n and H_n = phi S_x z^n + psi U2 D_x z^n,
by the tables' product-rule step (`operators.product_rule_step`) seeded
with (psi.row, phi.row), and reads mu_0..mu_n through the functional's
row.  On the exact backend a step is that product-rule step on two rows, one
integer dot product and one `Fraction` for the new moment (plus one for
the cross-check of d_n).

The moment oracle `ttrr_oracle` runs on the integer-scaled functional
scale * u, scale the denominator of the functional's row.  B_n and
C_(n+1) are ratios of entries of one sigma table, and multiplying u by a
constant multiplies every entry by it, so they are unchanged; the
entries then carry only the denominators of the B_k and C_k, which are
far smaller than the moments' own.  Each entry is a packed scalar
(`scalars`): on exact an int pair (num, den), made by one `sub_products`
call that forms x - B*y - C*z over the least common denominator and
leaves it unreduced, where `Fraction` arithmetic would reduce four times.
The unreduced entries hold about 1.3 times the bits of reduced ones, and
cost less than a gcd per entry.  When the row's denominator grows by g,
the numerators of the two kept anti-diagonals are multiplied by g, as
`join_rows` rescales a packed row, so every entry is scale * sigma.
Gaussian-rational and bigfloat values combine as plain scalars, and
bigfloat rows are over 1, so on bigfloat the oracle makes the operations
of the plain recurrence.  The oracle reads the row the functional builds
from its extender's values; the recursion reads that row only through the
functional and never the oracle's state, so the two routes stay apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .lattice import Lattice, memoized
from .operators import dx, monomial_rows, product_rule_step, sx, tnk
from .polynomials import Polynomial
from .scalars import (
    Field,
    Report,
    div_scalars,
    join_rows,
    mat_row,
    sub_products,
)


class InternalCheckError(RuntimeError):
    """Two supposedly equivalent computation routes disagreed."""


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
    """Moment sequence with optional lazy extension: its values and one packed row.

    `row(n)` extends both through n, reducing each new moment once.
    `moment` and `moments` read the values; `pair` and the oracle read the
    row, reduced over a positive denominator (on exact the lcm of the
    moments' denominators).  An extender returns mu_k as a field scalar.
    """

    def __init__(self, field: Field, moments: Sequence = (),
                 extender: Optional[Callable[[int], object]] = None):
        self.field = field
        self._values = [field(v) for v in moments]
        self._row = field.pack(self._values)
        self._extender = extender

    @property
    def horizon(self) -> Optional[int]:
        """Largest guaranteed moment index, or None if extendable."""
        if self._extender is not None:
            return None
        return len(self._values) - 1

    def row(self, n: int):
        """The packed row mu_0..mu_m, m >= n, extended through n if need be."""
        while (k := len(self._values)) <= n:
            if self._extender is None:
                raise HorizonError(f"moment {n} requested but only {k} are known")
            v = self.field(self._extender(k))
            self._values.append(v)
            self._row = join_rows(self._row, self.field.pack((v,)))
        return self._row

    def moment(self, n: int):
        if n < 0:
            raise ValueError("moment index must be >= 0")
        self.row(n)
        return self._values[n]

    def moments(self, n: int) -> List:
        if n < 0:
            raise ValueError(f"the moment horizon must be >= 0, got {n}")
        self.row(n)
        return self._values[:n + 1]

    def pair(self, row, shift: int = 0):
        """<u, z^shift g> for the polynomial g with packed row `row`.

        The moment row is a one-row matrix against the row (``scalars.mat_row``),
        summed in increasing degree and unpacked once to a field scalar.
        """
        if not row[0]:
            return self.field.zero
        k = len(row[0])
        values, den = self.row(shift + k - 1)
        return self.field.unpack(mat_row((values[shift:shift + k], den), row))[0]

    def apply(self, f: Polynomial):
        """<u, f>."""
        return self.pair(f.row)

    def __add__(self, other: "MomentFunctional") -> "MomentFunctional":
        return MomentFunctional(self.field, extender=lambda k: self.moment(k) + other.moment(k))

    def __sub__(self, other: "MomentFunctional") -> "MomentFunctional":
        return MomentFunctional(self.field, extender=lambda k: self.moment(k) - other.moment(k))

    def __rmul__(self, scalar) -> "MomentFunctional":
        s = self.field(scalar)
        return MomentFunctional(self.field, extender=lambda k: s * self.moment(k))

    def __repr__(self):
        shown = [self.field.to_str(m) for m in self._values[:4]]
        if self._extender is not None or len(self._values) > 4:
            shown.append("...")
        return f"MomentFunctional([{', '.join(shown)}])"


def left_mul(u: MomentFunctional, f: Polynomial) -> MomentFunctional:
    """The functional f*u with <f*u, g> = <u, f*g>."""
    row = f.row
    return MomentFunctional(u.field, extender=lambda k: u.pair(row, k))


def dual_dx(lat: Lattice, u: MomentFunctional) -> MomentFunctional:
    """D u, with moments -<u, D_x z^k> read off row k of the D_x table."""
    return MomentFunctional(u.field, extender=lambda k: -u.pair(monomial_rows(lat, k)[0]))


def dual_sx(lat: Lattice, u: MomentFunctional) -> MomentFunctional:
    """S u, with moments <u, S_x z^k> read off row k of the S_x table."""
    return MomentFunctional(u.field, extender=lambda k: u.pair(monomial_rows(lat, k)[1]))


def dual_dx_pow(lat: Lattice, u: MomentFunctional, n: int) -> MomentFunctional:
    for _ in range(n):
        u = dual_dx(lat, u)
    return u


def dual_sx_pow(lat: Lattice, u: MomentFunctional, n: int) -> MomentFunctional:
    for _ in range(n):
        u = dual_sx(lat, u)
    return u


def pearson_moments(pair) -> MomentFunctional:
    """Moments of the functional solving D(phi*u) = S(psi*u), for a Pearson pair
    (phi, psi) on the lattice ``pair.lattice``, normalised by mu_0 = 1.

    Pairing the equation with z^n gives <u, phi*D_x z^n + psi*S_x z^n> = 0,
    a linear recursion for mu_(n+1) whose leading coefficient is the
    admissibility value d_n = a*gamma_n + d*alpha_n; it is cross-checked
    on every step against that closed form, read from the pair's memo
    (``PearsonPair.d_value``, which ``regularity`` fills too).

    The recursion runs on packed rows (`scalars.pack`) and reads no table:
    G_n = phi*D_x z^n + psi*S_x z^n travels with its partner
    H_n = phi*S_x z^n + psi*U2*D_x z^n; the pair starts at (G_0, H_0) =
    (psi, phi) and advances by `operators.product_rule_step`, the step that
    builds the monomial tables from (0, 1).  mu_(n+1) is G_n's values times
    the functional's row mu_0..mu_n (`scalars.mat_row`), returned as a
    field scalar, reduced once; G_n's denominator cancels from it.
    """
    lat, phi, psi = pair.lattice, pair.phi, pair.psi
    field = lat.field
    rows = psi.row, phi.row

    def ext(k: int):
        nonlocal rows
        n = k - 1
        # (G_n, H_n); G_n, of degree <= n+1, as gs / gden
        gh = rows if n == 0 else product_rule_step(lat, rows)
        gs, gden = gh[0]
        lead = gs[n + 1] if len(gs) > n + 1 else field.zero
        dn = field.unpack(([lead], gden))[0]
        if not field.approx_eq(dn, pair.d_value(n)):
            raise InternalCheckError(
                f"leading Pearson coefficient disagrees with d_{n} closed form"
            )
        if field.is_zero(dn):
            raise AdmissibilityError(n)
        (acc,), mden = mat_row((gs[:n + 1], 1), u.row(n))
        # kept only now, so a retry after AdmissibilityError rebuilds G_n
        rows = gh
        return field.unpack(([-acc], mden * lead))[0]

    u = MomentFunctional(field, [1], ext)
    return u


@dataclass
class TTRRCoeffs:
    """Coefficients of P_(n+1) = (z - B_n) P_n - C_n P_(n-1), C_0 = 0."""

    field: Field
    b_fn: Callable[[int], object]
    c_fn: Callable[[int], object]

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

        return cls(field, b_fn, c_fn)

    # b_fn and c_fn are read at call time: a caller may rebind them
    @memoized
    def b(self, n: int):
        if n < 0:
            raise ValueError("B_n is defined for n >= 0")
        return self.field(self.b_fn(n))

    @memoized
    def c(self, n: int):
        if n < 0:
            raise ValueError("C_n is defined for n >= 0")
        if n == 0:
            return self.field.zero
        return self.field(self.c_fn(n))

    def rows(self, n_max: int):
        return [(n, self.b(n), self.c(n)) for n in range(n_max + 1)]

    def to_json(self, n_max: int):
        to_json = self.field.to_json
        return [{"n": n, "b": to_json(b), "c": to_json(c)} for n, b, c in self.rows(n_max)]


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
    to mu_(2 n_max + 2).  Raises NotRegularError at level n when h_0 = mu_0
    (n = 0) or C_n = h_n/h_(n-1) (n >= 1) vanishes, tested on its own value.

    The recurrence runs on scale * u, scale the denominator of the row
    `u.row(m)` (the lcm of the moments' denominators), so the scaled
    moments are the row's integers and a sigma entry carries only the
    denominators that B_k and C_k bring in.  Multiplying u by a constant
    multiplies every sigma_(k,l) by it and leaves the monic P_k alone, so
    B_n and C_(n+1), ratios of sigma entries, are unchanged.  When the
    row's denominator grows by g, the numerators of the two anti-diagonals
    kept are multiplied by g, so they hold the entries of the current
    scale * u.  Bigfloat rows are over 1 and run unscaled.

    Every table entry, B_k and C_k is a packed scalar, on exact an int pair
    (num, den).  An entry is one `sub_products` call and is not reduced;
    C_k and the ratios come from `div_scalars`, and B_k, the difference of
    two ratios, is an unreduced `sub_products` call too.  Only results
    unpack to field scalars, each once, which is where it is reduced: a B_n
    for the return, a C_k for its zero test and the return.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    field = u.field

    def value(x):
        return field.unpack(([x[0]], x[1]))[0]

    one = (1, 1)  # the packed scalar 1
    bs: List = []  # packed B_k
    cs: List = []  # packed C_k; cs[k-1] = C_k
    c_values: List = []  # the C_k unpacked, for the zero tests and the return
    ratio_prev = (0, 1)  # sigma_(n-1,n)/h_(n-1); zero for n = 0
    older: List = []  # older[k] = scale * sigma_(k, m-2-k)
    old: List = []  # old[k] = scale * sigma_(k, m-1-k)
    scale = 1  # the denominator of the row read last
    for m in range(2 * n_max + 3):
        mus, den = u.row(m)
        if den != scale:
            g, scale = den // scale, den
            old = [(v * g, d) for v, d in old]
            older = [(v * g, d) for v, d in older]
        # diag[k] = scale * sigma_(k, m-k), down to k = m // 2
        diag = [(mus[m], 1)]
        for k in range(1, m // 2 + 1):
            if k == 1:
                s = sub_products(diag[0], bs[0], old[0])
            else:
                s = sub_products(diag[k - 1], bs[k - 1], old[k - 1], cs[k - 2], older[k - 2])
            diag.append(s)
        n, odd = divmod(m, 2)
        if odd:
            ratio = div_scalars(diag[n], old[n])
            bs.append(sub_products(ratio, ratio_prev, one))
            ratio_prev = ratio
        else:
            if n >= 1:
                cs.append(div_scalars(diag[n], older[n - 1]))
                c_values.append(value(cs[-1]))
            if n <= n_max and field.is_zero(c_values[-1] if n else value(diag[0])):
                what = f"C_{n} = h_{n}/h_{n - 1}" if n else "h_0 = mu_0"
                raise NotRegularError(n, f"{what} = 0: u is not regular at level {n}")
        older, old = old, diag
    return TTRRCoeffs.from_lists(field, [value(b) for b in bs], c_values)


def hankel_det(u: MomentFunctional, n: int):
    """det [mu_(i+j)] for i, j < n, by Gaussian elimination; n = 0 gives 1."""
    field = u.field
    if n == 0:
        return field.one
    mus = u.moments(2 * n - 2)
    rows = [mus[i:i + n] for i in range(n)]
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
        # per kind: the printed degree-2 form is a q-lattice statement
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
    return lhs.moments(horizon), rhs.moments(horizon)


def verify_functional_identity(lat: Lattice, identity: str, f: Optional[Polynomial],
                               u: MomentFunctional, n: Optional[int] = None,
                               horizon: int = 10) -> Report:
    """One dual-side identity, as one slot: the moments up to `horizon`."""
    lhs, rhs = _functional_sides(lat, identity, f, u, n)
    return lat.field.report(identity, [moment_slot(lhs, rhs, horizon)])
