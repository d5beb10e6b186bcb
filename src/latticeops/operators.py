"""The x-derivative D_x and x-average S_x, their compositions and identities.

The computational path expands the argument over cached monomial images
D_x z^n and S_x z^n, which are built by the coupled product-rule
recurrences

    D_x z^n = S_x z^(n-1) + (S_x z) D_x z^(n-1)
    S_x z^n = U2 D_x z^(n-1) + (S_x z) S_x z^(n-1)

seeded with D_x z = 1 and the degree-one average S_x z.  These involve
no divided differences of evaluations, so they stay numerically stable
on lattices whose nodes spread exponentially.

Each lattice keeps both tables as packed rows (`scalars.pack`), and the
packed row is the only form of the images: on the exact backend a row of
real coefficients is a list of Python ints over one denominator, so a
recurrence step is an integer convolution and one gcd.  The step is one
function, `product_rule_step`: `monomial_rows` runs it from the seed
(D_x 1, S_x 1) = (0, 1), and the Pearson moment recursion
(`functionals.pearson_moments`) runs it from (psi, phi) on rows of its
own, so it reads no table.  `monomial_rows` hands the rows to the dual
functionals and to the iterated-pair recursion map
(`classical._recursion_map`, degrees 0 to 2); `dx` and `sx` sum f_k
times row k of their table as packed rows and unpack the sum once.
`dx_monomial` and `sx_monomial` unpack one row into a `Polynomial`,
uncached; no library code calls them: only the benchmark's span wrappers
(``perfbench/spans.py``, by name) and the operator tests read them.

A second, fully independent route (`dx_interp`, `sx_interp`) evaluates
the argument at x(s +- 1/2) over interpolation nodes and interpolates
the result back into the monomial basis; the test suite cross-checks
both routes on exact rationals, alongside the printed top coefficients
of D_x z^n and S_x z^n (`monomial_action`).  That route reads no image
table.  It packs its argument once per call and evaluates it at every
node through `scalars.eval_row`, the one Horner loop: on the exact
backend the real argument is an int row, evaluated in ints at the
rational nodes.  Its lattice data is one node table per lattice
(`_node_table`), grown on demand like the image tables: the usable nodes
z_i of `Lattice.node_stream`, x(s_i +- 1/2) and their difference, and
the differences z_i - z_j that `polynomials.newton`, the one Newton
kernel, divides by.  The one memo, `lattice.memoized`, keeps the node
table next to the image tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lattice import Lattice, LatticeError, memoized
from .polynomials import Polynomial, newton
from .scalars import Report, add_rows, eval_row, mul_rows

HALF = Fraction(1, 2)


class _NodeTable:
    """The usable interpolation nodes of one lattice, in `node_stream` order.

    Node i is the i-th z_i = x(s_i) of the stream with x(s_i + 1/2) !=
    x(s_i - 1/2).  zs[i] is z_i, ends[i] is (x(s_i + 1/2), x(s_i - 1/2))
    and their difference, diffs[i] is (z_i - z_(i-1), ..., z_i - z_0) and
    reach[i] is the stream index just before s_i (-1 for the first).  The
    scan keeps every distinct x(s) met and the last stream index s.
    """

    __slots__ = ("zs", "ends", "diffs", "reach", "seen", "s")

    def __init__(self):
        self.zs, self.ends, self.diffs, self.reach, self.seen = [], [], [], [], []
        self.s = -1


@memoized
def _node_table(lat: Lattice) -> _NodeTable:
    return _NodeTable()


def _nodes(lat: Lattice, m: int) -> _NodeTable:
    """The lattice's node table, grown to hold at least m nodes.

    Like a fresh scan of `node_stream`, the search for m nodes gives up
    after the first stream entry past s = 4m + 8.
    """
    table = _node_table(lat)
    budget = 4 * m + 8
    while len(table.zs) < m and table.s <= budget:
        s = table.s + 1
        z = lat.x(s)
        while not all(z != w for w in table.seen):
            s += 1
            z = lat.x(s)
        zp, zm = lat.x(s + HALF), lat.x(s - HALF)
        h = zp - zm
        if h != 0:
            table.diffs.append([z - w for w in reversed(table.zs)])
            table.zs.append(z)
            table.ends.append((zp, zm, h))
            table.reach.append(table.s)
        table.seen.append(z)
        table.s = s
    if len(table.zs) < m or table.reach[m - 1] > budget:
        raise LatticeError(f"could not find {m} usable operator nodes on {lat!r}")
    return table


def dx_interp(lat: Lattice, f: Polynomial) -> Polynomial:
    """D_x f computed by divided differences over lattice nodes.

    Independent of the recurrence-built monomial images; used as a
    cross-check oracle (prefer `dx` for real work, it is stabler).
    """
    if f.degree <= 0:
        return Polynomial.zero(lat.field)
    if lat.is_constant:
        return f.derivative()
    field, t = lat.field, _nodes(lat, f.degree)
    row, zero = field.pack(f.coeffs), field.zero
    values = [(eval_row(row, zp, zero) - eval_row(row, zm, zero)) / h
              for zp, zm, h in t.ends[:f.degree]]
    return newton(field, t.zs, t.diffs, values)


def sx_interp(lat: Lattice, f: Polynomial) -> Polynomial:
    if f.degree <= 0 or lat.is_constant:
        return f
    field, t = lat.field, _nodes(lat, f.degree + 1)
    row, zero = field.pack(f.coeffs), field.zero
    values = [(eval_row(row, zp, zero) + eval_row(row, zm, zero)) / 2
              for zp, zm, _ in t.ends[:f.degree + 1]]
    return newton(field, t.zs, t.diffs, values)


@memoized
def _monomial_tables(lat: Lattice) -> tuple:
    """The packed rows of D_x z^n and S_x z^n so far, and the recurrences'
    multipliers S_x z = alpha z + beta and U2."""
    field = lat.field
    con = lat.constants
    one, szrow = field.pack((field.one,)), field.pack((con.beta, con.alpha))
    return [field.pack(()), one], [one, szrow], szrow, field.pack(lat.u2().coeffs)


def product_rule_step(lat: Lattice, rows: tuple) -> tuple:
    """The product-rule step (d, s) -> (s + (S_x z) d, U2 d + (S_x z) s) on packed rows.

    From (D_x z^n, S_x z^n) it gives the rows of degree n + 1.  The step is
    linear over polynomials, so from (phi D_x z^n + psi S_x z^n,
    phi S_x z^n + psi U2 D_x z^n), seeded at n = 0 with (psi, phi), it
    gives the same pair at n + 1: the Pearson moment recursion's rows.
    """
    _, _, sz, u2 = _monomial_tables(lat)
    d, s = rows
    return add_rows(s, mul_rows(sz, d)), add_rows(mul_rows(u2, d), mul_rows(sz, s))


def monomial_rows(lat: Lattice, n: int) -> tuple:
    """The packed rows of D_x z^n and S_x z^n, extending both tables through degree n."""
    dxrows, sxrows, _, _ = _monomial_tables(lat)
    while len(dxrows) <= n:
        d, s = product_rule_step(lat, (dxrows[-1], sxrows[-1]))
        dxrows.append(d)
        sxrows.append(s)
    return dxrows[n], sxrows[n]


def dx_monomial(lat: Lattice, n: int) -> Polynomial:
    """D_x z^n, unpacked from its row of the lattice's table."""
    return Polynomial(lat.field, lat.field.unpack(monomial_rows(lat, n)[0]))


def sx_monomial(lat: Lattice, n: int) -> Polynomial:
    """S_x z^n, unpacked from its row of the lattice's table."""
    return Polynomial(lat.field, lat.field.unpack(monomial_rows(lat, n)[1]))


def _expand(lat: Lattice, f: Polynomial, kind: int) -> Polynomial:
    """The sum over k of f_k times row k of the D_x (kind 0) or S_x (kind 1) table.

    Each term is image row times coefficient and the sum runs in
    increasing k, the order of the plain-scalar sum, so bigfloat values
    round alike; the sum is unpacked once.  A zero coefficient adds a row
    of zeros, exactly, on both backends, so it is skipped.
    """
    field = lat.field
    acc = field.pack(())
    for k, c in enumerate(f.coeffs):
        if c != 0:
            acc = add_rows(acc, mul_rows(monomial_rows(lat, k)[kind], field.pack((c,))))
    return Polynomial(field, field.unpack(acc))


def dx(lat: Lattice, f: Polynomial) -> Polynomial:
    return _expand(lat, f, 0)


def sx(lat: Lattice, f: Polynomial) -> Polynomial:
    return _expand(lat, f, 1)


def dx_power(lat: Lattice, f: Polynomial, n: int) -> Polynomial:
    for _ in range(n):
        f = dx(lat, f)
    return f


@dataclass
class MonomialAction:
    """Leading coefficients of D_x z^n and S_x z^n on a q-lattice."""

    n: int
    gamma_n: object
    u_n: object
    v_n: object
    alpha_n: object
    u_hat_n: object
    v_hat_n: object


def monomial_action(lat: Lattice, n: int) -> MonomialAction:
    """The printed top coefficients of D_x z^n and S_x z^n, a q-lattice statement."""
    if not lat.is_q_lattice:
        raise LatticeError("monomial_action closed forms require a q-lattice")
    if n < 0:
        raise ValueError("degree must be >= 0")
    field = lat.field
    con = lat.constants
    c1, c2, c3 = lat.c
    c1c2 = c1 * c2
    g, a = con.gamma_n, con.alpha_n
    if n >= 1:
        u_n = (n * g(n - 1) - (n - 1) * g(n)) * c3
        u_hat = field(n) * (a(n - 1) - a(n)) * c3
    else:
        u_n = field.zero
        u_hat = field.zero
    if n >= 2:
        v_n = (n * g(n - 2) - (n - 2) * g(n)) * c1c2 + (
            field(n * (n - 1)) * g(n - 2)
            - field(2 * n * (n - 2)) * g(n - 1)
            + field((n - 1) * (n - 2)) * g(n)
        ) / 2 * (c3 * c3)
        v_hat = field(n) * (a(n - 2) - a(n)) * c1c2 + field(n * (n - 1)) * (
            con.alpha - field.one
        ) * a(n - 1) * (c3 * c3)
    else:
        v_n = field.zero
        v_hat = field.zero
    return MonomialAction(
        n=n,
        gamma_n=g(n),
        u_n=u_n,
        v_n=v_n,
        alpha_n=a(n),
        u_hat_n=u_hat,
        v_hat_n=v_hat,
    )


def tnk(lat: Lattice, f: Polynomial, n: int, k: int) -> Polynomial:
    """The Leibniz coefficient polynomials T_{n,k} f.

    T_{0,0} f = f and

        T_{n,k} f = S_x T_{n-1,k} f
                    - (gamma_{n-k}/alpha_{n-k}) U1 D_x T_{n-1,k} f
                    + (1/alpha_{n+1-k}) D_x T_{n-1,k-1} f,

    with T_{n,k} f = 0 whenever k < 0 or k > n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    zero = Polynomial.zero(lat.field)
    if k < 0 or k > n:
        return zero
    con = lat.constants
    u1 = lat.u1()
    # row m holds T_{m,j} f for the j that T_{n,k} f reads: k - (n - m) <= j <= k
    row = {0: f}
    for m in range(1, n + 1):
        prev, row = row, {}
        for j in range(max(0, k - n + m), min(m, k) + 1):
            same, down = prev.get(j, zero), prev.get(j - 1, zero)
            value = sx(lat, same)
            value = value - (con.gamma_n(m - j) / con.alpha_n(m - j)) * (u1 * dx(lat, same))
            row[j] = value + (lat.field.one / con.alpha_n(m + 1 - j)) * dx(lat, down)
    return row[k]


OPERATOR_IDENTITIES = ("product_dx", "product_sx", "swap_sx", "swap_dx", "dxn_sx")


def _identity_lhs_rhs(lat: Lattice, identity: str, f: Polynomial,
                      g: Optional[Polynomial], n: Optional[int]):
    field = lat.field
    alpha = lat.constants.alpha
    inv_alpha = field.one / alpha
    u1 = lat.u1()
    u2 = lat.u2()
    if identity == "product_dx":
        return dx(lat, f * g), dx(lat, f) * sx(lat, g) + sx(lat, f) * dx(lat, g)
    if identity == "product_sx":
        return sx(lat, f * g), dx(lat, f) * dx(lat, g) * u2 + sx(lat, f) * sx(lat, g)
    if identity == "swap_sx":
        lhs = f * sx(lat, g)
        inner = (sx(lat, f) - inv_alpha * (u1 * dx(lat, f))) * g
        rhs = sx(lat, inner) - inv_alpha * (u2 * dx(lat, g * dx(lat, f)))
        return lhs, rhs
    if identity == "swap_dx":
        lhs = f * dx(lat, g)
        inner = (sx(lat, f) - inv_alpha * (u1 * dx(lat, f))) * g
        rhs = dx(lat, inner) - inv_alpha * sx(lat, g * dx(lat, f))
        return lhs, rhs
    if identity == "dxn_sx":
        if n is None:
            raise ValueError("dxn_sx needs the composition order n")
        con = lat.constants
        lhs = dx_power(lat, sx(lat, f), n)
        rhs = con.alpha_n(n) * sx(lat, dx_power(lat, f, n)) + con.gamma_n(n) * (
            u1 * dx_power(lat, f, n + 1)
        )
        return lhs, rhs
    raise ValueError(f"unknown operator identity {identity!r}")


def verify_operator_identity(lat: Lattice, identity: str, f: Polynomial,
                             g: Optional[Polynomial] = None,
                             n: Optional[int] = None) -> Report:
    """One printed operator identity, as one slot: the coefficients of LHS and RHS."""
    if identity in ("product_dx", "product_sx", "swap_sx", "swap_dx") and g is None:
        raise ValueError(f"{identity} needs a second polynomial")
    lhs, rhs = _identity_lhs_rhs(lat, identity, f, g, n)
    return lat.field.report(identity, [(lhs.coeffs, rhs.coeffs)])
