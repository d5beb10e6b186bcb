"""Lattices x(s) and the constant sequences attached to them.

A lattice is the mapping

    x(s) = c1*q^(-s) + c2*q^s + c3   (q != 1)
    x(s) = c4*s^2    + c5*s   + c6   (q  = 1)

classified as q-quadratic (c1*c2 != 0), q-linear, quadratic (c4 != 0) or
linear.  Each lattice owns the constants alpha, beta and delta, the
sequences alpha_n, beta_n, gamma_n, and the fundamental polynomials
U1 = (alpha^2 - 1) z + u10 and U2 = (alpha^2 - 1) z^2 + 2 u10 z + delta,
u10 = U1(0) = beta (alpha + 1), delta = U2(0), that drive the operator
calculus.  Only x and the definitions of the constants tell the kinds apart.

Every closed form on a q-lattice is a Laurent polynomial in t = sqrt(q),
so every power of q or t comes from one table per lattice, the packed rows
(t^k, t^-k) of ``LatticeConstants._powers``, grown from (t, 1/t) by one
entrywise product per index.  ``Lattice.t_pow`` reads one power from it as
a field scalar; alpha_n, gamma_n, s_n and the level rows read its rows as
ints on exact, so a level costs no ``Fraction`` power and no ``pack``.  On
the exact backend t = p/r in lowest terms, so the row of k is
(p^2k, r^2k)/(p r)^k.

The closed route reads the level k through five level functions, the
q-analogues of 1, k, k^2, k^3, k^4: the level row
(1, gamma_k, s_k, gamma_k s_k, s_k^2), with s_k = (t^k - 2 + t^-k)/bd on
q-lattices and k^2 when q = 1.  Two constants close their products with
no per-kind branch: bd = t - 2 + 1/t (0 when q = 1) and
rho = 1/(t + 2 + 1/t) (1/4 when q = 1), so that

    alpha_k = 1 + bd s_k / 2,   gamma_k^2 = rho (4 s_k + bd s_k^2),
    beta_k = beta s_k,          s_2k = 4 s_k + bd s_k^2,
    gamma_2k = 2 gamma_k + bd gamma_k s_k.

What is memoized, per lattice, through the ``memoized`` decorator: every
power t_pow(k) and every index of alpha_n, gamma_n and s_n, computed once
on first use, the packed level row of every level, and U1 and U2; beta_n
is beta s_n.  The test suite checks the sequences against the defining
recurrences and the identities above.  Exact-backend lattices require
sqrt(q) to be rational, because the operators evaluate x at half-integer s.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterator, Tuple

from .polynomials import Polynomial
from .scalars import Field, ScalarDomainError

DEFAULT_TABLE_HORIZON = 2048


class LatticeError(ValueError):
    pass


def memoized(fn):
    """Compute ``fn(obj, *args)`` once per object and argument tuple.

    The values live in a dict in ``obj.__dict__``, so the memo holds no
    reference to ``obj`` and goes away with it.  A call that raises stores
    nothing.  ``fn`` may be a method or a function whose first argument is
    the object that owns the memo.
    """
    slot = f"_memo_{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(obj, *args):
        try:
            return obj.__dict__[slot][args]
        except KeyError:
            pass
        value = obj.__dict__.setdefault(slot, {})[args] = fn(obj, *args)
        return value

    return wrapper


def _as_half_integer(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, Fraction):
        f = s
    elif isinstance(s, float):
        f = Fraction(s)
    else:
        raise TypeError(f"lattice argument s must be a (half-)integer, got {s!r}")
    if (2 * f).denominator != 1:
        raise LatticeError(f"s must lie on the half-integer grid, got {f}")
    return f


class LatticeConstants:
    """alpha, beta, delta = U2(0), the level constants bd and rho, and alpha_n,
    beta_n, gamma_n, s_n (n >= -1), defined per kind."""

    def __init__(self, lattice: "Lattice"):
        field = self.field = lattice.field
        self._is_q = lattice.is_q_lattice
        # the packed rows (t^k, t^-k), k >= 0, that _powers grows (t = 1
        # when q = 1); the constants keep no reference to the lattice, so a
        # dropped lattice is freed with no cycle to collect
        one, t = field.one, lattice.sqrt_q
        self._power_rows = [field.pack((one, one)), field.pack((one * t, one * (one / t)))]
        if self._is_q:
            self.alpha = (t + one / t) / 2
            self.beta = (one - self.alpha) * lattice.c[2]
            c1, c2, c3 = lattice.c
            self.delta = (self.alpha * self.alpha - one) * (c3 * c3 - 4 * c1 * c2)
            t1, t_1 = field.unpack(self._power_rows[1])
            self.bd = t1 - 2 + t_1
            self.rho = one / (t1 + 2 + t_1)
        else:
            self.alpha = field.one
            self.beta = lattice.c[0] / 4
            c4, c5, c6 = lattice.c
            self.delta = c5 * c5 / 4 - c4 * c6
            self.bd = field.zero
            self.rho = field(Fraction(1, 4))

    def _check_index(self, n: int) -> None:
        if n < -1:
            raise LatticeError(f"sequence index {n} < -1 is undefined")
        if self._is_q and n > DEFAULT_TABLE_HORIZON:
            raise LatticeError(
                f"sequence index {n} exceeds the table horizon {DEFAULT_TABLE_HORIZON}"
            )

    @memoized
    def alpha_n(self, n: int):
        self._check_index(n)
        if not self._is_q:
            return self.field.one
        # (t^n + t^-n) / 2 as one quotient of ints on exact
        (x, y), d = self._powers(n)
        return self.field.unpack(([x + y], 2 * d))[0]

    @memoized
    def gamma_n(self, n: int):
        self._check_index(n)
        if not self._is_q:
            return self.field(n)
        # (t^n - t^-n) / (t - 1/t) from the packed powers level_row reads:
        # one quotient of ints on exact; on bigfloat d = e = 1, so the
        # value is rounded as the quotient written out
        (x, y), d = self._powers(n)
        (u, v), e = self._powers(1)
        return self.field.unpack(([(x - y) * e], d * (u - v)))[0]

    @memoized
    def s_n(self, n: int):
        """The level function s_n: n^2 when q = 1, else the q-number
        ((q^(n/4)-q^(-n/4))/(q^(1/4)-q^(-1/4)))^2, written with integer powers
        of sqrt(q) so the exact backend never needs quarter powers."""
        self._check_index(n)
        if not self._is_q:
            return self.field(n * n)
        # (t^n - 2 + t^-n) / (t - 2 + 1/t) as one quotient of ints on exact
        (x, y), d = self._powers(n)
        (u, v), e = self._powers(1)
        return self.field.unpack(([(x - 2 * d + y) * e], d * (u - 2 * e + v)))[0]

    def beta_n(self, n: int):
        if n < 0:
            raise LatticeError("beta_n is defined for n >= 0 only")
        return self.beta * self.s_n(n)

    def _powers(self, k: int) -> tuple:
        """(t^k, t^-k) as one packed row: the lattice's one table of powers
        of t, read by t_pow, alpha_n, gamma_n, s_n and level_row.

        The rows are kept in a table grown from (t, 1/t) by one entrywise
        product per index, in a loop: on exact, for t = p/r, the row of k is
        (p^2k, r^2k) / (p r)^k, reduced as ``pack`` gives it; on bigfloat its
        values are the products one*t*...*t and one*(1/t)*...*(1/t), so they
        do not depend on how mpmath rounds a power.  (t^-k, t^k) for k < 0.
        """
        if k < 0:
            (x, y), d = self._powers(-k)
            return [y, x], d
        table = self._power_rows
        (u, v), e = table[1]
        while len(table) <= k:
            (x, y), d = table[-1]
            table.append(([x * u, y * v], d * e))
        return table[k]

    @memoized
    def level_row(self, k: int) -> tuple:
        """The level row (1, gamma_k, s_k, gamma_k s_k, s_k^2) as a packed row
        (``scalars.pack``) of products of integers on the exact backend.

        When q = 1 it is (1, k, k^2, k^3, k^4) over 1, as field scalars.  On
        a q-lattice, with (t^k, t^-k) = (x, y)/d and (t, 1/t) = (u, v)/e as
        packed rows, so (p^2k, r^2k)/(p r)^k and (p^2, r^2)/(p r) on exact
        for t = p/r, gamma_k = g/w and s_k = s/w for
        g = (x - y) e (u - 2 e + v), s = (x - 2 d + y) e (u - v) and
        w = d (u - v) (u - 2 e + v); the row is (w^2, g w, s w, g s, s^2) / w^2.
        Both columns of the power table are read, as alpha_n, gamma_n and
        s_n read them, so on bigfloat t^-k does not inherit the rounding of
        t^k.
        """
        self._check_index(k)
        if not self._is_q:
            return self.field.pack([k ** j for j in range(5)])
        (x, y), d = self._powers(k)
        (u, v), e = self._powers(1)
        g = (x - y) * e * (u - 2 * e + v)
        s = (x - 2 * d + y) * e * (u - v)
        w = d * (u - v) * (u - 2 * e + v)
        return [w * w, g * w, s * w, g * s, s * s], w * w


class Lattice:
    """A concrete lattice over a scalar field."""

    def __init__(self, field: Field, q, c):
        self.field = field
        q = field(q)
        if len(c) != 3:
            raise LatticeError("a lattice takes exactly three constants")
        self.c = tuple(field(v) for v in c)
        if field.im(q) != 0:
            raise LatticeError("q must be real")
        if not field.re(q) > 0:
            raise LatticeError("q must be positive")
        self.q = q
        self.is_q_lattice = q != field.one
        if self.is_q_lattice:
            if not (self.c[0] != field.zero or self.c[1] != field.zero):
                raise LatticeError("a q-lattice needs (c1, c2) != (0, 0)")
            try:
                self.sqrt_q = field.sqrt(q)
            except ScalarDomainError as exc:
                raise LatticeError(
                    "exact backend needs sqrt(q) rational; "
                    "pass q as a squared rational or use bigfloat"
                ) from exc
            self.kind = (
                "q-quadratic" if self.c[0] * self.c[1] != field.zero else "q-linear"
            )
        else:
            if all(v == field.zero for v in self.c):
                raise LatticeError("a q=1 lattice needs (c4, c5, c6) != (0, 0, 0)")
            self.sqrt_q = field.one
            self.kind = "quadratic" if self.c[0] != field.zero else "linear"
        self.constants = LatticeConstants(self)

    @property
    def is_constant(self) -> bool:
        """x(s) = c6: the degenerate case where D_x f = f' and S_x f = f."""
        if self.is_q_lattice:
            return False
        zero = self.field.zero
        return self.c[0] == zero and self.c[1] == zero

    def x(self, s):
        """x(s) for s on the half-integer grid; per kind, as the definition itself."""
        f = _as_half_integer(s)
        if self.is_q_lattice:
            # q^s = t^(2s); 2s is an integer, so the exact backend stays
            # inside the field
            k = int(2 * f)
            return self.c[0] * self.t_pow(-k) + self.c[1] * self.t_pow(k) + self.c[2]
        sv = self.field(f)
        return (self.c[0] * sv + self.c[1]) * sv + self.c[2]

    @memoized
    def t_pow(self, k: int):
        """t^k for t = sqrt(q) and any integer k: the first entry of the
        packed row (t^k, t^-k) of ``LatticeConstants._powers``."""
        (x, _), d = self.constants._powers(k)
        return self.field.unpack(([x], d))[0]

    def q_pow(self, k: int):
        """q^k = t^(2k) for any integer k."""
        return self.t_pow(2 * k)

    def node_stream(self) -> Iterator[Tuple[int, object]]:
        """(s, x(s)) over integer s >= 0, skipping repeated x values."""
        seen = []
        s = 0
        while True:
            z = self.x(s)
            if all(z != w for w in seen):
                seen.append(z)
                yield s, z
            s += 1

    @memoized
    def u1(self) -> Polynomial:
        con = self.constants
        return Polynomial(self.field, (con.beta * (con.alpha + 1), con.alpha * con.alpha - 1))

    @memoized
    def u2(self) -> Polynomial:
        u1 = self.u1()
        return Polynomial(self.field, (self.constants.delta, 2 * u1.coeff(0), u1.coeff(1)))

    def to_json(self):
        return {
            "kind": self.kind,
            "q": self.field.to_json(self.q),
            "c": [self.field.to_json(v) for v in self.c],
        }

    @classmethod
    def from_json(cls, field: Field, obj):
        if not isinstance(obj, dict) or "q" not in obj or "c" not in obj:
            raise LatticeError("lattice spec must be an object with 'q' and 'c'")
        if not isinstance(obj["c"], list):
            raise LatticeError("lattice constants 'c' must be a JSON array")
        q = field.from_json(obj["q"])
        c = [field.from_json(v) for v in obj["c"]]
        lat = cls(field, q, c)
        declared = obj.get("kind")
        if declared is not None and declared != lat.kind:
            raise LatticeError(
                f"lattice spec declares kind {declared!r} but constants give {lat.kind!r}"
            )
        return lat

    def __repr__(self):
        cs = ", ".join(self.field.to_str(v) for v in self.c)
        return f"Lattice({self.kind}, q={self.field.to_str(self.q)}, c=({cs}))"
