"""Lattices x(s) and the constant sequences attached to them.

A lattice is the mapping

    x(s) = c1*q^(-s) + c2*q^s + c3   (q != 1)
    x(s) = c4*s^2    + c5*s   + c6   (q  = 1)

classified as q-quadratic (c1*c2 != 0), q-linear, quadratic (c4 != 0) or
linear.  Each lattice owns the constants alpha and beta, the sequences
alpha_n, beta_n, gamma_n, and the fundamental polynomials U1, U2 driving
the operator calculus.

What is memoized, per lattice: the power tables t^n and t^(-n) of
t = sqrt(q); every index of alpha_n and gamma_n, computed once from the
closed form on first use; U1 and U2, built on the first call.  beta_n is
recomputed from the power tables.  The test suite checks the sequences
against the defining recurrences.
Exact-backend lattices require sqrt(q) to be rational, because the
operators evaluate x at half-integer s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from .polynomials import Polynomial
from .scalars import Field, ScalarDomainError

DEFAULT_TABLE_HORIZON = 2048

Q_KINDS = ("q-quadratic", "q-linear")
ONE_KINDS = ("quadratic", "linear")
KINDS = Q_KINDS + ONE_KINDS


class LatticeError(ValueError):
    pass


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
    """alpha, beta and the sequences alpha_n, beta_n, gamma_n (n >= -1)."""

    def __init__(self, lattice: "Lattice"):
        self.lattice = lattice
        field = lattice.field
        self._is_q = lattice.is_q_lattice
        if self._is_q:
            t = lattice.sqrt_q
            self.alpha = (t + field.one / t) / 2
            self.beta = (field.one - self.alpha) * lattice.c[2]
            # power tables t^n and t^(-n); alpha_n, gamma_n, beta_n derive
            # from them with integer powers of t only
            self._tp: List = [field.one]
            self._tn: List = [field.one]
            self._t = t
            self._ti = field.one / t
            self._gamma_den = t - self._ti
            self._beta_den = t - 2 + self._ti
        else:
            self.alpha = field.one
            self.beta = lattice.c[0] / 4
        self._alpha_n: Dict[int, object] = {}
        self._gamma_n: Dict[int, object] = {}

    def _grow(self, n: int) -> None:
        if n > DEFAULT_TABLE_HORIZON:
            raise LatticeError(
                f"sequence index {n} exceeds the table horizon {DEFAULT_TABLE_HORIZON}"
            )
        while len(self._tp) <= n:
            self._tp.append(self._tp[-1] * self._t)
            self._tn.append(self._tn[-1] * self._ti)

    def _check_index(self, n: int) -> None:
        if n < -1:
            raise LatticeError(f"sequence index {n} < -1 is undefined")

    def alpha_n(self, n: int):
        value = self._alpha_n.get(n)
        if value is None:
            self._check_index(n)
            if self._is_q:
                k = abs(n)
                self._grow(k)
                value = (self._tp[k] + self._tn[k]) / 2
            else:
                value = self.lattice.field.one
            self._alpha_n[n] = value
        return value

    def gamma_n(self, n: int):
        value = self._gamma_n.get(n)
        if value is None:
            self._check_index(n)
            if self._is_q:
                k = abs(n)
                self._grow(k)
                value = (self._tp[k] - self._tn[k]) / self._gamma_den
                if n < 0:
                    value = -value
            else:
                value = self.lattice.field(n)
            self._gamma_n[n] = value
        return value

    def beta_n(self, n: int):
        if n < 0:
            raise LatticeError("beta_n is defined for n >= 0 only")
        field = self.lattice.field
        if not self._is_q:
            return self.beta * field(n * n)
        self._grow(n)
        # ((q^(n/4)-q^(-n/4))/(q^(1/4)-q^(-1/4)))^2 written with integer
        # powers of sqrt(q) so the exact backend never needs quarter powers
        return self.beta * (self._tp[n] - 2 + self._tn[n]) / self._beta_den


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
        self._u1: Optional[Polynomial] = None
        self._u2: Optional[Polynomial] = None

    @property
    def is_constant(self) -> bool:
        """x(s) = c6: the degenerate case where D_x f = f' and S_x f = f."""
        if self.is_q_lattice:
            return False
        zero = self.field.zero
        return self.c[0] == zero and self.c[1] == zero

    def x(self, s):
        """Evaluate x(s) for s on the half-integer grid."""
        f = _as_half_integer(s)
        field = self.field
        if self.is_q_lattice:
            # q^s = sqrt(q)^(2s); 2s is an integer, so the exact backend
            # stays inside the field
            k = int(2 * f)
            ts = self.sqrt_q**k
            return self.c[0] / ts + self.c[1] * ts + self.c[2]
        sv = field(f)
        return (self.c[0] * sv + self.c[1]) * sv + self.c[2]

    def q_pow(self, k: int):
        """q^k for any integer k.

        A negative power is computed as (1/q)^(-k), so bigfloat values do
        not depend on how mpmath rounds q**k for k < 0.
        """
        if k >= 0:
            return self.q**k
        return (self.field.one / self.q) ** (-k)

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

    def nodes(self, m: int) -> List[Tuple[int, object]]:
        """First m integer nodes with pairwise distinct x values."""
        if m < 1:
            raise LatticeError("node count must be >= 1")
        out: List[Tuple[int, object]] = []
        stream = self.node_stream()
        for s, z in stream:
            out.append((s, z))
            if len(out) == m:
                return out
            if s >= 4 * m:
                break
        raise LatticeError(
            f"could not find {m} distinct lattice points within {4 * m} candidates"
        )

    def u1(self) -> Polynomial:
        if self._u1 is None:
            field = self.field
            a = self.constants.alpha
            if self.is_q_lattice:
                f = a * a - field.one
                self._u1 = Polynomial(field, (-f * self.c[2], f))
            else:
                self._u1 = Polynomial(field, (self.c[0] / 2,))
        return self._u1

    def u2(self) -> Polynomial:
        if self._u2 is None:
            field = self.field
            a = self.constants.alpha
            if self.is_q_lattice:
                f = a * a - field.one
                c3 = self.c[2]
                self._u2 = Polynomial(
                    field,
                    (
                        f * (c3 * c3 - 4 * self.c[0] * self.c[1]),
                        -2 * f * c3,
                        f,
                    ),
                )
            else:
                c4, c5, c6 = self.c
                self._u2 = Polynomial(field, (c5 * c5 / 4 - c4 * c6, c4))
        return self._u2

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
