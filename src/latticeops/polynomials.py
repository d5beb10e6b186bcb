"""Dense univariate polynomials over a scalar field.

Coefficients are stored lowest degree first and trailing zeros are
trimmed, so the zero polynomial has an empty coefficient tuple and
degree -1.  The monomial basis in z is canonical everywhere; the lattice
operators are realized by evaluation and interpolation, so this module
also provides exact Newton interpolation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import Field, same_field


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        converted = [field(c) for c in coeffs]
        while converted and not _nonzero(converted[-1]):
            converted.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(converted))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls(field, (1,))

    @classmethod
    def monomial(cls, field: Field, n: int, coeff=1) -> "Polynomial":
        if n < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls(field, [0] * n + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, z):
        z = self.field(z)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def _wrap(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            same_field(self.field, other.field)
            return other
        return Polynomial(self.field, (other,))

    def __add__(self, other):
        o = self._wrap(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return Polynomial(
            self.field,
            [self.coeff(k) + o.coeff(k) for k in range(n)],
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._wrap(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return Polynomial(
            self.field,
            [self.coeff(k) - o.coeff(k) for k in range(n)],
        )

    def __rsub__(self, other):
        return self._wrap(other).__sub__(self)

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            same_field(self.field, other.field)
            return Polynomial(self.field, mul_coeffs(self.coeffs, other.coeffs))
        s = self.field(other)
        return Polynomial(self.field, [c * s for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        result = Polynomial.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Polynomial"):
        o = self._wrap(other)
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead = o.leading
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Polynomial.zero(self.field), self
        quot = [self.field.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            factor = rem[k + o.degree] / lead
            quot[k] = factor
            for j, c in enumerate(o.coeffs):
                rem[k + j] = rem[k + j] - factor * c
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def derivative(self) -> "Polynomial":
        return Polynomial(
            self.field,
            [k * c for k, c in enumerate(self.coeffs)][1:],
        )

    def max_abs_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(self.field.magnitude(c) for c in self.coeffs)

    def to_json(self):
        return [self.field.to_json(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, field: Field, obj: Sequence) -> "Polynomial":
        return cls(field, [field.from_json(c) for c in obj])

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if _nonzero(c):
                terms.append(f"({self.field.to_str(c)})*z^{k}")
        return "Polynomial(" + " + ".join(terms) + ")"


def _nonzero(c) -> bool:
    # exact zero test on both backends; bigfloat trims only true zeros
    return c != 0


def mul_coeffs(a: Sequence, b: Sequence) -> list:
    """Coefficients of a*b, lowest degree first, untrimmed.

    Each coefficient sums its products in increasing index into `a`.
    """
    out = [None] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t = x * y
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return out


def add_coeffs(a: Sequence, b: Sequence) -> list:
    """Coefficients of a + b, lowest degree first, untrimmed."""
    return [x + y for x, y in zip(a, b)] + list(a[len(b):] or b[len(a):])


def interpolate(field: Field, points: Sequence[tuple]) -> Polynomial:
    """Interpolating polynomial through (z, w) pairs via Newton form.

    z-values must be pairwise distinct; exact on the exact backend.
    """
    if not points:
        raise ValueError("interpolation needs at least one point")
    zs = [field(z) for z, _ in points]
    coef = [field(w) for _, w in points]
    n = len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dz = zs[i] - zs[i - j]
            if not _nonzero(dz):
                raise ValueError("duplicate interpolation nodes")
            coef[i] = (coef[i] - coef[i - 1]) / dz
    # expand Newton form to the monomial basis
    poly = Polynomial(field, (coef[-1],))
    for k in range(n - 2, -1, -1):
        poly = poly * Polynomial(field, (-zs[k], field.one)) + coef[k]
    return poly
