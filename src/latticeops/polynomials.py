"""Dense univariate polynomials over a scalar field.

Coefficients are stored lowest degree first and trailing zeros are
trimmed, so the zero polynomial has an empty coefficient tuple and
degree -1.  The monomial basis in z is canonical everywhere.  `p.row`
packs the coefficients (`scalars`) and `Polynomial.from_row` unpacks a
row: the one conversion between a polynomial and the packed rows the
operators and functionals run on.  A product is `scalars.mul_coeffs`,
the kernel the rows share; evaluation is `scalars.eval_row`, the one
Horner loop, on the coefficients over 1.  The interpolation route of the
operators (`operators.dx_interp`) evaluates `f.row` through that kernel
and interpolates, so this module also holds the one Newton kernel,
`newton`: it divides by differences of the nodes given to it and expands
on a plain coefficient list.  The operators hand it the differences
their per-lattice node table keeps; `interpolate` forms its own from its
points and calls the same kernel.  Both are exact on the exact backend.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import Field, eval_row, mul_coeffs, same_field


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
    def monomial(cls, field: Field, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls(field, [0] * n + [1])

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
    def row(self):
        return self.field.pack(self.coeffs)

    @classmethod
    def from_row(cls, field: Field, row) -> "Polynomial":
        return cls(field, field.unpack(row))

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, z):
        return eval_row((self.coeffs, 1), self.field(z), self.field.zero)

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
    def from_json(cls, field: Field, obj: list) -> "Polynomial":
        if not isinstance(obj, list):
            raise ValueError("polynomial coefficients must be a JSON array")
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


def interpolate(field: Field, points: Sequence[tuple]) -> Polynomial:
    """Interpolating polynomial through (z, w) pairs via Newton form.

    z-values must be pairwise distinct; exact on the exact backend.
    """
    if not points:
        raise ValueError("interpolation needs at least one point")
    zs = [field(z) for z, _ in points]
    diffs = [[z - w for w in reversed(zs[:i])] for i, z in enumerate(zs)]
    if not all(_nonzero(d) for row in diffs for d in row):
        raise ValueError("duplicate interpolation nodes")
    return newton(field, zs, diffs, [field(w) for _, w in points])


def newton(field: Field, zs: Sequence, diffs: Sequence, values: Sequence) -> Polynomial:
    """The polynomial through (zs[i], values[i]) for i < n = len(values).

    diffs[i] holds the nonzero differences (z_i - z_(i-1), ..., z_i - z_0),
    the divisors of the divided differences; zs and diffs may run past n.
    The Newton form is expanded to the monomial basis on a plain
    coefficient list, one `mul_coeffs` by z - z_k per node.
    """
    coef = list(values)
    n = len(coef)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / diffs[i][j - 1]
    one = field.one
    acc = []
    for k in range(n - 1, -1, -1):
        if acc:
            acc = mul_coeffs((-zs[k], one), acc)
            acc[0] += coef[k]
        elif _nonzero(coef[k]):
            acc = [coef[k]]
    return Polynomial(field, acc)
