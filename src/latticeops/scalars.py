"""Coefficient fields for the verification kernel.

Two interchangeable backends:

* ``ExactField`` works over Gaussian rationals.  A real value is a plain
  ``fractions.Fraction``; a value with a nonzero imaginary part is a
  ``QRational`` (``Fraction`` real and imaginary parts).  The two mix
  freely in arithmetic and compare and hash alike when they are equal.
  No rounding ever happens, so every residual is exactly zero or exactly
  nonzero.
* ``BigFloatField`` works over arbitrary-precision complex floats backed
  by a private ``mpmath`` context, so several fields with different
  precisions can coexist in one process.  ``mpmath`` is imported when the
  first such field is made, so a process that stays exact never loads it.

Every algorithm in the package receives scalars produced by one of these
fields and combines them only through arithmetic operators, so the two
backends are drop-in replacements for each other.

Every "zero or not" verdict is decided here, by one method per backend,
``_vanishes(values, scale)``:

* exact: every value equals zero; ``scale`` is not read;
* bigfloat: the largest magnitude among the values is at most
  ``eps * max(1, |s| for s in scale)``, where ``scale`` holds the scalars
  the values are measured against; all of it is computed in the field's
  own mpmath context, so magnitudes beyond the range of a Python float
  are decided like any others.  A field refuses an ``eps`` below its unit
  roundoff 2^-precision, under which every rounded residual would read
  as nonzero.

The verdict methods are shared code on top of it: ``is_zero`` decides one
scalar, ``approx_eq`` the difference of two scalars measured against both,
``vanish`` a list of values, and ``report`` every slot of a check, a pair
of scalar lists such as polynomial coefficients or moments up to a
horizon, gathered into the one ``Report`` shape every pass/fail check
uses.  Float magnitudes appear only in what a report shows: its
residuals, and the value ``failing`` names as the one a failed check
hinges on.

Coefficient rows that are built by long recurrences (the monomial images,
the sums ``dx`` and ``sx`` make of them, and the Pearson moments) travel
*packed*: a pair ``(values, den)`` that stands for
``[v / den for v in values]``.  This module defines the format and the
operations that combine rows.  ``pack`` makes a row and ``unpack`` turns
it back into scalars.  The exact backend packs a list of real ``Fraction``s
as Python-int numerators over their least common denominator, so a
recurrence step is integer arithmetic with one gcd per row instead of one
per coefficient; a list of ints is its own numerators over 1, and a list
holding a ``QRational``, and every bigfloat list, packs as its values over
1.  ``mul_rows``, ``add_rows`` and ``join_rows`` combine packed rows of
either kind.  ``mul_coeffs``, the convolution under ``mul_rows``, is also
the product of two ``Polynomial``s; a left factor of two or three terms
(the product-rule step's S_x z and U2) is one list comprehension that sums
each coefficient in the order of the general loop, increasing index into
the left factor.  ``add_rows`` reduces an int row by one gcd, and a row
on which that gcd raises ``TypeError`` is not an int row.  ``mat_row`` is
the one product of a matrix stored row by row with a row.  So the code
that runs the recurrences is the same on both backends, and on bigfloat
it makes the same operations in the same order as on plain scalars.

``eval_row`` is the one Horner loop: the value of a packed row at a
point.  An int row at a rational point p/q runs the homogeneous form in
ints (Knuth, TAOCP vol. 2, 4.6.4) and makes one ``Fraction`` at the end;
any other row or point runs the plain-scalar loop.  ``Polynomial``
evaluates its coefficients over 1 through it, which takes the scalar
loop; the interpolation route of the operators packs its argument once
and evaluates every node through the integer form.

A packed *scalar* is one such pair ``(v, den)``, and two operations
combine them: ``div_scalars`` gives a / b and ``sub_products`` gives
x - b*y - c*z.  For int pairs in lowest terms the quotient is the pair
``Fraction`` would hold, by the gcd steps of ``Fraction._div``.  The
difference is left unreduced: both products stay unreduced and the
result is written over the least common denominator of x, b*y and c*z by
two cofactor gcds, with no gcd of its own.  A pair whose value is
not an int (a ``QRational``, a bigfloat value) combines as a scalar over
1.  The moment oracle runs its table of mixed moments on them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

DEFAULT_PRECISION = 128
MIN_PRECISION = 64
DEFAULT_EPS = Fraction(1, 10**25)
_ZERO, _ONE = Fraction(0), Fraction(1)


class BackendMismatch(TypeError):
    """Raised when scalars from different fields are combined."""


class ScalarDomainError(ArithmeticError):
    """Raised for operations that leave the field (e.g. irrational sqrt)."""


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        # floats are accepted only when they are exact binary rationals by
        # construction (e.g. 0.5); Fraction(float) keeps the exact value
        return Fraction(v)
    raise TypeError(f"cannot interpret {v!r} as a rational number")


def _parse_fraction(obj) -> Fraction:
    """The rational that ``str(obj)`` spells; a zero denominator is a ValueError too."""
    try:
        return Fraction(str(obj))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in the scalar {obj!r}") from None


def rational_sqrt(v: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if v < 0:
        return None
    num, den = v.numerator, v.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class QRational:
    """A Gaussian rational: re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QRational is immutable")

    def _coerce(self, other) -> Optional["QRational"]:
        if isinstance(other, QRational):
            return other
        if isinstance(other, (int, Fraction)):
            return QRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n2 = o.re * o.re + o.im * o.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero scalar")
        return QRational(
            (self.re * o.re + self.im * o.im) / n2,
            (self.im * o.re - self.re * o.im) / n2,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return QRational(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (QRational(1) / self) ** (-n)
        result = QRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal to the hash of the Fraction it equals when real
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return f"QRational({self.re})"
        return f"QRational({self.re}, {self.im})"


Scalar = Union[Fraction, QRational, object]


def _gaussian(re: Fraction, im: Fraction):
    """The exact scalar re + im*i: a plain Fraction when im is zero."""
    return QRational(re, im) if im else re


def _fraction_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@dataclass
class Report:
    """Outcome of a pass/fail check made of slots, each a pair of scalar lists.

    ``residuals`` holds the largest |lhs - rhs| of each slot, ``first_fail``
    the first slot that does not vanish and ``failing`` its deciding value.
    """

    name: str
    residuals: List[float]
    first_fail: Optional[int] = None
    failing: Optional[dict] = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.first_fail is None

    @property
    def residual(self) -> float:
        return max(self.residuals, default=0.0)

    def to_json(self):
        return {**asdict(self), "passed": self.passed}


class _Comparator:
    """The verdict methods shared by both backends; each decides through ``_vanishes``."""

    def is_zero(self, a, scale: Iterable = ()) -> bool:
        """Whether `a` vanishes, measured against the scalars of `scale`."""
        return self._vanishes([a], scale)

    def approx_eq(self, a, b) -> bool:
        """Whether a - b vanishes, measured against a and b."""
        a, b = self(a), self(b)
        return self._vanishes([a - b], (a, b))

    def vanish(self, values: Iterable, scale: Iterable = ()) -> Tuple[List[float], bool]:
        """Float magnitudes of `values`, and whether they all vanish against `scale`."""
        values = list(values)
        return [self.magnitude(v) if v else 0.0 for v in values], self._vanishes(values, scale)

    def failing(self, values: Iterable) -> dict:
        """``{"index", "value"}`` of the value a failed verdict hinges on.

        Values are ranked by (nonzero, magnitude), so an exact nonzero value
        wins over exact zeros even when its float magnitude underflows.
        """
        index, value = max(
            enumerate(values), key=lambda kv: (bool(kv[1]), self.magnitude(kv[1]))
        )
        return {"index": index, "value": self.to_json(value)}

    def report(self, name: str, slots: Iterable[Tuple[Iterable, Iterable]],
               detail: str = "") -> Report:
        """Every (lhs, rhs) slot, gathered into one ``Report``.

        The shorter side of a slot is padded with zeros, and each difference
        a - b is measured against every scalar on both sides.
        """
        rep = Report(name=name, residuals=[], detail=detail)
        for k, (lhs, rhs) in enumerate(slots):
            pairs = list(zip_longest(lhs, rhs, fillvalue=self.zero))
            diffs = [a - b for a, b in pairs]
            residuals, ok = self.vanish(diffs, chain.from_iterable(pairs))
            rep.residuals.append(max(residuals, default=0.0))
            if not ok and rep.first_fail is None:
                rep.first_fail, rep.failing = k, self.failing(diffs)
        return rep


class ExactField(_Comparator):
    """Gaussian-rational backend; comparisons are exact equality.

    Real values are plain ``Fraction``s; a ``QRational`` carries a nonzero
    imaginary part.
    """

    name = "exact"

    def __call__(self, v, im=None):
        if type(v) is Fraction and im is None:
            return v
        if im is not None:
            return _gaussian(_as_fraction(v), _as_fraction(im))
        if isinstance(v, QRational):
            return v if v.im else v.re
        if isinstance(v, complex):
            raise TypeError("binary complex floats are not exact; pass rational parts")
        return _as_fraction(v)

    @property
    def zero(self) -> Fraction:
        return _ZERO

    @property
    def one(self) -> Fraction:
        return _ONE

    @property
    def i(self) -> QRational:
        return QRational(0, 1)

    def re(self, a) -> Fraction:
        a = self(a)
        return a.re if isinstance(a, QRational) else a

    def im(self, a) -> Fraction:
        a = self(a)
        return a.im if isinstance(a, QRational) else _ZERO

    def _vanishes(self, values: Iterable, scale: Iterable) -> bool:
        """Every value is exactly zero; `scale` is not read."""
        return not any(values)

    def sqrt(self, a):
        a = self(a)
        if isinstance(a, QRational):
            raise ScalarDomainError("exact sqrt of a non-real value is not supported")
        r = rational_sqrt(a)
        if r is not None:
            return r
        r = rational_sqrt(-a)
        if r is not None:
            return QRational(0, r)
        raise ScalarDomainError(
            f"sqrt({_fraction_str(a)}) is irrational; use the bigfloat backend"
        )

    def magnitude(self, a) -> float:
        a = self(a)
        try:
            if isinstance(a, QRational):
                return float(abs(complex(a.re, a.im)))
            return abs(float(a))
        except OverflowError:
            return float("inf")

    def to_json(self, a):
        a = self(a)
        if isinstance(a, QRational):
            return [_fraction_str(a.re), _fraction_str(a.im)]
        return _fraction_str(a)

    def from_json(self, obj):
        if isinstance(obj, list):
            if len(obj) != 2:
                raise ValueError("complex scalar must be a two-element array")
            return _gaussian(_parse_fraction(obj[0]), _parse_fraction(obj[1]))
        if isinstance(obj, (str, int)):
            return _parse_fraction(obj)
        raise ValueError(f"cannot decode exact scalar from {obj!r}")

    def to_str(self, a) -> str:
        a = self(a)
        if not isinstance(a, QRational):
            return _fraction_str(a)
        return f"{_fraction_str(a.re)}{'+' if a.im >= 0 else ''}{_fraction_str(a.im)}i"

    def pack(self, values) -> Tuple[list, int]:
        """Real values as int numerators over their least common denominator.

        The row is reduced: no integer > 1 divides the denominator and every
        numerator.  A list of ints is its own numerators over 1.  A list
        holding a ``QRational`` packs as its values over 1.
        """
        values = list(values)
        if all(type(v) is int for v in values):
            return values, 1
        values = [self(v) for v in values]
        if any(type(v) is not Fraction for v in values):
            return values, 1
        den = lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den

    def unpack(self, row) -> list:
        values, den = row
        return [self(_quotient(v, den)) for v in values]

    def __repr__(self):
        return "ExactField()"


class BigFloatField(_Comparator):
    """Arbitrary-precision complex backend over a private mpmath context."""

    name = "bigfloat"

    def __init__(self, precision: Optional[int] = None, eps=None):
        if precision is None:
            precision = DEFAULT_PRECISION
        if precision < MIN_PRECISION:
            raise ValueError(f"precision must be >= {MIN_PRECISION} bits, got {precision}")
        self.precision = precision
        from mpmath.ctx_mp import MPContext  # loaded only by the bigfloat backend

        ctx = MPContext()
        ctx.prec = precision
        self.ctx = ctx
        self.eps = self.real(DEFAULT_EPS if eps is None else eps)
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        unit = ctx.ldexp(1, -precision)
        if self.eps < unit:
            raise ValueError(
                f"eps = {ctx.nstr(self.eps, 3)} is below the unit roundoff 2^-{precision}"
                f" = {ctx.nstr(unit, 3)}; pass a larger --eps or more --precision"
            )

    def real(self, v):
        """Convert a rational-like value to a real mpf of this context."""
        if isinstance(v, Fraction):
            return self.ctx.mpf(v.numerator) / v.denominator
        return self.ctx.mpf(v)

    def __call__(self, v, im=None):
        if im is not None:
            return self.ctx.mpc(self.real(v), self.real(im))
        if type(v) is self.ctx.mpc:
            # values are immutable, so one of this context is its own conversion
            return v
        if isinstance(v, QRational):
            return self.ctx.mpc(self.real(v.re), self.real(v.im))
        if isinstance(v, (int, Fraction, float, str)):
            return self.ctx.mpc(self.real(_as_fraction(v)))
        if isinstance(v, complex):
            return self.ctx.mpc(v)
        # mpf/mpc from any context: route through mpc constructor
        return self.ctx.mpc(v)

    @property
    def zero(self):
        return self.ctx.mpc(0)

    @property
    def one(self):
        return self.ctx.mpc(1)

    @property
    def i(self):
        return self.ctx.mpc(0, 1)

    def re(self, a):
        return self(a).real

    def im(self, a):
        return self(a).imag

    def _vanishes(self, values: Iterable, scale: Iterable) -> bool:
        """max |v| <= eps * max(1, |s| for s in scale), in this context's precision."""
        top = max((abs(self(v)) for v in values), default=0)
        return top <= self.eps * max([self.ctx.mpf(1), *(abs(self(s)) for s in scale)])

    def sqrt(self, a):
        return self.ctx.sqrt(self(a))

    def magnitude(self, a) -> float:
        return float(abs(self(a)))

    def _digits(self) -> int:
        return self.ctx.dps + 5

    def to_json(self, a):
        a = self(a)
        digits = self._digits()
        if a.imag == 0:
            value = self.ctx.nstr(a.real, digits)
        else:
            value = [self.ctx.nstr(a.real, digits), self.ctx.nstr(a.imag, digits)]
        return {"value": value, "precision": self.precision}

    def from_json(self, obj):
        if isinstance(obj, dict):
            if "value" not in obj:
                raise ValueError("a bigfloat value object needs a 'value'")
            obj = obj["value"]
        if isinstance(obj, list):
            if len(obj) != 2:
                raise ValueError("complex scalar must be a two-element array")
            value = self.ctx.mpc(self.ctx.mpf(str(obj[0])), self.ctx.mpf(str(obj[1])))
        elif isinstance(obj, str) and "/" in obj:
            value = self(_parse_fraction(obj))
        else:
            value = self.ctx.mpc(self.ctx.mpf(str(obj)))
        if not self.ctx.isfinite(value):
            raise ValueError(f"the scalar {obj!r} is not finite")
        return value

    def to_str(self, a) -> str:
        a = self(a)
        digits = min(self.ctx.dps, 30)
        if a.imag == 0:
            return self.ctx.nstr(a.real, digits)
        return self.ctx.nstr(a, digits)

    def pack(self, values) -> Tuple[list, int]:
        return [self(v) for v in values], 1

    def unpack(self, row) -> list:
        values, den = row
        return list(values) if den == 1 else [v / den for v in values]

    def __repr__(self):
        return f"BigFloatField(precision={self.precision})"


Field = Union[ExactField, BigFloatField]


def make_field(backend: str, precision: Optional[int] = None, eps=None) -> Field:
    if backend == "exact":
        return ExactField()
    if backend == "bigfloat":
        return BigFloatField(precision=precision, eps=eps)
    raise ValueError(f"unknown backend {backend!r}; expected 'exact' or 'bigfloat'")


def _quotient(v, den):
    """v / den, as an exact Fraction when both are ints."""
    if type(v) is int and type(den) is int:
        return Fraction(v, den)
    return v / den


def _over(a, b) -> Tuple[list, list, int]:
    """The values of packed rows a and b, rescaled to their least common denominator."""
    (x, xden), (y, yden) = a, b
    if xden == yden:
        return x, y, xden
    g = gcd(xden, yden)
    xs, ys = yden // g, xden // g
    return [v * xs for v in x], [v * ys for v in y], xden * xs


def mul_coeffs(a: Sequence, b: Sequence) -> list:
    """Coefficients of a*b, lowest degree first, untrimmed.

    Each coefficient sums its products in increasing index into `a`.  A left
    factor of two or three terms (the multipliers S_x z and U2 of the
    product-rule step) takes a list comprehension in that same order.
    """
    if len(a) == 2 and b:
        x0, x1 = a
        return [x0 * b[0], *[x0 * v + x1 * u for u, v in zip(b, b[1:])], x1 * b[-1]]
    if len(a) == 3 and len(b) > 1:
        x0, x1, x2 = a
        return [x0 * b[0], x0 * b[1] + x1 * b[0],
                *[x0 * w + x1 * v + x2 * u for u, v, w in zip(b, b[1:], b[2:])],
                x1 * b[-1] + x2 * b[-2], x2 * b[-1]]
    out = [None] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t = x * y
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return out


def mul_rows(a, b) -> Tuple[list, int]:
    """The packed row of the product of the polynomials with packed rows a and b."""
    return mul_coeffs(a[0], b[0]), a[1] * b[1]


def add_rows(a, b) -> Tuple[list, int]:
    """The packed row of a + b, entry by entry, with trailing zeros trimmed.

    An int row is reduced by one gcd; any other row over a denominator
    other than 1, on which that gcd raises ``TypeError``, is divided out to
    a row over 1.
    """
    x, y, den = _over(a, b)
    out = [u + v for u, v in zip(x, y)] + list(x[len(y):] or y[len(x):])
    while out and out[-1] == 0:
        out.pop()
    if den == 1:
        return out, 1
    try:
        g = gcd(den, *out)
    except TypeError:
        return [_quotient(v, den) for v in out], 1
    return ([v // g for v in out], den // g) if g > 1 else (out, den)


def join_rows(a, b) -> Tuple[list, int]:
    """The packed row of a's entries followed by b's.

    Over the least common denominator of two reduced rows the result is
    reduced too, so no gcd is taken.
    """
    x, y, den = _over(a, b)
    return x + y, den


def mat_row(m, r) -> Tuple[list, int]:
    """The packed row m r, unreduced: m is a packed matrix stored row by row, its
    rows as long as r, and each entry sums its products in increasing column."""
    (mv, mden), (rv, rden) = m, r
    k = len(rv)
    return [sum(map(mul, mv[i:i + k], rv)) for i in range(0, len(mv), k)], mden * rden


def eval_row(row, z, zero):
    """The value at z of the polynomial with packed row `row`, by Horner's rule.

    An int row (a_0, ..., a_n) over D at a rational z = p/q runs the
    homogeneous form acc = acc p + a_k q^(n-k) in ints, and the value
    acc / (D q^n) is reduced once, to the ``Fraction`` that Horner on the
    row's ``Fraction``s gives.  Any other row or point runs acc = acc z + c
    from acc = `zero`, highest coefficient first, and divides by a
    denominator other than 1 at the end: the plain-scalar loop, so
    bigfloat values round as that loop rounds them.
    """
    values, den = row
    if type(z) in (int, Fraction) and all(type(v) is int for v in values):
        p, q = z.numerator, z.denominator
        acc, qn = (values[-1] if values else 0), 1
        for a in values[-2::-1]:
            qn *= q
            acc = acc * p + a * qn
        return Fraction(acc, den * qn)
    acc = zero
    for c in reversed(values):
        acc = acc * z + c
    return _value(acc, den)


def _value(v, den):
    """The scalar of the packed scalar (v, den), without a division over 1."""
    return v if den == 1 else _quotient(v, den)


def div_scalars(a, b) -> Tuple[object, int]:
    """The packed scalar a / b; the denominator keeps a positive sign.

    A packed scalar is a pair (v, den) standing for v / den.  Two int pairs in
    lowest terms give the pair ``Fraction`` would hold, by the gcd steps of
    ``Fraction._div``; pairs not in lowest terms, such as those of
    ``sub_products``, give the same value, not always reduced.  A pair whose
    numerator is not an int divides as a scalar, over 1.
    """
    (na, da), (nb, db) = a, b
    if type(na) is not int or type(nb) is not int:
        return _value(na, da) / _value(nb, db), 1
    if nb == 0:
        raise ZeroDivisionError("division by zero scalar")
    g1 = gcd(na, nb)
    g2 = gcd(db, da)
    n, d = (na // g1) * (db // g2), (nb // g1) * (da // g2)
    return (-n, -d) if d < 0 else (n, d)


def sub_products(x, b, y, c=None, z=None) -> Tuple[object, int]:
    """The packed scalar x - b*y - c*z, unreduced; without c the c*z term is
    left out.

    Int pairs give their difference over lcm(den_x, den_b*den_y,
    den_c*den_z): each product stays unreduced, and the cofactors of one gcd
    per product write the difference over the least common denominator, not
    the product of the denominators.  The result is not reduced; a reduced
    value is made once, where the pair is unpacked to a ``Fraction``.  Any
    other values combine as scalars, as (x - b*y) - c*z.
    """
    (t, den), (bn, bd), (yn, yd) = x, b, y
    ints = type(t) is int and type(bn) is int and type(yn) is int
    if c is not None:
        (cn, cd), (zn, zd) = c, z
        ints = ints and type(cn) is int and type(zn) is int
    if not ints:
        s = _value(t, den) - _value(bn, bd) * _value(yn, yd)
        return (s if c is None else s - _value(cn, cd) * _value(zn, zd)), 1
    pd = bd * yd
    g = gcd(den, pd)
    t = t * (pd // g) - bn * yn * (den // g)
    den *= pd // g
    if c is not None:
        pd = cd * zd
        g = gcd(den, pd)
        t = t * (pd // g) - cn * zn * (den // g)
        den *= pd // g
    return t, den


def same_field(a: Field, b: Field) -> None:
    if a is not b:
        raise BackendMismatch(f"scalars come from different fields: {a!r} vs {b!r}")


def encode_fields(field: Field, record) -> dict:
    """Every field of a dataclass record as JSON; scalars go through ``field.to_json``."""
    out = {}
    for f in fields(record):
        v = getattr(record, f.name)
        plain = v is None or isinstance(v, (bool, int, float, str, list, dict))
        out[f.name] = v if plain else field.to_json(v)
    return out
