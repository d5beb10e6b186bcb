from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import latticeops
from latticeops import (
    BigFloatField,
    ExactField,
    QRational,
    ScalarDomainError,
    make_field,
)
from latticeops.scalars import (
    add_rows,
    div_scalars,
    eval_row,
    join_rows,
    mat_row,
    mul_coeffs,
    sub_products,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def qr(re, im=0):
    return QRational(Fraction(re), Fraction(im))


def one_slot(field, lhs, rhs):
    """(residual, passed) of the report of one (lhs, rhs) slot."""
    rep = field.report("slot", [(lhs, rhs)])
    return rep.residual, rep.passed


class TestQRational:
    def test_basic_arithmetic(self):
        a = qr(Fraction(3, 4), Fraction(1, 2))
        sq = a * a
        assert sq == qr(Fraction(5, 16), Fraction(3, 4))
        assert a + a == qr(Fraction(3, 2), 1)
        assert a - a == qr(0)

    def test_equality_needs_both_parts(self):
        a = qr(Fraction(3, 4), Fraction(1, 2))
        assert a != qr(Fraction(3, 4), 1) and a != qr(1, Fraction(1, 2))
        assert a != Fraction(3, 4) and qr(2) == 2

    def test_division_roundtrip(self):
        a = qr(Fraction(3, 4), Fraction(1, 2))
        b = qr(Fraction(-2, 7), Fraction(5, 3))
        assert (a / b) * b == a

    def test_i_squares_to_minus_one(self):
        i = qr(0, 1)
        assert i * i == qr(-1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            qr(1) / qr(0)

    @given(rationals, rationals, rationals, rationals)
    def test_mul_distributes_over_add(self, ar, ai, br, bi):
        a, b = qr(ar, ai), qr(br, bi)
        c = qr(Fraction(2, 3), Fraction(-1, 5))
        assert c * (a + b) == c * a + c * b

    @given(rationals, rationals)
    def test_square_modulus_is_multiplicative(self, ar, ai):
        a = qr(ar, ai)
        b = qr(Fraction(2, 7), Fraction(-3, 5))

        def mod2(z):
            return z.re * z.re + z.im * z.im

        assert mod2(a * b) == mod2(a) * mod2(b)

    def test_real_value_hashes_as_its_fraction(self):
        half = Fraction(1, 2)
        assert QRational(half) == half
        assert hash(QRational(half)) == hash(half)
        assert len({QRational(half), half}) == 1

    def test_negative_and_zero_powers(self):
        q = qr(Fraction(1, 2), Fraction(1, 3))
        assert q ** -2 == 1 / q ** 2
        assert q ** -1 * q == 1
        assert QRational(0) ** 0 == 1


class TestExactField:
    def test_real_values_are_plain_fractions(self, exact):
        reals = [exact(3), exact("1/2"), exact(1, 0), exact(qr(Fraction(2, 3))),
                 exact(exact.i * exact.i), exact.zero, exact.one,
                 exact.sqrt(Fraction(9, 4)), exact.from_json(["1/3", "0"])]
        assert all(type(v) is Fraction for v in reals)
        assert isinstance(exact(1, 2), QRational)
        assert isinstance(exact.sqrt(-4), QRational)

    def test_parts_and_text_accept_both_types(self, exact):
        for v in (Fraction(-7, 3), qr(Fraction(-7, 3))):
            assert (exact.re(v), exact.im(v)) == (Fraction(-7, 3), 0)
            assert exact.magnitude(v) == 7 / 3
            assert exact.to_json(v) == exact.to_str(v) == "-7/3"
        z = qr(1, -2)
        assert (exact.re(z), exact.im(z)) == (1, -2)
        assert (exact.to_json(z), exact.to_str(z)) == (["1", "-2"], "1-2i")

    def test_packed_rows(self, exact, big):
        """Real rows pack to reduced ints over one denominator; QRational and
        bigfloat rows pack over 1."""
        row = exact.pack((Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6), 0))
        assert row == ([3, 2, -5, 0], 6)
        assert exact.unpack(row) == [Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6), 0]
        assert all(type(v) is Fraction for v in exact.unpack(row))
        assert exact.pack((Fraction(1, 2), qr(1, 2))) == ([Fraction(1, 2), qr(1, 2)], 1)
        # 1/2 + 1/2 and 1/2 - 1/2: one gcd reduces the sum, the zero is trimmed
        assert add_rows(([1, 1], 2), ([1, -1], 2)) == ([1], 1)
        assert add_rows(([1], 2), ([1, 1], 3)) == ([5, 2], 6)
        assert join_rows(([1], 2), ([1], 3)) == ([3, 2], 6)
        mixed = add_rows(([1], 2), exact.pack((qr(0, 1),)))
        assert exact.unpack(mixed) == [qr(Fraction(1, 2), 1)]
        # an int entry before a QRational one: the row's gcd refuses it, so
        # the row is divided out to values over 1
        mixed = add_rows(([1, qr(1, 1), 4], 3), ([1, 1, 2], 3))
        assert mixed == ([Fraction(2, 3), qr(Fraction(2, 3), Fraction(1, 3)), 2], 1)
        assert [type(v) for v in mixed[0]] == [Fraction, QRational, Fraction]
        values, den = big.pack((1, Fraction(1, 3)))
        assert den == 1 and big.unpack((values, den)) == values == [big(1), big(Fraction(1, 3))]

    def test_packing_ints_equals_packing_their_fractions(self, exact):
        rng = random.Random(29)
        rows = [[], [0], [1], [-7, 0, 0], *([rng.randint(-10**30, 10**30) for _ in range(n)]
                                           for n in range(1, 9))]
        for values in rows:
            assert exact.pack(values) == exact.pack([Fraction(v) for v in values]) == (values, 1)
            assert exact.pack(tuple(values)) == (values, 1)

    def test_sqrt_of_square(self, exact):
        assert exact.sqrt(exact(Fraction(9, 4))) == exact(Fraction(3, 2))

    def test_sqrt_of_negative_is_imaginary(self, exact):
        root = exact.sqrt(exact(-4))
        assert root == QRational(Fraction(0), Fraction(2))

    def test_sqrt_of_nonsquare_rejected(self, exact):
        with pytest.raises(ScalarDomainError):
            exact.sqrt(exact(Fraction(1, 2)))

    def test_report_is_exact_equality(self, exact):
        tiny = Fraction(1, 10**400)
        residual, passed = one_slot(exact, [exact(1), exact(tiny)], [exact(1)])
        # the float residual underflows; the verdict does not
        assert (residual, passed) == (0.0, False)
        assert one_slot(exact, [exact(2), exact(0)], [exact(2)]) == (0.0, True)
        assert one_slot(exact, [exact(3)], [exact(1)]) == (2.0, False)

    def test_vanish_ignores_scale(self, exact):
        assert exact.vanish([exact(0), exact(0)], [exact(10) ** 90]) == ([0.0, 0.0], True)
        assert exact.vanish([exact(0), exact(Fraction(1, 4))]) == ([0.0, 0.25], False)

    def test_json_roundtrip(self, exact):
        for value in (exact(Fraction(-7, 3)), exact.i * exact(2) + exact(1)):
            assert exact.from_json(exact.to_json(value)) == value

    def test_accepts_fraction_strings(self, exact):
        assert exact.from_json("355/113") == exact(Fraction(355, 113))
        assert exact.from_json(["1/2", "-2/3"]) == QRational(
            Fraction(1, 2), Fraction(-2, 3)
        )


class TestPackedScalars:
    """div_scalars and sub_products against ``Fraction``.

    Each helper must give one exact (numerator, denominator) tuple, so a gcd
    step it skips or adds changes the tuple, and the comparison fails.
    ``div_scalars`` gives the tuple the ``Fraction`` quotient holds.
    ``sub_products`` gives the difference unreduced, over the least common
    denominator of its terms, ``lcm(x.den, b.den*y.den, c.den*z.den)``.
    """

    @staticmethod
    def operands(seed: int, count: int = 300):
        """Rationals of up to about 200 digits with small shared factors in
        numerators and denominators, so every gcd step of the helpers has
        something to cancel; zero, equal operands and negative values too."""
        rng = random.Random(seed)
        smooth = (1, 2, 3, 6, 12, 30, 210, 2**20 * 3**5)

        def part(low: int):
            return rng.choice(smooth) * rng.randint(low, 10 ** rng.randint(0, 190))

        values = [Fraction(rng.choice((-1, 1)) * part(0), part(1)) for _ in range(count)]
        pairs = list(zip(values, values[1:]))
        pairs += [(a, a) for a in values[:20]]  # zero differences, unit quotients
        pairs += [(a, -a) for a in values[20:40]]  # negative divisors
        pairs += [(Fraction(0), a) for a in values[40:50] if a]
        pairs += [(a, Fraction(1)) for a in values[50:60]]
        # equal denominators: the difference reduces by the second gcd only
        pairs += [(Fraction(k * 5 + 1, 30), Fraction(k, 30)) for k in range(30)]
        return pairs

    @staticmethod
    def packed(v: Fraction):
        return v.numerator, v.denominator

    @pytest.mark.parametrize("seed", range(3))
    def test_tuples_equal_fraction_arithmetic(self, seed):
        """a / b as the tuple ``Fraction`` holds; pairs not in lowest terms,
        as ``sub_products`` leaves them, give the same value over a positive
        denominator."""
        pk = self.packed
        rng = random.Random(seed + 200)
        checked = 0
        for a, b in self.operands(seed):
            if b == 0:
                with pytest.raises(ZeroDivisionError):
                    div_scalars(pk(a), pk(b))
                continue
            assert div_scalars(pk(a), pk(b)) == pk(a / b), (a, b)
            j, k = rng.choice((1, 6, 2**20 * 3**5)), rng.choice((-30, 1, 210))
            n, d = div_scalars((a.numerator * j, a.denominator * j),
                               (b.numerator * k, b.denominator * k))
            assert d > 0 and Fraction(n, d) == a / b, (a, b, j, k)
            checked += 1
        assert checked > 350

    def test_non_int_numerators_travel_over_one(self, exact, big):
        """A QRational or mpc numerator makes the quotient a plain scalar over 1,
        also when the other operand is an int pair over a denominator."""
        z, w = qr(1, 2), Fraction(-5, 6)
        for den in (1, 2, 4):
            got = div_scalars((z, 1), (3, den))
            assert got == (z / Fraction(3, den), 1) and type(got[0]) is QRational
        got = div_scalars(self.packed(w), (z, 1))
        assert got == (w / z, 1) and type(got[0]) is QRational
        x, y = big(Fraction(1, 3), 2), big(Fraction(-2, 7))
        got, den = div_scalars((x, 1), (y, 1))
        assert den == 1 and repr(got) == repr(x / y)

    @classmethod
    def product_terms(cls, seed: int):
        """(x, b, y, c, z) quintuples: windows of the ``operands`` values, then
        cases whose result is zero and whose denominators are equal."""
        values = [v for pair in cls.operands(seed) for v in pair]
        terms = [tuple(values[i:i + 5]) for i in range(0, len(values) - 4, 3)]
        for b, y, c, z in zip(values, values[7:], values[13:], values[19:80]):
            terms.append((b * y + c * z, b, y, c, z))  # zero result
        rng = random.Random(seed)
        for k in range(1, 20):
            den = rng.choice((6, 30, 210, 2**20 * 3**5))
            # x and b*y over one denominator, and c*z over it too
            terms.append((Fraction(-k, den), Fraction(k + 1, den), Fraction(k),
                          Fraction(k * 7, den), Fraction(1)))
        return terms

    @pytest.mark.parametrize("seed", range(3))
    def test_sub_products_equal_fraction_arithmetic(self, seed):
        """x - b*y - c*z as the unreduced tuple (want * L, L), L the least
        common denominator of x, b*y and c*z, and x - b*y over the least
        common denominator of x and b*y."""
        pk = self.packed
        zeros = 0
        for x, b, y, c, z in self.product_terms(seed):
            big = lcm(x.denominator, b.denominator * y.denominator,
                      c.denominator * z.denominator)
            want = x - b * y - c * z
            zeros += want == 0
            got = sub_products(pk(x), pk(b), pk(y), pk(c), pk(z))
            assert got == (want * big, big), (x, b, y, c, z)
            small = lcm(x.denominator, b.denominator * y.denominator)
            want = x - b * y
            assert sub_products(pk(x), pk(b), pk(y)) == (want * small, small), (x, b, y)
        assert zeros > 50

    def test_sub_products_of_non_int_values(self, exact, big):
        """mpc values give the bits of (x - b*y) - c*z; QRational values, alone or
        mixed with int pairs, give the exact value over 1."""
        rng = random.Random(27)

        def mpc():
            return big(Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)),
                       Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)))

        for _ in range(50):
            x, b, y, c, z = (mpc() for _ in range(5))
            got, den = sub_products((x, 1), (b, 1), (y, 1), (c, 1), (z, 1))
            assert den == 1 and repr(got) == repr((x - b * y) - c * z)
            got, den = sub_products((x, 1), (b, 1), (y, 1))
            assert den == 1 and repr(got) == repr(x - b * y)
        w = qr(Fraction(1, 3), Fraction(-2, 5))
        # the QRational in every position; the others int pairs over a denominator
        for at in range(5):
            vals = [Fraction(7, 2), Fraction(-5, 12), Fraction(9, 4), Fraction(3, 10),
                    Fraction(-1, 2)]
            vals[at] = w
            args = [(v, 1) if v is w else self.packed(v) for v in vals]
            x, b, y, c, z = vals
            got, den = sub_products(*args)
            assert den == 1 and type(got) is QRational
            assert got == x - b * y - c * z, at
            if at < 3:
                got, den = sub_products(*args[:3])
                assert (got, den) == (x - b * y, 1) and type(got) is QRational, at


class TestMulCoeffs:
    """mul_coeffs against the convolution written out: each coefficient starts
    from its first product and adds the others in increasing index into a."""

    @staticmethod
    def longhand(a, b):
        out = [None] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = x * y if out[i + j] is None else out[i + j] + x * y
        return out

    @staticmethod
    def shapes(scalar):
        """Left factors of 1 to 4 terms against right factors of 0 to 12."""
        for n in range(1, 5):
            for m in range(13):
                yield [scalar() for _ in range(n)], [scalar() for _ in range(m)]

    def test_exact_scalars(self, exact):
        rng = random.Random(29)
        kinds = {
            "int": lambda: rng.randint(-10**30, 10**30),
            "fraction": lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
            "gaussian": lambda: exact(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                                      rng.choice((0, Fraction(rng.randint(-99, 99), 7)))),
        }
        for scalar in kinds.values():
            for a, b in self.shapes(scalar):
                got, want = mul_coeffs(a, b), self.longhand(a, b)
                assert got == want and [type(v) for v in got] == [type(v) for v in want]

    def test_mpc_scalars_are_bit_identical(self):
        big = make_field("bigfloat", precision=128)
        rng = random.Random(30)

        def scalar():
            return big(Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)),
                       Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)))

        for a, b in self.shapes(scalar):
            assert repr(mul_coeffs(a, b)) == repr(self.longhand(a, b))


class TestMatRow:
    """mat_row against the contraction written out: each entry starts from its
    first product and adds the others in increasing column."""

    @staticmethod
    def longhand(m, r):
        (mv, mden), (rv, rden) = m, r
        k = len(rv)
        out = []
        for i in range(len(mv) // k):
            acc = mv[k * i] * rv[0]
            for j in range(1, k):
                acc = acc + mv[k * i + j] * rv[j]
            out.append(acc)
        return out, mden * rden

    @staticmethod
    def shapes(scalar):
        """(matrix, row) pairs of the shapes the library contracts: 5x5, 2x5,
        and one row against rows of length 1 to 12."""
        for rows, k in [(5, 5), (2, 5), *((1, k) for k in range(1, 13))]:
            yield [scalar() for _ in range(rows * k)], [scalar() for _ in range(k)]

    def test_int_rows(self):
        rng = random.Random(25)
        for mv, rv in self.shapes(lambda: rng.randint(-10**40, 10**40)):
            m, r = (mv, rng.randint(1, 10**20)), (rv, rng.randint(1, 10**20))
            got = mat_row(m, r)
            assert got == self.longhand(m, r)
            assert all(type(v) is int for v in got[0])

    def test_gaussian_rows_over_one(self, exact):
        rng = random.Random(26)

        def scalar():
            return exact(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                         rng.choice((0, Fraction(rng.randint(-99, 99), rng.randint(1, 99)))))

        for mv, rv in self.shapes(scalar):
            got, want = mat_row((mv, 1), (rv, 1)), self.longhand((mv, 1), (rv, 1))
            assert got == want
            assert [type(v) for v in got[0]] == [type(v) for v in want[0]]

    def test_mpc_rows_are_bit_identical(self):
        big = make_field("bigfloat", precision=128)
        rng = random.Random(27)

        def scalar():
            return big(Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)),
                       Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)))

        for mv, rv in self.shapes(scalar):
            got, want = mat_row((mv, 1), (rv, 1)), self.longhand((mv, 1), (rv, 1))
            assert [v._mpc_ for v in got[0]] == [v._mpc_ for v in want[0]]

    def test_the_empty_row_pairs_to_zero(self, exact, big):
        """A matrix with empty rows has no row count, so the empty row of the
        zero polynomial is paired by ``MomentFunctional.pair`` itself."""
        for field in (exact, big):
            u = latticeops.MomentFunctional(field, [field(3), field(5)])
            got = u.pair(field.pack(()))
            assert got == field.zero and type(got) is type(field.zero)


class TestEvalRow:
    """eval_row against Horner written out on the row's scalars: acc = acc z + c
    from zero, highest coefficient first, then the division by the row's
    denominator; exact values of one type, bigfloat values bit for bit."""

    @staticmethod
    def horner(values, den, z, zero):
        acc = zero
        for c in reversed(values):
            acc = acc * z + c
        return acc if den == 1 else acc / den

    @staticmethod
    def int_rows(rng):
        """The zero row, degree 0 and degrees up to 17, over denominators that
        share factors with the numerators (the rows are not reduced)."""
        for den in (1, 2, 12, 360, 3 * 2 ** 70, 16 ** 17):
            yield [], den
            for n in (*range(5), 11, 17):
                yield [rng.randint(-10 ** 30, 10 ** 30) * rng.choice((1, 2, 6, 15))
                       for _ in range(n + 1)], den

    @staticmethod
    def rational_points(rng):
        """0, ints of both signs, and p/q with q up to 16^17, the denominators of
        the nodes x(s +- 1/2) of the symmetric q = 1/16 lattice."""
        yield from (0, 1, -1, 7, -12, Fraction(0), Fraction(5), Fraction(-3))
        for q in (2, 3, 4, 48, 360, *(16 ** k for k in (1, 5, 12, 17)), 2 * 16 ** 17 - 1):
            for sign in (1, -1):
                yield Fraction(sign * rng.randint(1, 4 * q), q)

    def test_int_rows_at_rational_points(self):
        rng = random.Random(35)
        points = list(self.rational_points(rng))
        for values, den in self.int_rows(rng):
            want_row = [Fraction(v) for v in values]
            for z in points:
                got = eval_row((values, den), z, Fraction(0))
                want = self.horner(want_row, 1, Fraction(z), Fraction(0)) / den
                assert got == want and type(got) is Fraction, (values, den, z)

    def test_a_packed_polynomial_evaluates_as_its_fractions(self, exact):
        """``pack`` of Fractions with mixed denominators, against Horner on the
        Fractions themselves; and ``Polynomial.__call__``, which runs the
        scalar loop, against the same Horner."""
        rng = random.Random(36)
        points = list(self.rational_points(rng))
        for n in range(18):
            coeffs = [Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 4, 6, 9, 12, 35, 64)))
                      for _ in range(n)] + [Fraction(rng.randint(1, 99), rng.randint(1, 99))]
            row = exact.pack(coeffs)
            assert all(type(v) is int for v in row[0])
            for z in points:
                want = self.horner(coeffs, 1, Fraction(z), Fraction(0))
                for got in (eval_row(row, z, exact.zero), latticeops.Polynomial(exact, coeffs)(z)):
                    assert got == want and type(got) is Fraction, (coeffs, z)

    def test_gaussian_rows_and_points_take_the_scalar_loop(self, exact):
        """A ``QRational`` point, or a ``QRational`` among the values, runs the
        scalar loop from the given zero: its values and types, over 1 and over
        a denominator; the zero row gives the zero passed in."""
        rng = random.Random(37)

        def gaussian():
            return qr(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                      Fraction(rng.randint(1, 99), rng.randint(1, 99)))

        def fraction():
            return Fraction(rng.randint(-99, 99), rng.randint(1, 99))

        for n in (0, 1, 2, 5, 11):
            ints = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(n + 1)]
            mixed = [fraction() for _ in range(n)] + [gaussian()]
            for values, z in ((ints, gaussian()), (mixed, fraction()), (mixed, gaussian()),
                              (mixed, rng.randint(-9, 9))):
                for den in (1, 12):
                    got = eval_row((values, den), z, exact.zero)
                    want = self.horner(values, den, z, exact.zero)
                    assert got == want and type(got) is type(want), (values, den, z)
        z = gaussian()
        for zero in (exact.zero, QRational(0)):
            assert eval_row(([], 1), z, zero) is zero
        for z in (gaussian(), fraction()):
            got = latticeops.Polynomial.zero(exact)(z)
            assert got == 0 and type(got) is Fraction

    @pytest.mark.parametrize("bits", [128, 256])
    def test_bigfloat_rows_are_bit_identical(self, bits):
        """mpc rows and points, over 1 as ``pack`` makes them and over a
        denominator: the bits of the scalar loop; and ``Polynomial.__call__``."""
        big = make_field("bigfloat", precision=bits)
        rng = random.Random(bits)

        def scalar():
            return big(Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9)),
                       rng.choice((0, Fraction(rng.randint(-10 ** 9, 10 ** 9), 7))))

        for n in (*range(6), 11, 17):
            coeffs = [scalar() for _ in range(n + 1)]
            row = big.pack(coeffs)
            for z in (scalar(), big(Fraction(1, 16 ** 17)), big.zero):
                want = self.horner(coeffs, 1, z, big.zero)
                assert repr(eval_row(row, z, big.zero)) == repr(want)
                assert repr(latticeops.Polynomial(big, coeffs)(z)) == repr(want)
                assert repr(eval_row((coeffs, 3), z, big.zero)) == repr(want / 3)
        got = eval_row(big.pack(()), scalar(), big.zero)
        assert repr(got) == repr(big.zero)


class TestBigFloatField:
    def test_precision_is_per_instance(self):
        low = make_field("bigfloat", precision=64, eps=Fraction(1, 10**15))
        high = make_field("bigfloat", precision=256)
        third_low = low(1) / low(3)
        third_high = high(1) / high(3)
        assert low.magnitude(3 * third_low - 1) < 1e-15
        assert high.magnitude(3 * third_high - 1) < 1e-70
        assert high.magnitude(3 * third_high - 1) <= low.magnitude(3 * third_low - 1)

    def test_is_zero_is_scale_relative(self):
        field = make_field("bigfloat", precision=128, eps=Fraction(1, 10**20))
        big_val = field(10) ** 30
        assert field.is_zero((big_val + field(1)) - big_val - field(1))
        assert not field.is_zero(field(1, 10**19))

    def test_a_value_of_exactly_the_floor_vanishes(self):
        """The floor is inclusive: |v| = eps * max(1, |s|) reads as zero, and
        twice that does not; every value here is exact in binary."""
        field = make_field("bigfloat", precision=128, eps=Fraction(1, 2**80))
        floor = field(Fraction(1, 2**80))
        assert field.is_zero(floor) and field.is_zero(-3 * floor, [field(3)])
        assert not field.is_zero(2 * floor) and not field.is_zero(6 * floor, [field(3)])

    def test_report_is_scale_relative(self):
        field = make_field("bigfloat", precision=128, eps=Fraction(1, 10**20))
        big_val = field(10) ** 30
        # a difference of 1 against operands of size 10^30 vanishes ...
        residual, passed = one_slot(field, [big_val + 1], [big_val])
        assert passed and residual == 1.0
        # ... but not against operands of size 1
        assert one_slot(field, [field(2)], [field(1)]) == (1.0, False)
        # the scale never drops below 1
        assert one_slot(field, [field(Fraction(1, 10**21))], []) == (1e-21, True)

    @pytest.mark.parametrize("eps", [0, -1])
    def test_eps_must_be_positive(self, eps):
        with pytest.raises(ValueError, match=f"eps must be > 0, got {eps}"):
            make_field("bigfloat", precision=128, eps=Fraction(eps))

    def test_vanish_measures_against_scale(self):
        field = make_field("bigfloat", precision=128, eps=Fraction(1, 10**20))
        assert not field.vanish([field(Fraction(1, 10**10))])[1]
        assert field.vanish([field(Fraction(1, 10**10))], [field(10) ** 11])[1]
        assert field.vanish([], []) == ([], True)

    def test_verdicts_beyond_the_float_range(self, big):
        # scales past 1.8e308 are infinite as floats; the verdict never sees a float
        huge = big(10) ** 400
        rep = big.report("x", [([10**400], [2 * 10**400])])
        assert not rep.passed and rep.first_fail == 0
        assert rep.residual == float("inf")  # what the report shows overflows
        assert big.report("x", [([huge + 1], [huge])]).passed
        assert big.vanish([huge], [2 * huge]) == ([float("inf")], False)
        assert big.vanish([big(1)], [huge])[1]
        assert not big.is_zero(huge, scale=[2 * huge])
        assert not big.is_zero(huge / 10**20, scale=[huge])
        assert big.is_zero(huge / 10**30, scale=[huge])
        assert not big.approx_eq(huge, 2 * huge)
        assert big.approx_eq(huge, huge + 1)

    def test_approx_eq(self, big):
        a = big(Fraction(1, 3))
        assert big.approx_eq(a * 3, big.one)
        assert not big.approx_eq(a, big.one)

    def test_json_roundtrip(self, big):
        val = big(Fraction(22, 7)) + big.i * big(Fraction(-1, 3))
        decoded = big.from_json(big.to_json(val))
        assert big.approx_eq(val, decoded)

    def test_json_shape(self, big):
        """A real value encodes as one string, a complex one as [re, im]."""
        assert big.to_json(big(Fraction(-5, 4))) == {"value": "-1.25", "precision": 128}
        blob = big.to_json(big(Fraction(1, 2), Fraction(-3, 4)))
        assert blob == {"value": ["0.5", "-0.75"], "precision": 128}
        # a value that does not terminate shows dps + 5 = 43 significant digits
        value = big.to_json(big(Fraction(1, 3)))["value"]
        assert value.startswith("0.333") and len(value) == len("0.") + big.ctx.dps + 5 == 45

    def test_own_values_are_returned_unchanged(self, big):
        v = big(Fraction(22, 7)) + big.i * big(Fraction(-1, 3))
        assert type(v) is big.ctx.mpc
        assert big(v) is v
        assert big(v) == big.ctx.mpc(v)
        # a value of another context is still converted, rounded to this one
        other = make_field("bigfloat", precision=256)
        w = other(Fraction(1, 3))
        cw = big(w)
        assert type(cw) is big.ctx.mpc and type(w) is not big.ctx.mpc
        assert cw == big.ctx.mpc(w) == big(Fraction(1, 3))

    def test_sqrt(self, big):
        assert big.approx_eq(big.sqrt(big(2)) ** 2, big(2))
        minus = big.sqrt(big(-9))
        assert big.approx_eq(minus, 3 * big.i)


class TestMakeField:
    def test_dispatch(self):
        assert isinstance(make_field("exact"), ExactField)
        assert isinstance(make_field("bigfloat"), BigFloatField)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            make_field("decimal")

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            make_field("bigfloat", precision=16)

    def test_default_precision(self):
        assert make_field("bigfloat").precision == 128


def test_exact_process_never_loads_mpmath():
    """Only the bigfloat backend imports mpmath; an exact Pearson job does not."""
    code = textwrap.dedent("""
        import sys
        from fractions import Fraction as F
        import latticeops as L

        field = L.make_field("exact")
        lat = L.Lattice(field, 4, (F(1, 2), F(1, 3), F(1, 5)))
        pair = L.PearsonPair(lat, L.Polynomial(field, (F(7, 10), F(-1, 3), F(2, 7))),
                             L.Polynomial(field, (F(1, 2), F(3, 4))))
        closed, oracle = L.ttrr_from_pearson(pair), L.ttrr_oracle(pair.moments(), 8)
        print(L.regularity(pair, 8).regular,
              all(closed.c(n) == oracle.c(n) for n in range(9)),
              "mpmath" in sys.modules)
    """)
    src = str(Path(latticeops.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "True", "False"]


def test_verdict_rules_live_in_scalars():
    """Only scalars.py decides "zero or not".

    Elsewhere in the package there is no branch on the backend name and no
    tolerance floor.  The one name read allowed is solve_relation's guard,
    which refuses the bigfloat backend instead of deciding a verdict.
    """
    name_reads, floors = [], []
    for path in sorted(Path(latticeops.__file__).parent.glob("*.py")):
        if path.name == "scalars.py":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if re.search(r"""\.name\s*[!=]=\s*["']exact["']""", line):
                name_reads.append((path.name, line.strip(), lines[i + 1].strip()))
            if re.search(r"max\(\s*1\.0|field\.eps\b", line):
                floors.append((path.name, line.strip()))
    assert name_reads == [(
        "characterize.py",
        'if field.name != "exact":',
        'raise ValueError("solve_relation decides consistency exactly; '
        'use the exact backend")',
    )]
    assert floors == []
    # one decision method per backend; the verdict methods are shared
    for cls in (ExactField, BigFloatField):
        assert "_vanishes" in vars(cls)
        assert not {"is_zero", "vanish", "approx_eq", "compare"} & set(vars(cls))
    assert not hasattr(ExactField, "compare")


def test_polynomial_rows_are_made_in_polynomials():
    """Only polynomials.py converts between a ``Polynomial`` and its packed row.

    Elsewhere no line packs a ``.coeffs`` or wraps an ``unpack(`` in
    ``Polynomial(``: ``p.row`` and ``Polynomial.from_row`` do both.
    """
    conversion = re.compile(r"\bpack\(.*\.coeffs\b|\bPolynomial\(.*\bunpack\(")
    assert conversion.search("row = u.field.pack(f.coeffs)")
    assert conversion.search("return Polynomial(field, field.unpack(acc))")
    found = []
    for path in sorted(Path(latticeops.__file__).parent.glob("*.py")):
        if path.name == "polynomials.py":
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            if conversion.search(line):
                found.append((path.name, line.strip()))
    assert found == []


def test_lattice_q_powers_live_in_lattice():
    """Every power of a lattice's q or sqrt(q) goes through ``Lattice.t_pow``.

    That covers ``q_pow`` and the counterexample's powers of r4 = q^(1/4),
    written as ``r4 * t_pow(k)``: no module, ``lattice.py`` included, raises
    q, ``sqrt_q``, ``r4`` or t to a power with ``**``.
    """
    raw = []
    for path in sorted(Path(latticeops.__file__).parent.glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if re.search(r"\b(q|sqrt_q|r4|t)\s*\*\*", line):
                raw.append((path.name, line.strip()))
    assert raw == []
