"""Convergence tables for the recurrence-coefficient asymptotics.

q-lattice mode: shows q^(-n)(B_n - c3) marching toward its limit and the
telescoped partial sums toward the full series. The subtraction loses
about n*log2(1/q) bits, so deep n needs a matching --precision.

Quadratic mode (--quadratic): shows B_n/n^2 and C_(n+1)/n^4 approaching
their growth constants for a quadratic and a linear phi.

    python scripts/asymptotics_table.py --q 1/2 --precision 512
    python scripts/asymptotics_table.py --quadratic
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from latticeops import Lattice, make_field
from latticeops.checks import sample_pair
from latticeops.classical import asymptotics


def q_lattice_table(args) -> None:
    field = make_field("bigfloat", precision=args.precision)
    lat = Lattice(field, args.q, (Fraction(1, 2), Fraction(1, 2), 0))
    pair = sample_pair(lat)
    print(f"{'n':>5} {'ratio error':>14} {'series error':>14}")
    for n in (10, 25, 50, 100, 200, 300):
        rep = asymptotics(pair, n, sum_horizon=16)
        series_err = field.magnitude(rep.series_estimate - rep.series_value)
        print(f"{n:>5} {rep.ratio_error:14.3e} {series_err:14.3e}")


def quadratic_table(args) -> None:
    field = make_field("bigfloat", precision=args.precision)
    lat = Lattice(field, 1, (2, Fraction(1, 3), Fraction(-1, 4)))
    for linear_phi in (False, True):
        pair = sample_pair(lat, linear_phi=linear_phi)
        rep0 = asymptotics(pair, 10)
        print(
            f"phi degree {1 if linear_phi else 2}: "
            f"B_n/n^2 -> {field.to_str(rep0.b_scaled_limit)}, "
            f"C_(n+1)/n^4 -> {field.to_str(rep0.c_scaled_limit)}"
        )
        print(f"{'n':>7} {'B error':>12} {'C error':>12}")
        for n in (10, 100, 1000, 10000):
            rep = asymptotics(pair, n)
            print(f"{n:>7} {rep.b_scaled_error:12.3e} {rep.c_scaled_error:12.3e}")
        print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=Fraction, default=Fraction(1, 2))
    ap.add_argument("--precision", type=int, default=512)
    ap.add_argument("--quadratic", action="store_true")
    args = ap.parse_args()
    if args.quadratic:
        quadratic_table(args)
    else:
        q_lattice_table(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
