from __future__ import annotations

import functools
import time
from fractions import Fraction

import pytest
from hypothesis import settings

from latticeops import Lattice, PearsonPair, Polynomial, make_field
from latticeops.checks import reference_lattices, run

# every @given test draws the same examples on every run of one commit;
# each test's own max_examples and deadline still apply
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@functools.cache
def run_check(name: str, seed: int):
    """The verdict record of one registry check and its wall time, computed once per pytest run.

    The acceptance tests and ``latticeops all`` in test_cli share these runs.
    """
    start = time.monotonic()
    record = run(name, seed)
    return record, time.monotonic() - start


# lattices beyond the reference four that the identities must also cover
EXTRA_LATTICES = [
    (Fraction(1, 9), (Fraction(1, 2), Fraction(1, 2), 0)),  # q = 1/9 symmetric
    (Fraction(1, 4), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),  # q = 1/4 offset
    (Fraction(25, 4), (Fraction(1, 2), Fraction(1, 2), 0)),  # q = 25/4 symmetric
    (1, (2, Fraction(1, 3), Fraction(-1, 4))),  # quadratic, beta != 0
]


# the lattice kinds the fixtures leave out: q-linear with c2 = 0 and with
# c1 = 0, linear, and constant
EVERY_KIND = {
    "qlin_c2": (4, (Fraction(1, 2), 0, 3)),
    "qlin_c1": (Fraction(1, 9), (0, Fraction(1, 3), Fraction(2, 7))),
    "lin": (1, (0, 1, 0)),
    "const": (1, (0, 0, Fraction(3, 7))),
}


# the six lattices of the pearson-exact benchmark workload, every sqrt(q) rational
PEARSON_LATTICES = (
    {"q": "1/4", "c": ["1/2", "1/2", "0"]},
    {"q": "4", "c": ["1/2", "1/3", "1/5"]},
    {"q": "1/9", "c": ["1/2", "1/2", "0"]},
    {"q": "25/4", "c": ["1/3", "1/2", "1/7"]},
    {"q": "1", "c": ["2", "1/3", "-1/4"]},
    {"q": "1", "c": ["0", "1", "0"]},
)


def gaussian_lattices(field):
    """Lattices whose image rows hold Gaussian rationals, and the symmetric q = 1/4 one."""
    return [
        Lattice(field, 4, (Fraction(1, 2), Fraction(1, 3), field(Fraction(1, 5), Fraction(2, 7)))),
        Lattice(field, 1, (2, field(Fraction(1, 3), 1), Fraction(-1, 4))),
        Lattice(field, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0)),
    ]


def readme_pair(lat):
    """The README example's Pearson pair, on any lattice and backend; every coefficient is nonzero."""
    field = lat.field
    phi = Polynomial(field, (Fraction(7, 10), Fraction(-1, 3), Fraction(2, 7)))
    psi = Polynomial(field, (Fraction(1, 2), Fraction(3, 4)))
    return PearsonPair(lat, phi, psi)


def identity_lattices(field):
    return reference_lattices(field) + [Lattice(field, q, c) for q, c in EXTRA_LATTICES]


@pytest.fixture(scope="session")
def exact():
    return make_field("exact")


@pytest.fixture(scope="session")
def big():
    return make_field("bigfloat", precision=128)


@pytest.fixture(scope="session")
def sym_lattice(exact):
    """Symmetric q-quadratic lattice: x(s) = (q^-s + q^s)/2, q = 1/4."""
    return Lattice(exact, Fraction(1, 4), (Fraction(1, 2), Fraction(1, 2), 0))


@pytest.fixture(scope="session")
def gen_lattice(exact):
    """q-quadratic lattice with all three constants nonzero, q = 4."""
    return Lattice(exact, 4, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))


@pytest.fixture(scope="session")
def quad_lattice(exact):
    """Quadratic lattice with beta != 0."""
    return Lattice(exact, 1, (2, Fraction(1, 3), Fraction(-1, 4)))


@pytest.fixture(scope="session")
def lin_lattice(exact):
    """Linear lattice x(s) = s."""
    return Lattice(exact, 1, (0, 1, 0))
