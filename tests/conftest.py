from __future__ import annotations

import functools
import time
from fractions import Fraction

import pytest

from latticeops import Lattice, make_field
from latticeops.checks import reference_lattices, run


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
