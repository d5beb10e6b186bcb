"""Built-in recurrence-coefficient displays for the classical q-families.

Each family is one entry of the table `_FAMILIES`: its parameter count,
its builder `(lat, params) -> TTRRCoeffs` producing B_n and C_n from the
printed closed forms, and its lattice rule.  The four canonical
q-families are normalized to the lattice x(s) = (q^(-s) + q^s)/2, and
every display of theirs goes through the affine covariance
B_n -> lam*B_n + tau, C_n -> lam^2*C_n  with lam = 2*sqrt(c1*c2),
tau = c3, so family output is always in the coordinates of the lattice it
was requested on.  On the canonical lattice itself lam = 1 and tau = 0,
and the map changes no value.  `chebyshev_u` needs a q-quadratic lattice
but is written in its coordinates already, and `meixner2` takes any
lattice.

The Askey-Wilson display (Koekoek-Lesky-Swarttouw, 2010, §14.1) is made
of the seven factors 1 - p q^k, p = a1a2a3a4 or one of the six pair
products a_i a_j.  `_askey_wilson_factors` forms each product once and
gives the seven factors at a power of q; B_n, C_n and the restriction
scan all read it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import prod
from typing import Optional, Tuple

from .functionals import TTRRCoeffs
from .lattice import Lattice
from .scalars import ScalarDomainError


class FamilyError(ValueError):
    pass


@dataclass
class FamilySpec:
    name: str
    lattice: Lattice
    params: Tuple
    ttrr: TTRRCoeffs


def _wrap_affine(lat: Lattice, ttrr: TTRRCoeffs) -> TTRRCoeffs:
    """The display mapped from the canonical q-lattice onto lat."""
    c1, c2, tau = lat.c
    try:
        lam = 2 * lat.field.sqrt(c1 * c2)
    except ScalarDomainError as exc:
        raise FamilyError(
            "the affine family map needs sqrt(c1*c2); "
            "use a lattice with a square c1*c2 or the bigfloat backend"
        ) from exc
    return TTRRCoeffs(
        lat.field,
        lambda n: lam * ttrr.b(n) + tau,
        lambda n: lam * lam * ttrr.c(n),
    )


def _nonzero_or_raise(field, value, what: str):
    if field.is_zero(value):
        raise FamilyError(f"{what} vanishes; the displayed coefficients degenerate")
    return value


def _askey_wilson_factors(field, params):
    """x -> the factors 1 - p x for p = a1a2a3a4, a1a2, a1a3, a1a4, a2a3, a2a4, a3a4."""
    a1, a2, a3, a4 = (field(p) for p in params)
    products = (a1 * a2 * a3 * a4, a1 * a2, a1 * a3, a1 * a4, a2 * a3, a2 * a4, a3 * a4)
    one = field.one
    return lambda x: tuple(one - p * x for p in products)


def _askey_wilson_ttrr(lat: Lattice, params) -> TTRRCoeffs:
    field = lat.field
    q = lat.q
    a1 = field(params[0])
    if a1 == field.zero:
        raise FamilyError("askey_wilson needs a1 != 0; use al_salam or q_hermite")
    one = field.one
    qq = lat.q_pow
    factors = _askey_wilson_factors(field, params)

    def full(k: int):
        """1 - a1a2a3a4 q^k."""
        return factors(qq(k))[0]

    def b_fn(n: int):
        """(a1 + 1/a1 - A_n - C_n)/2 with the A_n, C_n of KLS (14.1.5)."""
        d1 = _nonzero_or_raise(field, full(2 * n - 1) * full(2 * n), f"a denominator of B_{n}")
        _, f12, f13, f14, _, _, _ = factors(qq(n))
        term1 = f12 * f13 * f14 * full(n - 1) / (a1 * d1)
        if n == 0:
            # C_0 carries the factor (1 - q^0) = 0
            return (a1 + one / a1 - term1) / 2
        d2 = _nonzero_or_raise(field, full(2 * n - 1) * full(2 * n - 2), f"a denominator of B_{n}")
        _, _, _, _, f23, f24, f34 = factors(qq(n - 1))
        term2 = a1 * (one - qq(n)) * f23 * f24 * f34 / d2
        return (a1 + one / a1 - term1 - term2) / 2

    def c_fn(m: int):
        n = m - 1
        pairs = prod(factors(qq(n))[1:])
        if n == 0:
            # (1 - a1a2a3a4 q^(n-1)) cancels between numerator and denominator;
            # q itself, not q_pow(1) = sqrt(q)^2, which a bigfloat rounds apart
            den = _nonzero_or_raise(
                field, 4 * full(0) ** 2 * factors(q)[0], "a denominator of C_1")
            return (one - q) * pairs / den
        den = _nonzero_or_raise(
            field,
            4 * full(2 * n - 1) * full(2 * n) ** 2 * full(2 * n + 1),
            f"a denominator of C_{m}",
        )
        return (one - qq(n + 1)) * full(n - 1) * pairs / den

    return TTRRCoeffs(field, b_fn, c_fn)


def _al_salam_ttrr(lat: Lattice, params) -> TTRRCoeffs:
    field = lat.field
    a, b = (field(p) for p in params)
    one = field.one
    qq = lat.q_pow
    return TTRRCoeffs(
        field,
        lambda n: (a + b) * qq(n) / 2,
        lambda m: (one - a * b * qq(m - 1)) * (one - qq(m)) / 4,
    )


def _cdq_hahn_ttrr(lat: Lattice, params) -> TTRRCoeffs:
    field = lat.field
    a, b, c = (field(p) for p in params)
    if a == field.zero:
        raise FamilyError("cdq_hahn needs a != 0")
    one = field.one
    qq = lat.q_pow

    def b_fn(n: int):
        return (
            a
            + one / a
            - a * (one - qq(n)) * (one - b * c * qq(n - 1))
            - (one - a * b * qq(n)) * (one - a * c * qq(n)) / a
        ) / 2

    def c_fn(m: int):
        n = m - 1
        return (
            (one - a * b * qq(n))
            * (one - a * c * qq(n))
            * (one - b * c * qq(n))
            * (one - qq(n + 1))
        ) / 4

    return TTRRCoeffs(field, b_fn, c_fn)


def _meixner2_ttrr(lat: Lattice, params) -> TTRRCoeffs:
    field = lat.field
    b1, b2 = (field(p) for p in params)
    if b1 * b1 + field.one == field.zero:
        raise FamilyError("meixner2 needs b1^2 != -1")
    return TTRRCoeffs(
        field,
        lambda n: -b1 * (2 * n + b2),
        lambda m: (b1 * b1 + field.one) * m * (m + b2 - field.one),
    )


def _chebyshev_u_ttrr(lat: Lattice, params) -> TTRRCoeffs:
    c1, c2, c3 = lat.c
    return TTRRCoeffs(lat.field, lambda n: c3, lambda m: c1 * c2)


# lattice rules: a canonical q-family (q-quadratic lattice, affine map), a
# q-quadratic family in the lattice's own coordinates, or no lattice check
_CANONICAL, _Q_QUADRATIC, _ANY = "canonical", "q-quadratic", "any"

# name -> (parameter count, builder, lattice rule); FAMILY_NAMES keeps this order
_FAMILIES = {
    "askey_wilson": (4, _askey_wilson_ttrr, _CANONICAL),
    "al_salam": (2, _al_salam_ttrr, _CANONICAL),
    "q_hermite": (0, lambda lat, params: _al_salam_ttrr(lat, (0, 0)), _CANONICAL),
    "cdq_hahn": (3, _cdq_hahn_ttrr, _CANONICAL),
    "meixner2": (2, _meixner2_ttrr, _ANY),
    "chebyshev_u": (0, _chebyshev_u_ttrr, _Q_QUADRATIC),
}

FAMILY_NAMES = tuple(_FAMILIES)


def make_family(name: str, lattice: Lattice, params=()) -> FamilySpec:
    if name not in _FAMILIES:
        raise FamilyError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")
    expected, build, rule = _FAMILIES[name]
    params = tuple(params)
    if len(params) != expected:
        raise FamilyError(f"{name} takes {expected} parameters, got {len(params)}")
    if rule != _ANY and lattice.kind != "q-quadratic":
        raise FamilyError(f"{name} needs a q-quadratic lattice")
    ttrr = build(lattice, params)
    if rule == _CANONICAL:
        ttrr = _wrap_affine(lattice, ttrr)
    return FamilySpec(name=name, lattice=lattice, params=params, ttrr=ttrr)


@dataclass
class RestrictionReport:
    ok: bool
    first_violation: Optional[int] = None
    detail: str = ""

    def to_json(self):
        return asdict(self)


def check_restrictions(spec: FamilySpec, n_max: int) -> RestrictionReport:
    """Parameter admissibility for the displayed coefficients.

    For askey_wilson this is the printed seven-factor condition; for all
    families a vanishing C_m up to m = n_max + 1 is reported, since that
    is what breaks orthogonality.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    lat = spec.lattice
    field = lat.field
    if spec.name == "askey_wilson":
        factors = _askey_wilson_factors(field, spec.params)
        for n in range(n_max + 1):
            if any(field.is_zero(f) for f in factors(lat.q_pow(n))):
                return RestrictionReport(
                    ok=False,
                    first_violation=n,
                    detail=f"a parameter product hits q^(-{n})",
                )
    for m in range(1, n_max + 2):
        try:
            cm = spec.ttrr.c(m)
        except FamilyError as exc:
            return RestrictionReport(ok=False, first_violation=m, detail=str(exc))
        if field.is_zero(cm):
            return RestrictionReport(
                ok=False, first_violation=m, detail=f"C_{m} = 0"
            )
    return RestrictionReport(ok=True)
