"""Built-in recurrence-coefficient displays for the classical q-families.

Each family returns a TTRRCoeffs with B_n and C_n produced from the
printed closed forms.  The four q-families are normalized to the lattice
x(s) = (q^(-s) + q^s)/2; on any other q-quadratic lattice the affine
covariance  B_n -> lam*B_n + tau,  C_n -> lam^2*C_n  with
lam = 2*sqrt(c1*c2), tau = c3 is applied, so family output is always in
the coordinates of the lattice it was requested on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from .functionals import TTRRCoeffs
from .lattice import Lattice
from .scalars import ScalarDomainError


class FamilyError(ValueError):
    pass


FAMILY_NAMES = (
    "askey_wilson",
    "al_salam",
    "q_hermite",
    "cdq_hahn",
    "meixner2",
    "chebyshev_u",
)

_PARAM_COUNT = {
    "askey_wilson": 4,
    "al_salam": 2,
    "q_hermite": 0,
    "cdq_hahn": 3,
    "meixner2": 2,
    "chebyshev_u": 0,
}

_CANONICAL_Q_FAMILIES = ("askey_wilson", "al_salam", "q_hermite", "cdq_hahn")


@dataclass
class FamilySpec:
    name: str
    lattice: Lattice
    params: Tuple
    ttrr: TTRRCoeffs


def _affine_for(lat: Lattice):
    """lam, tau mapping the canonical q-lattice onto lat, or identity."""
    field = lat.field
    c1, c2, c3 = lat.c
    half = field(1) / 2
    if c1 == half and c2 == half and c3 == field.zero:
        return None
    try:
        lam = 2 * field.sqrt(c1 * c2)
    except ScalarDomainError as exc:
        raise FamilyError(
            "the affine family map needs sqrt(c1*c2); "
            "use a lattice with a square c1*c2 or the bigfloat backend"
        ) from exc
    return lam, c3


def _wrap_affine(lat: Lattice, ttrr: TTRRCoeffs) -> TTRRCoeffs:
    mapped = _affine_for(lat)
    if mapped is None:
        return ttrr
    lam, tau = mapped
    field = lat.field
    return TTRRCoeffs(
        field,
        lambda n: lam * ttrr.b(n) + tau,
        lambda n: lam * lam * ttrr.c(n),
    )


def _nonzero_or_raise(field, value, what: str):
    if field.is_zero(value):
        raise FamilyError(f"{what} vanishes; the displayed coefficients degenerate")
    return value


def _askey_wilson_ttrr(lat: Lattice, params) -> TTRRCoeffs:
    field = lat.field
    q = lat.q
    a1, a2, a3, a4 = (field(p) for p in params)
    if a1 == field.zero:
        raise FamilyError("askey_wilson needs a1 != 0; use al_salam or q_hermite")
    prod = a1 * a2 * a3 * a4
    one = field.one
    qq = lat.q_pow

    def b_fn(n: int):
        d1 = _nonzero_or_raise(
            field, (one - prod * qq(2 * n - 1)) * (one - prod * qq(2 * n)),
            f"a denominator of B_{n}",
        )
        term1 = (
            (one - a1 * a2 * qq(n))
            * (one - a1 * a3 * qq(n))
            * (one - a1 * a4 * qq(n))
            * (one - prod * qq(n - 1))
            / (a1 * d1)
        )
        if n == 0:
            # the second display term carries the factor (1 - q^0) = 0
            return a1 + one / a1 - term1
        d2 = _nonzero_or_raise(
            field, (one - prod * qq(2 * n - 1)) * (one - prod * qq(2 * n - 2)),
            f"a denominator of B_{n}",
        )
        term2 = (
            a1
            * (one - qq(n))
            * (one - a2 * a3 * qq(n - 1))
            * (one - a2 * a4 * qq(n - 1))
            * (one - a3 * a4 * qq(n - 1))
            / d2
        )
        return a1 + one / a1 - term1 - term2

    def c_fn(m: int):
        n = m - 1
        pairs = (
            (one - a1 * a2 * qq(n))
            * (one - a1 * a3 * qq(n))
            * (one - a1 * a4 * qq(n))
            * (one - a2 * a3 * qq(n))
            * (one - a2 * a4 * qq(n))
            * (one - a3 * a4 * qq(n))
        )
        if n == 0:
            # (1 - prod*q^(n-1)) cancels between numerator and denominator
            den = _nonzero_or_raise(
                field,
                4 * (one - prod) ** 2 * (one - prod * q),
                "a denominator of C_1",
            )
            return (one - q) * pairs / den
        den = _nonzero_or_raise(
            field,
            4
            * (one - prod * qq(2 * n - 1))
            * (one - prod * qq(2 * n)) ** 2
            * (one - prod * qq(2 * n + 1)),
            f"a denominator of C_{m}",
        )
        return (one - qq(n + 1)) * (one - prod * qq(n - 1)) * pairs / den

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


def _chebyshev_u_ttrr(lat: Lattice) -> TTRRCoeffs:
    field = lat.field
    c1, c2, c3 = lat.c
    return TTRRCoeffs(field, lambda n: c3, lambda m: c1 * c2)


def make_family(name: str, lattice: Lattice, params=()) -> FamilySpec:
    if name not in FAMILY_NAMES:
        raise FamilyError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")
    expected = _PARAM_COUNT[name]
    params = tuple(params)
    if len(params) != expected:
        raise FamilyError(f"{name} takes {expected} parameters, got {len(params)}")
    if name in _CANONICAL_Q_FAMILIES or name == "chebyshev_u":
        if not lattice.is_q_lattice or lattice.kind != "q-quadratic":
            raise FamilyError(f"{name} needs a q-quadratic lattice")
    if name == "askey_wilson":
        ttrr = _wrap_affine(lattice, _askey_wilson_ttrr(lattice, params))
    elif name == "al_salam":
        ttrr = _wrap_affine(lattice, _al_salam_ttrr(lattice, params))
    elif name == "q_hermite":
        ttrr = _wrap_affine(lattice, _al_salam_ttrr(lattice, (0, 0)))
    elif name == "cdq_hahn":
        ttrr = _wrap_affine(lattice, _cdq_hahn_ttrr(lattice, params))
    elif name == "meixner2":
        ttrr = _meixner2_ttrr(lattice, params)
    else:
        ttrr = _chebyshev_u_ttrr(lattice)
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
    field = spec.lattice.field
    if spec.name == "askey_wilson":
        a1, a2, a3, a4 = (field(p) for p in spec.params)
        prod = a1 * a2 * a3 * a4
        one = field.one
        for n in range(n_max + 1):
            qn = spec.lattice.q_pow(n)
            factors = (
                one - prod * qn,
                one - a1 * a2 * qn,
                one - a1 * a3 * qn,
                one - a1 * a4 * qn,
                one - a2 * a3 * qn,
                one - a2 * a4 * qn,
                one - a3 * a4 * qn,
            )
            for f in factors:
                if field.is_zero(f):
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
