"""The benchmark's workloads: seeded inputs, the timed job, the known answer.

A workload turns a seed into a stream of blocks of jobs.  Generation and
reference answers happen here, outside the timed region; ``run`` is the only
part that is timed.  Every library call goes through an attribute lookup on
the ``latticeops`` package (``L.regularity``, never a name imported into this
module), so the traced run's wrappers see every call.

Blocks keep runs comparable across seeds: a block holds the same mix of job
sizes and kinds whatever the seed, so a run of several blocks has that mix
too.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

BIGFLOAT_BITS = 256

# The six exact lattices of the Pearson workloads: every sqrt(q) is rational.
PEARSON_LATTICES = (
    {"q": "1/4", "c": ["1/2", "1/2", "0"]},
    {"q": "4", "c": ["1/2", "1/3", "1/5"]},
    {"q": "1/9", "c": ["1/2", "1/2", "0"]},
    {"q": "25/4", "c": ["1/3", "1/2", "1/7"]},
    {"q": "1", "c": ["2", "1/3", "-1/4"]},
    {"q": "1", "c": ["0", "1", "0"]},
)

# The four lattices of the CLI battery, then the symmetric q = 1/16 lattice
# on which the four-term counterexample is exact.
IDENTITY_LATTICES = (
    {"q": "1/4", "c": ["1/2", "1/2", "0"]},
    {"q": "4", "c": ["1/2", "1/3", "1/5"]},
    {"q": "1", "c": ["1", "0", "0"]},
    {"q": "1", "c": ["0", "1", "0"]},
    {"q": "1/16", "c": ["1/2", "1/2", "0"]},
)
SYM, OFFSET, QUADRATIC, LINEAR, SYM16 = range(5)


@dataclass
class Job:
    kind: str
    params: dict
    # Filled in outside the timed region by Workload.prepare, when needed.
    reference: object = None


@dataclass
class Outcome:
    """What one job returned, or the exception it raised."""

    value: object = None
    error: Optional[BaseException] = None


def import_library():
    """Put the checkout's ``src`` first on the path and import latticeops."""
    if not os.path.isdir(os.path.join(SRC, "latticeops")):
        raise FileNotFoundError(f"no latticeops package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import latticeops

    return latticeops


def _rat(rng: random.Random, nonzero: bool = False, positive: bool = False) -> Fraction:
    lo = 1 if positive else -9
    num = rng.choice([k for k in range(lo, 10) if k or not (nonzero or positive)])
    return Fraction(num, rng.randint(1, 9))


def _third(rng: random.Random, positive: bool = False) -> Fraction:
    """k/3 with 0 < |k| < 9 and 3 not dividing k.

    The coefficients' denominators set how fast the moments' bit sizes grow,
    so with one shared denominator a Pearson job's time depends on its
    lattice and N, not on the seed.
    """
    k = rng.choice((1, 2, 4, 5, 7, 8))
    return Fraction(k if positive or rng.random() < 0.5 else -k, 3)


def _strs(values) -> List[str]:
    return [str(v) for v in values]


class Workload:
    name = ""
    # True when the shared state of ``setup`` fills caches that should be
    # warm before timing starts.
    warm = False

    def setup(self):
        """What a fresh process needs before its first job (timed as setup_s)."""
        raise NotImplementedError

    def blocks(self, seed: int) -> Iterator[List[Job]]:
        raise NotImplementedError

    def prepare(self, ctx, job: Job) -> None:
        """Compute a reference answer outside the timed region."""

    def run(self, ctx, job: Job):
        raise NotImplementedError

    def check(self, job: Job, outcome: Outcome) -> bool:
        raise NotImplementedError


# --------------------------------------------------------------------------
# Pearson pairs: regularity, moments, closed TTRR, moment oracle


def pearson_slots(n_lo: int, n_hi: int) -> List[tuple]:
    """The (lattice index, N, kind) slots of one round, in run order.

    Lattice i at step k runs at N = n_lo + (k + i/5) (n_hi - n_lo)/6: six
    values of N per lattice, each lattice shifted by a sixth of a step, so
    the round's job times lie densely between the smallest and the largest.
    The round runs as six rows; row c pairs lattice i with step (i + c) mod 6,
    so each row holds every lattice and every step once, and a run that
    stops partway through a round has sampled lattices and N alike.  Lattice
    c gets the row's one pair made non-regular on purpose: by a zero of the
    admissibility sequence d_n for even c, by a zero witness at level 0 for
    odd c.
    """
    count = len(PEARSON_LATTICES)
    width = (n_hi - n_lo) / count
    slots = []
    for c in (0, 3, 1, 4, 2, 5):
        for li in range(count):
            step = (li + c) % count
            n = n_lo + round(width * (step + li / (count - 1)))
            if li != c:
                kind = "regular"
            else:
                kind = "admissibility" if c % 2 == 0 else "witness"
            slots.append((li, n, kind))
    return slots


def pearson_inputs(seed: int, n_lo: int, n_hi: int) -> Iterator[List[Job]]:
    """Rounds of Pearson jobs over the same slots whatever the seed.

    Job time grows about as N^4.4 and differs threefold between lattices,
    so the seed draws only the coefficients (see ``_third``).
    """
    L = import_library()
    exact = L.make_field("exact")
    rng = random.Random(seed)
    lattices = [L.Lattice.from_json(exact, spec) for spec in PEARSON_LATTICES]
    slots = pearson_slots(n_lo, n_hi)
    while True:
        block = []
        for li, n, kind in slots:
            phi, psi = _pearson_pair(L, lattices[li], kind, n, rng)
            block.append(Job(kind, {
                "lattice": json.dumps(PEARSON_LATTICES[li]),
                "pair": json.dumps({"phi": _strs(phi), "psi": _strs(psi)}),
                "N": n,
            }))
        yield block


def _pearson_pair(L, lat, kind: str, n: int, rng: random.Random):
    """Coefficients (c, b, a) of phi and (e, d) of psi for one job."""
    exact = lat.field
    while True:
        # a and d of one sign keep d_n = a gamma_n + d alpha_n away from zero
        # on every lattice here.
        a, d = _third(rng, positive=True), _third(rng, positive=True)
        if rng.random() < 0.5:
            a, d = -a, -d
        b, c, e = _third(rng), _third(rng), _third(rng)
        if kind == "admissibility":
            n0 = rng.randint(1, 2 * n + 1)
            con = lat.constants
            return (c, b, a), (e, -a * _fraction(exact, con.gamma_n(n0) / con.alpha_n(n0)))
        probe = L.PearsonPair(lat, L.Polynomial(exact, (c, b, a)), L.Polynomial(exact, (e, d)))
        w0 = _fraction(exact, L.witness_point(probe, 0))
        if kind == "witness":
            return (-(a * w0 + b) * w0, b, a), (e, d)
        # Coefficients on a coarse grid hit a zero witness at level 0 now and
        # then; such a draw is not a regular pair, so draw again.
        if (a * w0 + b) * w0 + c != 0:
            return (c, b, a), (e, d)


def _fraction(field, value) -> Fraction:
    """An exact scalar as a Fraction, through the field's public JSON form."""
    obj = field.to_json(value)
    if isinstance(obj, list):
        raise ValueError(f"expected a real scalar, got {obj!r}")
    return Fraction(obj)


def _regular_level(report) -> Optional[int]:
    """The level at which the closed route says the moment route must stop.

    A zero of d_(n0) leaves moment n0+1 undefined; a zero witness at level n
    makes C_(n+1) = 0, so the oracle stops at level n+1.  None means regular.
    """
    if report.admissibility_first_zero is not None:
        return report.admissibility_first_zero
    if report.witness_first_zero is not None:
        return report.witness_first_zero + 1
    return None


class PearsonWorkload(Workload):
    """One job: lattice from JSON, regularity, moments, closed TTRR, oracle."""

    def __init__(self, name: str, backend: str, n_lo: int, n_hi: int):
        self.name = name
        self.backend = backend
        self.n_lo = n_lo
        self.n_hi = n_hi

    def setup(self):
        L = import_library()
        if self.backend == "exact":
            fld = L.make_field("exact")
        else:
            fld = L.make_field("bigfloat", precision=BIGFLOAT_BITS)
        return {"L": L, "field": fld}

    def blocks(self, seed: int) -> Iterator[List[Job]]:
        return pearson_inputs(seed, self.n_lo, self.n_hi)

    def prepare(self, ctx, job: Job) -> None:
        if self.backend == "exact" or job.reference is not None:
            return
        # The exact verdict for the same input is the known answer.
        L = ctx["L"]
        exact = L.make_field("exact")
        lat = L.Lattice.from_json(exact, json.loads(job.params["lattice"]))
        pair = L.PearsonPair.from_json(lat, json.loads(job.params["pair"]))
        rep = L.regularity(pair, job.params["N"])
        job.reference = (rep.verdict, _regular_level(rep))

    def run(self, ctx, job: Job):
        L, fld = ctx["L"], ctx["field"]
        n = job.params["N"]
        lat = L.Lattice.from_json(fld, json.loads(job.params["lattice"]))
        pair = L.PearsonPair.from_json(lat, json.loads(job.params["pair"]))
        rep = L.regularity(pair, n)
        u = pair.moments()
        stop = None
        try:
            u.moments(2 * n + 2)
        except L.AdmissibilityError as exc:
            stop = exc.n
        closed = L.ttrr_from_pearson(pair)
        bs, cs = [], []
        try:
            for k in range(n + 1):
                bs.append(closed.b(k))
                cs.append(closed.c(k + 1))
        except L.AdmissibilityError:
            if rep.regular:
                raise
        oracle = None
        if stop is None:
            try:
                oracle = L.ttrr_oracle(u, n)
            except L.NotRegularError as exc:
                stop = exc.level
        return {
            "verdict": rep.verdict,
            "level": _regular_level(rep),
            "closed": (bs, cs),
            "oracle": oracle,
            "stop": stop,
            "field": fld,
        }

    def check(self, job: Job, outcome: Outcome) -> bool:
        if outcome.error is not None:
            return False
        got = outcome.value
        if self.backend == "exact":
            verdict, level = got["verdict"], got["level"]
        else:
            verdict, level = job.reference
            if got["verdict"] != verdict:
                return False
        if level is not None:
            return got["stop"] is not None and got["stop"] <= level
        oracle = got["oracle"]
        if oracle is None:
            return False
        bs, cs = got["closed"]
        if len(bs) != job.params["N"] + 1:
            return False
        same = operator.eq if self.backend == "exact" else got["field"].approx_eq
        return all(same(oracle.b(k), bs[k]) and same(oracle.c(k + 1), cs[k])
                   for k in range(len(bs)))


# --------------------------------------------------------------------------
# Operator calculus, duals, Rodrigues and structure relations


# Structure relations with printed answers, one per block in turn.
STRUCTURE_CASES = (
    "q_hermite-lower",
    "q_hermite-system",
    "chebyshev_u-lower",
    "chebyshev_u-system",
    "meixner-linear",
    "meixner-quadratic",
    "counterexample4term",
)

# One block: the kinds and how often each appears.
IDENTITY_MIX = (
    ("operator", 4),
    ("interp", 3),
    ("dual", 2),
    ("rodrigues", 1),
    ("structure", 1),
)


def _poly_spec(rng: random.Random, degree: int) -> List[str]:
    coeffs = [_rat(rng) for _ in range(degree)]
    coeffs.append(_rat(rng, nonzero=True))
    return _strs(coeffs)


def identity_inputs(seed: int) -> Iterator[List[Job]]:
    rng = random.Random(seed)
    block_no = 0
    operator_ids = ("product_dx", "product_sx", "swap_sx", "swap_dx", "dxn_sx")
    dual_ids = ("dual_product_dx", "dual_product_sx", "dual_dxn_sx", "leibniz",
                "leibniz_deg2")
    while True:
        block = []
        for kind, count in IDENTITY_MIX:
            for _ in range(count):
                lat = rng.randrange(len(IDENTITY_LATTICES))
                if kind == "operator":
                    p = {"lat": lat, "identity": rng.choice(operator_ids),
                         "f": _poly_spec(rng, rng.randint(0, 12)),
                         "g": _poly_spec(rng, rng.randint(0, 12)),
                         "n": rng.randint(1, 3)}
                elif kind == "interp":
                    p = {"lat": lat, "f": _poly_spec(rng, rng.randint(1, 16))}
                elif kind == "dual":
                    identity = rng.choice(dual_ids)
                    if identity == "leibniz_deg2":
                        lat = rng.choice((SYM, OFFSET, SYM16))
                        f = _poly_spec(rng, 2)
                    else:
                        f = _poly_spec(rng, rng.randint(0, 4))
                    p = {"lat": lat, "identity": identity, "f": f,
                         "n": rng.randint(1, 3), "moments_seed": rng.randrange(10**9)}
                elif kind == "rodrigues":
                    a = _rat(rng, positive=True)
                    d = _rat(rng, positive=True)
                    if rng.random() < 0.5:
                        a, d = -a, -d
                    p = {"lat": lat, "phi": _strs((_rat(rng), _rat(rng), a)),
                         "psi": _strs((_rat(rng), d)), "n": rng.randint(1, 3)}
                else:
                    p = {"case": STRUCTURE_CASES[block_no % len(STRUCTURE_CASES)],
                         "N": rng.randint(8, 20),
                         "b0": str(_rat(rng, nonzero=True)),
                         "c1": str(_meixner_c1(rng))}
                block.append(Job(kind, p))
        rng.shuffle(block)
        yield block
        block_no += 1


def _meixner_c1(rng: random.Random) -> Fraction:
    """A C_1 > 0 meeting the Meixner image's condition: 4 C_1 not an integer."""
    while True:
        c1 = Fraction(rng.randint(1, 9), rng.choice((3, 5, 7, 9)))
        if (4 * c1).denominator != 1:
            return c1


def _random_functional(L, fld, seed: int):
    def ext(k: int):
        rr = random.Random(f"{seed}:{k}")
        return fld(Fraction(rr.randint(-9, 9), rr.randint(1, 9)))

    return L.MomentFunctional(fld, extender=ext)


class IdentityWorkload(Workload):
    """Many small jobs on shared lattices whose caches stay warm."""

    name = "identity-structure"
    warm = True

    def setup(self):
        L = import_library()
        fld = L.make_field("exact")
        lats = [L.Lattice.from_json(fld, spec) for spec in IDENTITY_LATTICES]
        return {"L": L, "field": fld, "lattices": lats}

    def blocks(self, seed: int) -> Iterator[List[Job]]:
        return identity_inputs(seed)

    def run(self, ctx, job: Job):
        L, fld, lats = ctx["L"], ctx["field"], ctx["lattices"]
        p = job.params
        poly = lambda spec: L.Polynomial.from_json(fld, spec)  # noqa: E731
        if job.kind == "operator":
            rep = L.verify_operator_identity(lats[p["lat"]], p["identity"], poly(p["f"]),
                                             poly(p["g"]), n=p["n"])
            return rep.passed and rep.residual == 0
        if job.kind == "interp":
            lat, f = lats[p["lat"]], poly(p["f"])
            return (L.dx(lat, f) == L.operators.dx_interp(lat, f)
                    and L.sx(lat, f) == L.operators.sx_interp(lat, f))
        if job.kind == "dual":
            u = _random_functional(L, fld, p["moments_seed"])
            rep = L.verify_functional_identity(lats[p["lat"]], p["identity"], poly(p["f"]),
                                               u, n=p["n"], horizon=10)
            return rep.passed and rep.residual == 0
        if job.kind == "rodrigues":
            pair = L.PearsonPair(lats[p["lat"]], poly(p["phi"]), poly(p["psi"]))
            rep = L.rodrigues_verify(pair, p["n"], horizon=10)
            return rep.passed and rep.residual == 0
        return self._structure(L, fld, lats, p)

    @staticmethod
    def _structure(L, fld, lats, p) -> bool:
        case, n = p["case"], p["N"]
        if case == "counterexample4term":
            return L.check_structure(lats[SYM16], None, case, n).passed
        if case.startswith("meixner"):
            b0, c1 = fld(Fraction(p["b0"])), fld(Fraction(p["c1"]))
            if case == "meixner-linear":
                return L.check_meixner_linear(lats[LINEAR], b0, c1, n).passed
            rep = L.check_meixner_linear(lats[QUADRATIC], b0, c1, n)
            return rep.first_fail is not None and rep.first_fail <= 3
        family, relation = case.split("-")
        sym = lats[SYM]
        spec = L.make_family(family, sym, ())
        if relation == "system":
            return L.check_system(sym, spec.ttrr, n).passed
        rep = L.check_structure(sym, L.OPSequence(fld, spec.ttrr), "lower", n)
        if family == "q_hermite":
            return rep.passed
        return rep.first_fail == 2

    def check(self, job: Job, outcome: Outcome) -> bool:
        return outcome.error is None and outcome.value is True


# --------------------------------------------------------------------------
# The whole CLI battery, one process per job


def cli_inputs(seed: int) -> Iterator[List[Job]]:
    rng = random.Random(seed)
    while True:
        yield [Job("cli", {"seed": rng.randrange(10**6)})]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliWorkload(Workload):
    """``python -m latticeops.cli all --seed k``, one subprocess at a time."""

    name = "cli-all"

    def __init__(self, in_process: bool = False):
        # The traced run calls cli.main in this process: a subprocess cannot
        # be traced from here.
        self.in_process = in_process

    def setup(self):
        L = import_library()
        import latticeops.cli

        return {"L": L, "cli": latticeops.cli, "env": cli_env()}

    def blocks(self, seed: int) -> Iterator[List[Job]]:
        return cli_inputs(seed)

    def run(self, ctx, job: Job):
        argv = ["all", "--seed", str(job.params["seed"])]
        if self.in_process:
            return run_cli_in_process(ctx["cli"], argv)
        proc = subprocess.run(
            [sys.executable, "-m", "latticeops.cli", *argv],
            cwd=ROOT, env=ctx["env"], capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, job: Job, outcome: Outcome) -> bool:
        if outcome.error is not None:
            return False
        return cli_passed(*outcome.value)


def run_cli_in_process(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_passed(code: int, stdout: str) -> bool:
    if code != 0:
        return False
    try:
        body = json.loads(stdout)
    except ValueError:
        return False
    if not isinstance(body, dict) or not isinstance(body.get("checks"), list):
        return False
    return body.get("passed") is True and all(
        isinstance(c, dict) and c.get("passed") is True for c in body["checks"])


WORKLOADS = {
    "pearson-exact": lambda: PearsonWorkload("pearson-exact", "exact", 8, 28),
    "pearson-bigfloat": lambda: PearsonWorkload("pearson-bigfloat", "bigfloat", 8, 40),
    "identity-structure": IdentityWorkload,
    "cli-all": CliWorkload,
}
