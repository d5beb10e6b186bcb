"""Whether two trees of latticeops give the same outputs.

Compares the tree this script sits in (the head) with a base: a git
revision of this repository, unpacked by ``git archive`` into a temporary
directory, or a directory that holds a checkout (its ``src/``).  Two kinds
of output are compared:

* Pearson jobs: the first ``--jobs`` jobs of the ``pearson-exact`` and
  ``pearson-bigfloat`` benchmark workloads for each of ``--seeds``.  For
  each job: the regularity verdict and every field of its rows, the
  moments mu_0..mu_(2N+2) or the stop level of the moment recursion, the
  closed and the oracle B_n and C_(n+1) through N, and every
  ``AdmissibilityError`` and
  ``NotRegularError`` with its level and message.  The jobs are drawn by
  the head's ``perfbench/workloads.py`` on both sides, so the inputs are
  the same; each side runs its own library.
* Lattices: ``alpha_n``, ``gamma_n``, ``s_n`` and the packed
  ``level_row`` at n in [-2, 119], 500, 2048 and 2049, and ``t_pow`` at k in
  [-130, 130] and +-2048, on the six Pearson lattices, q = (101/100)^2 and
  a q-linear lattice at q = 9/16, each on exact and on bigfloat at 128
  and 256 bits, and on q = 1/2 on bigfloat only.  A ``LatticeError`` is an
  output too.
* Operators: the images under ``dx``, ``sx``, ``dx_interp`` and
  ``sx_interp`` of z^n for n in [0, ``--degree``], and of one fixed seeded
  polynomial of each degree in [1, min(16, ``--degree``)] with mixed
  denominators, on the six Pearson lattices, the symmetric q = 1/16
  lattice and the quadratic lattice x(s) = s^2 of the identity-structure
  workload, each on exact and on bigfloat at 128 and 256 bits; a
  ``LatticeError`` is an output too.
* Functionals: the moments mu_0..mu_12 of ``dual_dx``, ``dual_sx``,
  ``left_mul`` by f3, ``+`` and ``-`` a second seeded functional, a
  scalar ``*`` and ``classical.uk_functional(pair, 2, u)``, for u a seeded
  ``checks.random_functional`` and u the README pair's Pearson
  functional, on the eight lattices of the operator section, each on
  exact and on bigfloat at 128 and 256 bits.  A moment that raises ends
  its functional's lines with the error.
* CLI commands: the README's commands and ``all --seed 0`` and
  ``--seed 1``, each on exact and on bigfloat at 128 and 256 bits; their
  stdout, stderr and exit code.

A value is compared as ``type:repr``; an mpmath value by the exact bits of
its parts, so bigfloat values compare bit for bit.  Long values are
compared by their sha256.  The script prints the count of compared items
and every difference, and exits 1 when there is one, 2 when a side's
outputs could not be computed.

    python scripts/same_outputs.py --base HEAD
    python scripts/same_outputs.py --base HEAD~1 --jobs 120 --seeds 11 21
    python scripts/same_outputs.py --base ../other-checkout --jobs 4 --max-commands 2 --degree 5
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

README_PAIR = '{"phi": ["7/10", "-1/3", "2/7"], "psi": ["1/2", "3/4"]}'
# The README's commands, cheapest first; each runs after the backend flags.
COMMANDS = (
    ["moments", "--pair", README_PAIR, "-N", "10"],
    ["family", "--name", "askey_wilson", "--params", '["1/2","-1/3","1/5","1/7"]',
     "-N", "8"],
    ["characterize", "--relation", "lower", "--family", "chebyshev_u", "-N", "8"],
    ["characterize", "--relation", "system", "--family", "q_hermite", "-N", "12"],
    ["characterize", "--relation", "meixner", "--b0", "1/3", "--c1", "2/5",
     "--lattice", '{"kind": "linear", "q": "1", "c": ["0", "1", "0"]}', "-N", "10"],
    ["characterize", "--solve-c1=-9/32", "-N", "10"],
    ["classify", "--pair", README_PAIR, "-N", "10", "--rodrigues", "3"],
    ["verify", "ops", "--trials", "20", "--seed", "7"],
    ["verify", "duals"],
    ["verify", "leibniz"],
    ["--precision", "192", "characterize", "--relation", "counterexample", "-N", "10"],
    ["all", "--seed", "0"],
    ["all", "--seed", "1"],
)
BACKENDS = (
    ["--backend", "exact"],
    ["--backend", "bigfloat", "--precision", "128"],
    ["--backend", "bigfloat", "--precision", "256"],
)
LONG = 120
# The lattices of the lattice section besides the Pearson workloads' six:
# q = (101/100)^2 and a q-linear lattice, then one with an irrational
# sqrt(q), on bigfloat only.
LATTICES = (
    {"q": "10201/10000", "c": ["1/2", "1/3", "1/5"]},
    {"q": "9/16", "c": ["0", "1", "1/3"]},
)
BIGFLOAT_LATTICES = ({"q": "1/2", "c": ["1/2", "1/2", "0"]},)
LEVELS = (*range(-2, 120), 500, 2048, 2049)  # -2 and 2049 raise LatticeError
POWERS = (*range(-130, 131), -2048, 2048)
OPERATORS = ("dx", "sx", "dx_interp", "sx_interp")
# The denominators of the operator section's seeded inputs, and their top degree.
DENOMINATORS = (1, 2, 3, 4, 6, 9, 12, 35, 64, 97)
MIXED_DEGREE = 16
# The functional section: the seeds of its two random functionals, its
# scalar and its last moment.
FUNCTIONAL_SEEDS = (5, 6)
FUNCTIONAL_SCALAR = Fraction(-7, 3)
FUNCTIONAL_MOMENTS = 12


def fail(message: str):
    """Stop with exit code 2: the outputs could not be compared."""
    print(message, file=sys.stderr)
    sys.exit(2)


def typed(v) -> str:
    """``type:repr`` of a value; an mpmath value by the exact bits of its parts."""
    bits = getattr(v, "_mpc_", None) or getattr(v, "_mpf_", None)
    return f"{type(v).__name__}:{bits if bits is not None else v!r}"


def backend_field(L, backend):
    """The field of one entry of ``BACKENDS``."""
    return L.make_field(backend[1], int(backend[3]) if backend[2:] else None)


def section_lattices():
    """The eight lattices of the operator and functional sections: the six
    Pearson lattices, and the symmetric q = 1/16 and the quadratic lattice
    x(s) = s^2 of the identity-structure workload."""
    import workloads as W

    return (*W.PEARSON_LATTICES, W.IDENTITY_LATTICES[W.SYM16], W.IDENTITY_LATTICES[W.QUADRATIC])


def line(key: str, text: str) -> str:
    """One output line, `key` tab `text`; a long text by its head and sha256."""
    if len(text) > LONG:
        text = f"{text[:60]}... sha256:{hashlib.sha256(text.encode()).hexdigest()}"
    return f"{key}\t{text}"


def pearson_lines(name: str, seed: int, count: int):
    """The outputs of the first `count` jobs of one Pearson workload, one line each."""
    import workloads as W

    workload = W.WORKLOADS[name]()
    ctx = workload.setup()
    L, field = ctx["L"], ctx["field"]
    jobs = (job for block in workload.blocks(seed) for job in block)
    for index in range(count):
        job = next(jobs)
        key = f"{name} seed {seed} job {index}"
        yield line(key + " input", json.dumps(job.params, sort_keys=True))
        for k, v in job_outputs(L, field, job.params):
            yield line(f"{key} {k}", v)


def job_outputs(L, field, params):
    """(name, type:repr) of everything one Pearson job computes."""
    n = params["N"]
    lat = L.Lattice.from_json(field, json.loads(params["lattice"]))
    pair = L.PearsonPair.from_json(lat, json.loads(params["pair"]))
    rep = L.regularity(pair, n)
    yield "verdict", typed(rep.verdict)
    for i, row in enumerate(rep.rows):
        for f in dataclasses.fields(row):
            yield f"row {i} {f.name}", typed(getattr(row, f.name))
    u = pair.moments()
    try:
        for k, v in enumerate(u.moments(2 * n + 2)):
            yield f"mu_{k}", typed(v)
    except L.AdmissibilityError as exc:
        yield "moments", f"{typed(exc.n)} {typed(exc)}"
    closed = L.ttrr_from_pearson(pair)
    try:
        oracle = L.ttrr_oracle(u, n)
    except (L.AdmissibilityError, L.NotRegularError) as exc:
        oracle = None
        yield "oracle", f"{typed(getattr(exc, 'level', getattr(exc, 'n', None)))} {typed(exc)}"
    for route, ttrr in (("closed", closed), ("oracle", oracle)):
        if ttrr is None:
            continue
        try:
            for k in range(n + 1):
                yield f"{route} B_{k}", typed(ttrr.b(k))
                yield f"{route} C_{k + 1}", typed(ttrr.c(k + 1))
        except L.AdmissibilityError as exc:
            yield f"{route} stop", f"{typed(exc.n)} {typed(exc)}"


def lattice_lines(L):
    """The sequences, level rows and powers of t of each lattice, one line each."""
    import workloads as W

    for backend in BACKENDS:
        field = backend_field(L, backend)
        extra = BIGFLOAT_LATTICES if field.name == "bigfloat" else ()
        for spec in (*W.PEARSON_LATTICES, *LATTICES, *extra):
            lat = L.Lattice.from_json(field, spec)
            key = f"lattice {' '.join(backend)} {json.dumps(spec)}"
            for name in ("alpha_n", "gamma_n", "s_n", "level_row"):
                sequence = getattr(lat.constants, name)
                for n in LEVELS:
                    yield line(f"{key} {name}({n})", sequence_value(L, sequence, n))
            for k in POWERS:
                yield line(f"{key} t_pow({k})", typed(lat.t_pow(k)))


def sequence_value(L, sequence, n) -> str:
    """type:repr of sequence(n): of each value and the denominator of a packed
    row, or of the ``LatticeError`` it raises."""
    try:
        v = sequence(n)
    except L.LatticeError as exc:
        return typed(exc)
    if isinstance(v, tuple):
        return " ".join(typed(x) for x in (*v[0], v[1]))
    return typed(v)


def mixed_inputs(degree: int) -> dict:
    """One polynomial of each degree n in [1, min(16, `degree`)], by name
    ``f<n>``: coefficients p/d with |p| < 100 and d from ``DENOMINATORS``,
    drawn from a generator seeded with n, and a nonzero top one."""
    inputs = {}
    for n in range(1, min(MIXED_DEGREE, degree) + 1):
        rng = random.Random(n)
        coeffs = [Fraction(rng.randint(-99, 99), rng.choice(DENOMINATORS)) for _ in range(n)]
        inputs[f"f{n}"] = [*coeffs, Fraction(rng.randint(1, 99), rng.choice(DENOMINATORS))]
    return inputs


def operator_lines(L, degree: int):
    """The image of each z^n, n <= `degree`, and of each seeded input under
    each operator, one line each."""
    specs = section_lattices()
    mixed = mixed_inputs(degree)
    for backend in BACKENDS:
        field = backend_field(L, backend)
        inputs = {**{f"z^{n}": L.Polynomial.monomial(field, n) for n in range(degree + 1)},
                  **{name: L.Polynomial(field, c) for name, c in mixed.items()}}
        for spec in specs:
            lat = L.Lattice.from_json(field, spec)
            key = f"operator {' '.join(backend)} {json.dumps(spec)}"
            for label, f in inputs.items():
                for name in OPERATORS:
                    try:
                        text = " ".join(typed(x) for x in getattr(L.operators, name)(lat, f).coeffs)
                    except L.LatticeError as exc:
                        text = typed(exc)
                    yield line(f"{key} {name}({label})", text)


def derived_functionals(L, pair, u, w, f):
    """(name, functional) of each functional the section derives from u."""
    lat = pair.lattice
    yield "dual_dx", L.dual_dx(lat, u)
    yield "dual_sx", L.dual_sx(lat, u)
    yield "left_mul f3", L.left_mul(u, f)
    yield "+", u + w
    yield "-", u - w
    yield "*", FUNCTIONAL_SCALAR * u
    yield "u^[2]", L.classical.uk_functional(pair, 2, u)


def functional_lines(L):
    """Moments 0..12 of each derived functional of two bases on each of the
    eight section lattices, one line each."""
    import latticeops.checks as checks

    errors = (L.AdmissibilityError, L.LatticeError, L.functionals.InternalCheckError)
    for backend in BACKENDS:
        field = backend_field(L, backend)
        f = L.Polynomial(field, mixed_inputs(3)["f3"])
        for spec in section_lattices():
            pair = L.PearsonPair.from_json(L.Lattice.from_json(field, spec), json.loads(README_PAIR))
            bases = {"random": checks.random_functional(field, FUNCTIONAL_SEEDS[0]),
                     "readme": pair.moments()}
            w = checks.random_functional(field, FUNCTIONAL_SEEDS[1])
            for base, u in bases.items():
                for name, v in derived_functionals(L, pair, u, w, f):
                    key = f"functional {' '.join(backend)} {json.dumps(spec)} {base} {name}"
                    for k in range(FUNCTIONAL_MOMENTS + 1):
                        try:
                            text = typed(v.moment(k))
                        except errors as exc:
                            yield line(f"{key} mu_{k}", typed(exc))
                            break
                        yield line(f"{key} mu_{k}", text)


def cli_lines(tree: Path, max_commands: int):
    """stdout, stderr and exit code of each CLI command on each backend."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for backend in BACKENDS:
        for command in COMMANDS[:max_commands]:
            argv = [*backend, *command]
            proc = subprocess.run([sys.executable, "-m", "latticeops.cli", *argv],
                                  env=env, capture_output=True, text=True, timeout=600)
            key = "cli " + " ".join(argv)
            yield line(key + " exit", typed(proc.returncode))
            yield line(key + " stdout", typed(proc.stdout))
            yield line(key + " stderr", typed(proc.stderr))


def dump(args) -> None:
    """Print every output line of the library under ``args.dump``."""
    import latticeops  # before the workloads, which would import the head's

    src = Path(args.dump) / "src"
    if Path(latticeops.__file__).resolve().parent != (src / "latticeops").resolve():
        fail(f"latticeops was not imported from {src}")
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.set_int_max_str_digits(0)  # the level rows at n = 2048 run past 4300 digits
    for name in ("pearson-exact", "pearson-bigfloat"):
        for seed in args.seeds:
            for text in pearson_lines(name, seed, args.jobs):
                print(text)
    for text in lattice_lines(latticeops):
        print(text)
    for text in operator_lines(latticeops, args.degree):
        print(text)
    for text in functional_lines(latticeops):
        print(text)
    for text in cli_lines(Path(args.dump), args.max_commands):
        print(text)


def outputs(tree: Path, args) -> list:
    """The output lines of the library under `tree`, from a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, str(Path(__file__).resolve()), "--dump", str(tree),
            "--jobs", str(args.jobs), "--max-commands", str(args.max_commands),
            "--degree", str(args.degree),
            "--seeds", *map(str, args.seeds)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode:
        fail(f"the outputs of {tree} could not be computed:\n{proc.stderr}")
    return proc.stdout.splitlines()


def keyed_outputs(tree: Path, args) -> dict:
    """The outputs of the library under `tree`, by key."""
    return dict(text.split("\t", 1) for text in outputs(tree, args))


def differing(old: dict, new: dict):
    """Every key of `new` and then of `old` alone, and those whose outputs differ."""
    keys = [*new, *(k for k in old if k not in new)]
    return keys, [k for k in keys if old.get(k) != new.get(k)]


def compare(base: Path, args) -> int:
    """Print the differences between the outputs of `base` and the head; 1 if any."""
    old, new = (keyed_outputs(tree, args) for tree in (base, ROOT))
    keys, diffs = differing(old, new)
    for k in diffs:
        print(f"{k}\n  base: {old.get(k, '(missing)')}\n  head: {new.get(k, '(missing)')}")
    print(f"{len(keys)} outputs compared, {len(diffs)} differ")
    return 1 if diffs else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="a git revision of this repository, or a checkout")
    parser.add_argument("--jobs", type=int, default=120,
                        help="Pearson jobs per workload and seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--max-commands", type=int, default=len(COMMANDS),
                        help="run only the first M CLI commands on each backend")
    parser.add_argument("--degree", type=int, default=41,
                        help="compare the operator images of z^n for n <= D")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        dump(args)
        return 0
    if args.base is None:
        parser.error("--base is required")
    if Path(args.base).is_dir():
        return compare(Path(args.base).resolve(), args)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src"],
                                 capture_output=True)
        if archive.returncode:
            fail(f"no tree at {args.base}: {archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        return compare(Path(tmp), args)


if __name__ == "__main__":
    sys.exit(main())
