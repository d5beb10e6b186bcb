"""Command line front end.

Subcommands map onto the library layers:

* ``verify``        random-trial checks of the operator and functional identities
* ``moments``       moment table of the functional solving a Pearson equation
* ``classify``      regularity decision (plus Rodrigues / asymptotics add-ons)
* ``family``        displayed recurrence data for the named family
* ``characterize``  structure-relation checks and the raising construction;
  every relation prints its ``Report`` under ``"relation"``, and
  ``system`` adds the fitted constants ``k1``, ``k2``; ``--solve`` prints
  the TTRR a relation forces from ``--b0``, ``--c1`` (exact only)
* ``all``           the named checks of ``checks.CHECKS``, each at its acceptance size

Exit codes: 0 all checks passed, 1 a check failed (an internal
cross-check included), 2 invalid input (a pair whose functional is not
admissible or not regular where the command needs one included).  Errors
are one line on stderr.

Lattice specs are JSON, inline or a file path (text that parses as JSON,
or that starts with ``{``, is read inline):
``{"kind": "q-quadratic", "q": "1/4", "c": ["1/2", "1/2", "0"]}``;
Pearson pairs are ``{"phi": [...], "psi": [...]}`` with coefficient
arrays listed lowest degree first.  Scalars accept "p/q" strings,
``[re, im]`` pairs, or bigfloat value objects.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from typing import List, Optional

from . import checks, families
from .characterize import (
    check_meixner_linear,
    check_structure,
    check_system,
    solve_first_characterization,
    solve_relation,
    system_constants,
)
from .classical import (
    InternalCheckError,
    PearsonPair,
    asymptotics,
    regularity,
    rodrigues_verify,
)
# ttrr_oracle is not called here; it stays bound because perfbench traces
# every lookup site of it and its tests read it from this module
from .functionals import (
    AdmissibilityError,
    HorizonError,
    NotRegularError,
    OPSequence,
    ttrr_oracle,
    verify_functional_identity,
)
from .lattice import Lattice
from .operators import OPERATOR_IDENTITIES, verify_operator_identity
from .scalars import ScalarDomainError, _parse_fraction, make_field

DEFAULT_LATTICE = {"kind": "q-quadratic", "q": "1/4", "c": ["1/2", "1/2", "0"]}

VERIFY_GROUPS = {
    "ops": OPERATOR_IDENTITIES,
    "duals": ("dual_product_dx", "dual_product_sx", "dual_dxn_sx"),
    "leibniz": ("leibniz", "leibniz_deg2"),
}


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``CliError``, so ``main`` prints them as one line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(message)


def _load_spec(raw: Optional[str], default=None):
    if raw is None:
        if default is None:
            raise CliError("a JSON spec is required here")
        return default
    text = raw.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if text.startswith("{"):
            raise CliError(f"invalid JSON spec: {exc}") from exc
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return json.loads(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read spec file {raw!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON spec: {exc}") from exc


def _field_from_args(args):
    return make_field(args.backend, precision=args.precision,
                      eps=None if args.eps is None else _parse_fraction(args.eps))


def _lattice_from_args(args, field) -> Lattice:
    spec = _load_spec(getattr(args, "lattice", None), default=DEFAULT_LATTICE)
    return Lattice.from_json(field, spec)


def _pair_from_args(args, lat: Lattice) -> PearsonPair:
    spec = _load_spec(args.pair)
    return PearsonPair.from_json(lat, spec)


def _params_from_args(args, field) -> tuple:
    params = json.loads(args.params)
    if not isinstance(params, list):
        raise CliError("--params must be a JSON array")
    return tuple(field.from_json(p) for p in params)


def _emit(args, payload, passed: bool, csv_rows=None, csv_header=None) -> int:
    """Write the payload as JSON (or the csv rows); return the exit code for `passed`."""
    if args.format == "csv":
        if csv_rows is None:
            raise CliError("csv output is not defined for this command")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output file {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def cmd_verify(args) -> int:
    if args.trials < 0:
        raise CliError(f"--trials must be >= 0, got {args.trials}")
    if args.max_degree < 1:
        raise CliError(f"--max-degree must be >= 1, got {args.max_degree}")
    field = _field_from_args(args)
    rng = random.Random(args.seed)
    if args.lattice is not None:
        lattices = [_lattice_from_args(args, field)]
    else:
        lattices = checks.reference_lattices(field)
    identities = VERIFY_GROUPS[args.group]
    results = []
    worst = 0.0
    ok = True
    for lat in lattices:
        for identity in identities:
            if identity == "leibniz_deg2" and not lat.is_q_lattice:
                continue
            for _ in range(args.trials):
                f = checks.random_poly(field, rng, args.max_degree,
                                       degree=2 if identity == "leibniz_deg2" else None)
                n = rng.randint(1, 4)
                if args.group == "ops":
                    g = checks.random_poly(field, rng, args.max_degree)
                    rep = verify_operator_identity(lat, identity, f, g, n=n)
                else:
                    u = checks.random_functional(field, rng.randint(0, 10**9))
                    rep = verify_functional_identity(
                        lat, identity, f, u, n=min(n, 3), horizon=args.horizon)
                worst = max(worst, rep.residual)
                ok = ok and rep.passed
                results.append({
                    "lattice": lat.to_json(),
                    "identity": identity,
                    "residual": rep.residual,
                    "passed": rep.passed,
                })
    payload = {
        "group": args.group,
        "trials": args.trials,
        "max_degree": args.max_degree,
        "seed": args.seed,
        "worst_residual": worst,
        "passed": ok,
        "results": results,
    }
    return _emit(args, payload, ok)


def cmd_moments(args) -> int:
    field = _field_from_args(args)
    lat = _lattice_from_args(args, field)
    pair = _pair_from_args(args, lat)
    u = pair.moments()
    values = u.moments(args.n_max)
    payload = {
        "lattice": lat.to_json(),
        "pair": pair.to_json(),
        "moments": [field.to_json(v) for v in values],
    }
    rows = [(n, field.to_str(v)) for n, v in enumerate(values)]
    return _emit(args, payload, True, csv_rows=rows, csv_header=("n", "moment"))


def cmd_classify(args) -> int:
    field = _field_from_args(args)
    lat = _lattice_from_args(args, field)
    pair = _pair_from_args(args, lat)
    report = regularity(pair, args.n_max)
    payload = {
        "lattice": lat.to_json(),
        "pair": pair.to_json(),
        "regularity": report.to_json(field),
    }
    ok = report.regular
    if args.rodrigues is not None:
        rod = rodrigues_verify(pair, args.rodrigues, horizon=args.horizon)
        payload["rodrigues"] = rod.to_json()
        ok = ok and rod.passed
    if args.asymptotics is not None:
        payload["asymptotics"] = asymptotics(pair, args.asymptotics).to_json(field)
    return _emit(args, payload, ok)


def cmd_family(args) -> int:
    field = _field_from_args(args)
    lat = _lattice_from_args(args, field)
    params = _params_from_args(args, field)
    spec = families.make_family(args.name, lat, params)
    restr = families.check_restrictions(spec, args.n_max)
    payload = {
        "family": args.name,
        "lattice": lat.to_json(),
        "params": [field.to_json(p) for p in params],
        "restrictions": restr.to_json(),
        "ttrr": spec.ttrr.to_json(args.n_max),
    }
    rows = [
        (n, field.to_str(b), field.to_str(c))
        for n, b, c in spec.ttrr.rows(args.n_max)
    ]
    return _emit(args, payload, restr.ok, csv_rows=rows, csv_header=("n", "b", "c"))


def cmd_characterize(args) -> int:
    field = _field_from_args(args)
    lat = _lattice_from_args(args, field)
    if args.solve_c1 is not None:
        fc = solve_first_characterization(lat, _parse_fraction(args.solve_c1),
                                          branch=args.branch)
        seq = OPSequence(field, fc.ttrr)
        rep = check_structure(lat, seq, "sx_raise", args.n_max)
        # no regular family satisfies sx_raise past slot 3 (solve_relation), so
        # the exit code comes from the construction's own check instead:
        # closed-form C_m against the recurrence
        closed = field.report(
            "closed_form_c",
            (([fc.ttrr.c(m)], [fc.c_closed(m)]) for m in range(1, args.n_max + 2)),
        )
        payload = {
            "construction": {
                "c1": field.to_json(fc.c1),
                "branch": fc.branch,
                "r": field.to_json(fc.r),
                "kappa": field.to_json(fc.kappa),
                "excluded_index": fc.excluded_index,
            },
            "pair": fc.pair.to_json(),
            "ttrr": fc.ttrr.to_json(args.n_max),
            "closed_form_residual": closed.residual,
            "relation": rep.to_json(),
        }
        return _emit(args, payload, closed.passed)
    relation = args.relation
    if relation is None:
        raise CliError("characterize needs --relation or --solve-c1")
    if args.solve and relation not in ("sx_raise", "lower"):
        raise CliError("--solve needs --relation sx_raise or lower")
    if relation == "counterexample":
        try:
            rep = check_structure(lat, None, "counterexample4term", args.n_max)
        except ScalarDomainError as exc:
            raise CliError(
                "the exact backend needs q to be a fourth power of a "
                "rational (try q=1/16, or use --backend bigfloat)") from exc
        payload = {"lattice": lat.to_json()}
    elif relation == "meixner" or args.solve:
        b0 = field.from_json(args.b0)
        c1 = field.from_json(args.c1)
        payload = {"lattice": lat.to_json(), "b0": field.to_json(b0), "c1": field.to_json(c1)}
        if relation == "meixner":
            rep = check_meixner_linear(lat, b0, c1, args.n_max)
        else:
            sol = solve_relation(lat, relation, b0, c1, args.n_max)
            payload["solution"] = {
                "relation": relation, "first_fail": sol.first_fail,
                "failing_degree": sol.failing_degree,
                "residual": None if sol.residual is None else field.to_json(sol.residual),
                "ttrr": sol.ttrr.to_json(args.n_max if sol.first_fail is None else sol.first_fail)}
            return _emit(args, payload, sol.first_fail is None)
    else:
        if args.family is None:
            raise CliError(f"--relation {relation} needs --family")
        spec = families.make_family(args.family, lat, _params_from_args(args, field))
        payload = {"family": args.family, "lattice": lat.to_json()}
        if relation == "system":
            rep = check_system(lat, spec.ttrr, args.n_max)
            k1, k2 = system_constants(lat, spec.ttrr)
            payload.update(k1=field.to_json(k1), k2=field.to_json(k2))
        else:
            rep = check_structure(lat, OPSequence(field, spec.ttrr), relation, args.n_max)
    payload["relation"] = rep.to_json()
    return _emit(args, payload, rep.passed)


def cmd_all(args) -> int:
    records = [checks.run(name, args.seed) for name, _ in checks.CHECKS]
    passed = all(r["passed"] for r in records)
    return _emit(args, {"checks": records, "passed": passed, "seed": args.seed}, passed)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latticeops",
        description="verification kernel for orthogonal polynomials on "
                    "quadratic and q-quadratic lattices",
    )
    parser.add_argument("--backend", choices=("exact", "bigfloat"), default="exact")
    parser.add_argument("--precision", type=int, default=None,
                        help="bigfloat precision in bits")
    parser.add_argument("--eps", default=None,
                        help="bigfloat zero threshold, e.g. 1e-30")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="random-trial identity checks")
    p.add_argument("group", choices=sorted(VERIFY_GROUPS))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--lattice", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("moments", help="moments of the Pearson functional")
    p.add_argument("--lattice", default=None)
    p.add_argument("--pair", required=True)
    p.add_argument("-N", "--n-max", type=int, default=10)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("classify", help="regularity decision for a pair")
    p.add_argument("--lattice", default=None)
    p.add_argument("--pair", required=True)
    p.add_argument("-N", "--n-max", type=int, default=10)
    p.add_argument("--rodrigues", type=int, default=None,
                   help="also verify the Rodrigues representation at this order")
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--asymptotics", type=int, default=None,
                   help="also report recurrence asymptotics at this index")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("family", help="displayed recurrence data for a family")
    p.add_argument("--name", required=True, choices=sorted(families.FAMILY_NAMES))
    p.add_argument("--params", default="[]", help='JSON array, e.g. \'["1/2", "-1/2"]\'')
    p.add_argument("--lattice", default=None)
    p.add_argument("-N", "--n-max", type=int, default=10)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("characterize", help="structure relations and constructions")
    p.add_argument("--relation",
                   choices=("sx_raise", "lower", "counterexample", "system",
                            "meixner"),
                   default=None)
    p.add_argument("--family", default=None, choices=sorted(families.FAMILY_NAMES))
    p.add_argument("--params", default="[]")
    p.add_argument("--lattice", default=None)
    p.add_argument("--b0", default="1/3",
                   help="B_0 for --relation meixner or --solve (scalar spec)")
    p.add_argument("--c1", default="2/5",
                   help="C_1 for --relation meixner or --solve (scalar spec)")
    p.add_argument("--solve", action="store_true", help="solve the relation for the TTRR")
    p.add_argument("-N", "--n-max", type=int, default=12)
    p.add_argument("--solve-c1", default=None,
                   help="run the raising construction from this C_1 (rational)")
    p.add_argument("--branch", choices=("+", "-"), default="+")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("all", help="canned verification battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_all)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, ScalarDomainError, AdmissibilityError, NotRegularError,
            HorizonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
