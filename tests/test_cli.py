from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_check
from latticeops import FirstCharacterization, checks, operators
from latticeops.cli import main

GEN_LATTICE = '{"kind": "q-quadratic", "q": "4", "c": ["1/2", "1/3", "1/5"]}'
SAMPLE_PAIR = '{"phi": ["7/10", "-1/3", "2/7"], "psi": ["1/2", "3/4"]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_ops_passes(capsys):
    code, out, _ = run(capsys, "verify", "ops", "--trials", "3", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["worst_residual"] == 0.0


def test_verify_ops_on_one_lattice(capsys):
    """--lattice checks every identity of the group on that lattice alone."""
    code, out, _ = run(capsys, "verify", "ops", "--trials", "1", "--seed", "2",
                       "--lattice", GEN_LATTICE)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["results"]
    assert all(r["lattice"] == json.loads(GEN_LATTICE) for r in payload["results"])


def test_verify_reports_a_failed_identity(capsys, monkeypatch):
    """One operator identity made false: verify exits 1 and its body says
    passed false, though every other identity still passes."""
    lhs_rhs = operators._identity_lhs_rhs

    def broken(lat, identity, f, g, n):
        lhs, rhs = lhs_rhs(lat, identity, f, g, n)
        return lhs, rhs + Fraction(1, 7) if identity == "swap_dx" else rhs

    monkeypatch.setattr(operators, "_identity_lhs_rhs", broken)
    code, out, _ = run(capsys, "verify", "ops", "--trials", "1", "--seed", "1")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    failed = {r["identity"] for r in payload["results"] if not r["passed"]}
    assert failed == {"swap_dx"} and len(payload["results"]) > len(failed)


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "duals", "--trials", "2", "--seed", "9")
    _, second, _ = run(capsys, "verify", "duals", "--trials", "2", "--seed", "9")
    assert first == second


def test_moments_json_and_csv(capsys):
    code, out, _ = run(
        capsys, "moments", "--lattice", GEN_LATTICE, "--pair", SAMPLE_PAIR, "-N", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["moments"][0] == "1"
    assert payload["moments"][1] == "-2/3"

    code, out, _ = run(
        capsys,
        "--format",
        "csv",
        "moments",
        "--lattice",
        GEN_LATTICE,
        "--pair",
        SAMPLE_PAIR,
        "-N",
        "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,moment"
    assert lines[1] == "0,1"
    assert lines[2] == "1,-2/3"


def test_pair_spec_from_file(capsys, tmp_path):
    spec = tmp_path / "pair.json"
    spec.write_text(SAMPLE_PAIR)
    code, out, _ = run(
        capsys, "classify", "--lattice", GEN_LATTICE, "--pair", str(spec), "-N", "5"
    )
    assert code == 0
    assert json.loads(out)["regularity"]["regular"] is True


def test_classify_with_rodrigues(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--lattice",
        GEN_LATTICE,
        "--pair",
        SAMPLE_PAIR,
        "-N",
        "4",
        "--rodrigues",
        "2",
    )
    assert code == 0
    assert json.loads(out)["rodrigues"]["passed"] is True


def test_classify_with_asymptotics(capsys):
    """On the default q = 1/4 lattice the README pair's limits are exact rationals."""
    code, out, _ = run(capsys, "classify", "--pair", SAMPLE_PAIR, "-N", "2",
                       "--asymptotics", "20")
    assert code == 0
    record = json.loads(out)["asymptotics"]
    assert record["kind"] == "q-quadratic"
    assert (record["ratio_limit"], record["series_value"]) == ("938/285", "-56/855")
    assert record["ratio_error"] < 1e-10 and record["series_error"] < 1e-10
    assert record["b_scaled_limit"] is None


def test_family_table(capsys):
    code, out, _ = run(capsys, "family", "--name", "q_hermite", "-N", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["restrictions"]["ok"] is True
    assert payload["ttrr"][1] == {"n": 1, "b": "0", "c": "3/16"}


def test_family_csv(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "family", "--name", "chebyshev_u", "-N", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,b,c"
    assert lines[1] == "0,0,0"
    assert lines[2] == "1,0,1/4"


def test_family_with_bad_restrictions_exits_one(capsys):
    code, out, _ = run(
        capsys,
        "family",
        "--name",
        "askey_wilson",
        "--params",
        '["2", "2", "0", "0"]',
        "-N",
        "6",
    )
    assert code == 1
    assert json.loads(out)["restrictions"]["ok"] is False


def test_characterize_lower_failure_exit(capsys):
    code, out, _ = run(
        capsys, "characterize", "--relation", "lower", "--family", "chebyshev_u",
        "-N", "6",
    )
    assert code == 1
    assert json.loads(out)["relation"]["first_fail"] == 2


# c2 = 10^400: every scale of the relation is beyond the float range
HUGE_SYM_LATTICE = json.dumps({"q": "1/4", "c": ["1/2", "1" + "0" * 400, "0"]})


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
def test_characterize_lower_failure_beyond_the_float_range(capsys, backend):
    code, out, _ = run(
        capsys, "--backend", backend, "characterize", "--relation", "lower",
        "--family", "chebyshev_u", "-N", "4", "--lattice", HUGE_SYM_LATTICE,
    )
    assert code == 1
    assert json.loads(out)["relation"]["first_fail"] == 2


def test_characterize_lower_pass(capsys):
    code, out, _ = run(
        capsys, "characterize", "--relation", "lower", "--family", "q_hermite",
        "-N", "10",
    )
    assert code == 0


def test_characterize_system(capsys):
    code, out, _ = run(
        capsys, "characterize", "--relation", "system", "--family", "q_hermite",
        "-N", "10",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"family", "lattice", "relation", "k1", "k2"}
    assert payload["relation"]["name"] == "system"
    assert payload["relation"]["passed"] is True
    assert payload["relation"]["residuals"] == [0.0] * 5
    assert payload["k1"] == "0"


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
def test_characterize_system_zero_c1_is_an_input_error(capsys, backend):
    # al_salam(2, 1/2) has C_1 = (1 - ab)(1 - q)/4 = 0
    code, out, err = run(
        capsys, "--backend", backend, "characterize", "--relation", "system",
        "--family", "al_salam", "--params", '["2", "1/2"]', "-N", "6",
    )
    assert code == 2
    assert out == ""
    assert err == "error: C_1 = 0: t_1 undefined\n"


def test_characterize_counterexample_needs_fourth_power_on_exact(capsys):
    code, _, err = run(capsys, "characterize", "--relation", "counterexample", "-N", "6")
    assert code == 2
    assert "fourth power" in err


def test_characterize_counterexample_exact_fourth_power(capsys):
    lat = '{"kind": "q-quadratic", "q": "1/16", "c": ["1/2", "1/2", "0"]}'
    code, out, _ = run(
        capsys, "characterize", "--relation", "counterexample", "--lattice", lat,
        "-N", "8",
    )
    assert code == 0
    assert json.loads(out)["relation"]["passed"] is True


def test_characterize_counterexample_bigfloat(capsys):
    code, out, _ = run(
        capsys, "--backend", "bigfloat", "--precision", "192",
        "characterize", "--relation", "counterexample", "-N", "8",
    )
    assert code == 0
    payload = json.loads(out)
    assert max(payload["relation"]["residuals"]) < 1e-25


def test_characterize_solve_c1(capsys):
    code, out, _ = run(capsys, "characterize", "--solve-c1=-9/32", "-N", "6")
    # construction succeeds and is reported; the raising relation itself
    # fails at slot 3, which is data, and the exit code is the construction's
    assert code == 0
    payload = json.loads(out)
    assert payload["construction"]["r"] == "2"
    assert payload["closed_form_residual"] == 0.0
    assert payload["relation"]["first_fail"] == 3


def test_characterize_solve_c1_fails_on_a_wrong_closed_form(capsys, monkeypatch):
    closed = FirstCharacterization.c_closed
    monkeypatch.setattr(
        FirstCharacterization, "c_closed",
        lambda self, m: closed(self, m) + (Fraction(1, 7) if m == 4 else 0),
    )
    code, out, _ = run(capsys, "characterize", "--solve-c1=-9/32", "-N", "6")
    assert code == 1
    assert json.loads(out)["closed_form_residual"] > 0


def test_characterize_solve_c1_compares_the_first_and_last_c(capsys, monkeypatch):
    """A closed form wrong only at m = 1, or only at m = n_max + 1, fails."""
    closed = FirstCharacterization.c_closed
    for wrong in (1, 7):
        monkeypatch.setattr(
            FirstCharacterization, "c_closed",
            lambda self, m, wrong=wrong: closed(self, m) + (Fraction(1, 7) if m == wrong else 0),
        )
        code, out, _ = run(capsys, "characterize", "--solve-c1=-9/32", "-N", "6")
        assert code == 1, wrong
        assert json.loads(out)["closed_form_residual"] > 0


def test_characterize_meixner_linear_passes(capsys):
    lat = '{"kind": "linear", "q": "1", "c": ["0", "1", "0"]}'
    code, out, _ = run(
        capsys, "characterize", "--relation", "meixner", "--lattice", lat,
        "-N", "10",
    )
    assert code == 0
    rep = json.loads(out)["relation"]
    assert rep["passed"] is True
    assert all(v == 0 for v in rep["residuals"])


def test_characterize_meixner_quadratic_fails(capsys):
    lat = '{"kind": "quadratic", "q": "1", "c": ["2", "1/3", "-1/4"]}'
    code, out, _ = run(
        capsys, "characterize", "--relation", "meixner", "--lattice", lat,
        "-N", "6",
    )
    assert code == 1
    assert json.loads(out)["relation"]["first_fail"] <= 3


def test_characterize_meixner_rejects_integer_parameter(capsys):
    # 4*C_1/c5^2 = 2 makes C_3 vanish, so the image family is not regular
    lat = '{"kind": "linear", "q": "1", "c": ["0", "1", "0"]}'
    code, _, err = run(
        capsys, "characterize", "--relation", "meixner", "--c1", "1/2",
        "--lattice", lat, "-N", "6",
    )
    assert code == 2
    assert "non-integrality" in err


@pytest.mark.parametrize("backend", ["exact", "bigfloat"])
def test_characterize_meixner_vanishing_c2_on_both_backends(capsys, backend):
    # c5 = 1/7 and C_1 = 1/196 = c5^2/4 make C_2 = 2 (C_1 - c5^2/4) vanish
    code, out, err = run(
        capsys, "--backend", backend, "characterize", "--relation", "meixner",
        "--lattice", '{"q": "1", "c": ["0", "1/7", "0"]}', "--c1", "1/196", "-N", "6",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: C_2 = 0") and err.count("\n") == 1


def test_characterize_solve_lower_reproduces_q_hermite(capsys):
    """--solve on the default symmetric lattice from q-Hermite's B_0, C_1:
    the relation holds through N and the forced TTRR is the family's."""
    code, out, _ = run(capsys, "characterize", "--relation", "lower", "--solve",
                       "--b0", "0", "--c1", "3/16", "-N", "12")
    assert code == 0
    sol = json.loads(out)["solution"]
    assert (sol["relation"], sol["first_fail"], sol["failing_degree"], sol["residual"]) == (
        "lower", None, None, None)
    code, out, _ = run(capsys, "family", "--name", "q_hermite", "-N", "12")
    assert code == 0 and sol["ttrr"] == json.loads(out)["ttrr"]


@pytest.mark.parametrize("lattice, c3", [(None, "0"), (GEN_LATTICE, "1/5")])
def test_characterize_solve_sx_raise_fails_on_q_quadratic_lattices(capsys, lattice, c3):
    """Slot 4 fails at B_0 = c3 and slot 3 at B_0 = c3 + 1/3, in the lowest
    coefficient; the forced TTRR runs through the failing slot."""
    for b0, slot in ((c3, 4), (str(Fraction(c3) + Fraction(1, 3)), 3)):
        argv = ["characterize", "--relation", "sx_raise", "--solve", "--b0", b0,
                "--c1=-9/32", "-N", "10"] + (["--lattice", lattice] if lattice else [])
        code, out, _ = run(capsys, *argv)
        assert code == 1
        sol = json.loads(out)["solution"]
        assert (sol["first_fail"], sol["failing_degree"]) == (slot, 0)
        assert Fraction(sol["residual"]) != 0
        assert [row["n"] for row in sol["ttrr"]] == list(range(slot + 1))


@pytest.mark.parametrize("relation", ["sx_raise", "lower"])
def test_characterize_solve_on_bigfloat_is_a_one_line_error(capsys, relation):
    code, out, err = run(capsys, "--backend", "bigfloat", "characterize", "--relation",
                         relation, "--solve", "-N", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "exact backend" in err


@pytest.mark.parametrize("relation", ["system", "meixner", "counterexample"])
def test_characterize_solve_needs_a_slot_relation(capsys, relation):
    code, out, err = run(capsys, "characterize", "--relation", relation, "--solve")
    assert code == 2 and out == ""
    assert err == "error: --solve needs --relation sx_raise or lower\n"


def test_characterize_needs_relation_or_c1(capsys):
    code, _, err = run(capsys, "characterize", "-N", "4")
    assert code == 2
    assert "relation" in err


def test_missing_family_for_relation(capsys):
    code, _, err = run(capsys, "characterize", "--relation", "lower", "-N", "4")
    assert code == 2
    assert "family" in err


def test_inadmissible_pair_is_a_one_line_input_error(capsys):
    # phi = 1, psi = 0 has d_0 = 0, so its moments do not exist
    code, out, err = run(
        capsys, "classify", "--pair", '{"phi": ["1"], "psi": ["0"]}', "--rodrigues", "2"
    )
    assert code == 2
    assert out == ""
    assert err == "error: d_0 = 0: the Pearson pair is not admissible\n"


def test_small_d_n_in_a_large_moment_row_is_not_an_input_error(capsys):
    # d_57 = 95.3 while G_57's entries reach 1e27: d_57 is decided on its own value
    code, out, err = run(
        capsys, "--backend", "bigfloat", "--precision", "256", "moments",
        "--lattice", '{"kind": "quadratic", "q": "1", "c": ["2", "1/3", "-1/4"]}',
        "--pair", '{"phi": ["7/3", "1/3", "5/3"], "psi": ["1/3", "1/3"]}', "-N", "58",
    )
    assert code == 0
    assert err == ""
    assert len(json.loads(out)["moments"]) == 59


FAMILY_NAMES = "'al_salam', 'askey_wilson', 'cdq_hahn', 'chebyshev_u', 'meixner2', 'q_hermite'"
CLASSIFY = ["classify", "--pair", SAMPLE_PAIR]
CHARACTERIZE = ["characterize", "-N", "-1"]


@pytest.mark.parametrize("argv, message", [
    (CLASSIFY + ["-N", "2", "--rodrigues", "-1"], "the Rodrigues order must be >= 0, got -1"),
    (CLASSIFY + ["-N", "2", "--rodrigues", "1", "--horizon", "-1"],
     "the moment horizon must be >= 0, got -1"),
    (CLASSIFY + ["-N", "-1"], "n_max must be >= 0, got -1"),
    (CLASSIFY + ["--asymptotics", "-1"],
     "asymptotics on a q-quadratic lattice needs n_eval >= 0, got -1"),
    (CLASSIFY + ["--lattice", '{"kind": "quadratic", "q": "1", "c": ["2", "1/3", "-1/4"]}',
                 "-N", "2", "--asymptotics", "0"],
     "asymptotics on a quadratic lattice needs n_eval >= 1, got 0"),
    (CHARACTERIZE + ["--relation", "lower", "--family", "chebyshev_u"],
     "n_max must be >= 0, got -1"),
    (CHARACTERIZE + ["--relation", "system", "--family", "q_hermite"],
     "n_max must be >= 0, got -1"),
    (CHARACTERIZE + ["--relation", "counterexample", "--lattice",
                     '{"kind": "q-quadratic", "q": "1/16", "c": ["1/2", "1/2", "0"]}'],
     "n_max must be >= 0, got -1"),
    (CHARACTERIZE + ["--relation", "meixner",
                     "--lattice", '{"kind": "linear", "q": "1", "c": ["0", "1", "0"]}'],
     "n_max must be >= 0, got -1"),
    (CHARACTERIZE + ["--solve-c1=-9/32"], "n_max must be >= 0, got -1"),
    (["family", "--name", "chebyshev_u", "-N", "-1"], "n_max must be >= 0, got -1"),
    (["moments", "--pair", SAMPLE_PAIR, "-N", "-1"],
     "the moment horizon must be >= 0, got -1"),
    (["verify", "ops", "--trials", "-1"], "--trials must be >= 0, got -1"),
    (["verify", "ops", "--max-degree", "0"], "--max-degree must be >= 1, got 0"),
    # a spec that is not what its option asks for, and the usage errors of argparse
    (["family", "--name", "al_salam", "--params", '"12"'], "--params must be a JSON array"),
    (["family", "--name", "al_salam", "--params", "5"], "--params must be a JSON array"),
    (["characterize", "--relation", "lower", "--family", "q_hermite", "--params", "{}"],
     "--params must be a JSON array"),
    (["family", "--name", "al_salam", "--params", '["1/0", "1"]'],
     "zero denominator in the scalar '1/0'"),
    (["--backend", "bigfloat", "family", "--name", "al_salam", "--params", '[{}, "1"]'],
     "a bigfloat value object needs a 'value'"),
    (["family", "--name", "q_hermite", "--lattice", '{"q": "1/4", "c": 5}'],
     "lattice constants 'c' must be a JSON array"),
    (["moments", "--pair", '{"phi": "123", "psi": ["1/2", "3/4"]}'],
     "polynomial coefficients must be a JSON array"),
    (["family", "--name", "jacobi"],
     f"argument --name: invalid choice: 'jacobi' (choose from {FAMILY_NAMES})"),
    (["family", "--name", "q_hermite", "-N", "abc"], "argument -N/--n-max: invalid int value: 'abc'"),
    (["moments"], "the following arguments are required: --pair"),
    ([], "the following arguments are required: command"),
    # a spec that parses as JSON is read inline, whatever its shape
    (["moments", "--pair", '["1", "2"]'], "pair spec must be an object with 'phi' and 'psi'"),
    (CLASSIFY + ["--lattice", "5"], "lattice spec must be an object with 'q' and 'c'"),
    (["moments", "--pair", "no_such_spec.json"],
     "cannot read spec file 'no_such_spec.json': "
     "[Errno 2] No such file or directory: 'no_such_spec.json'"),
    # a bigfloat zero threshold that is not positive
    (["--backend", "bigfloat", "--eps", "0"] + CLASSIFY + ["-N", "3"], "eps must be > 0, got 0"),
    (["--backend", "bigfloat", "--eps", "-1"] + CLASSIFY + ["-N", "3"],
     "eps must be > 0, got -1"),
    # a zero denominator in an option's scalar
    (["--backend", "bigfloat", "--eps", "1/0"] + CLASSIFY + ["-N", "3"],
     "zero denominator in the scalar '1/0'"),
    (["characterize", "--solve-c1=1/0"], "zero denominator in the scalar '1/0'"),
    # a non-finite bigfloat scalar in a spec
    (["--backend", "bigfloat"] + CLASSIFY + ["--lattice", '{"q": "4", "c": ["inf", "1", "0"]}'],
     "the scalar 'inf' is not finite"),
    (["--backend", "bigfloat", "family", "--name", "al_salam", "--params", '["nan", "1"]'],
     "the scalar 'nan' is not finite"),
    # a bigfloat zero threshold below the unit roundoff of the precision
    (["--backend", "bigfloat", "--precision", "64"] + CLASSIFY + ["-N", "2"],
     "eps = 1.0e-25 is below the unit roundoff 2^-64 = 5.42e-20;"
     " pass a larger --eps or more --precision"),
])
def test_negative_order_is_a_one_line_input_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: latticeops family")


@pytest.mark.parametrize("argv, unrecognized", [
    (["--backend", "bigfloat", "--prec=64"] + CLASSIFY + ["-N", "2"], "--prec=64"),
    (["characterize", "--rel", "system", "--fam", "q_hermite"], "--rel system --fam q_hermite"),
    (CLASSIFY + ["-N", "2", "--rod", "3"], "--rod 3"),
])
def test_an_option_prefix_is_an_unrecognized_argument(capsys, argv, unrecognized):
    """A unique prefix of an option's name is not that option, at the top
    level or in a subcommand."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: unrecognized arguments: {unrecognized}\n"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-99, 99)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["1/2", "-1/3", "4", "0", "1/0", "abc", ""]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["q", "c", "phi", "psi", "kind", "value"]), inner,
                      max_size=3),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(backend=st.sampled_from(["exact", "bigfloat"]), where=st.sampled_from(
    ["lattice", "pair", "params"]), first=_json_values, second=_json_values)
def test_drawn_json_specs_exit_with_a_code_and_at_most_one_line(backend, where, first, second):
    if where == "lattice":
        argv = ["family", "--name", "chebyshev_u", "-N", "2",
                "--lattice", json.dumps({"q": first, "c": second})]
    elif where == "pair":
        argv = ["moments", "-N", "2", "--pair", json.dumps({"phi": first, "psi": second})]
    else:
        argv = ["family", "--name", "al_salam", "-N", "2", "--params", json.dumps(first)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--backend", backend, *argv])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()


def test_internal_check_failure_exits_one(capsys, monkeypatch):
    from latticeops import cli
    from latticeops.classical import InternalCheckError

    def disagree(*args, **kwargs):
        raise InternalCheckError("two d_0 formulas disagree")

    monkeypatch.setattr(cli, "regularity", disagree)
    code, out, err = run(capsys, "classify", "--pair", SAMPLE_PAIR)
    assert code == 1
    assert out == ""
    assert err == "internal check failed: two d_0 formulas disagree\n"


def test_moment_cross_check_failure_exits_one(capsys, monkeypatch):
    from latticeops import functionals

    step = functionals.product_rule_step

    def doubled_g(lat, rows):
        (g, den), h = step(lat, rows)
        return ([2 * v for v in g], den), h

    # G_0 is the seed psi, so the first doubled lead is G_1's
    monkeypatch.setattr(functionals, "product_rule_step", doubled_g)
    code, out, err = run(
        capsys, "moments", "--lattice", GEN_LATTICE, "--pair", SAMPLE_PAIR, "-N", "3"
    )
    assert code == 1
    assert out == ""
    assert err == ("internal check failed: leading Pearson coefficient "
                   "disagrees with d_1 closed form\n")


def test_invalid_json_spec(capsys):
    code, _, err = run(capsys, "moments", "--pair", "{not json")
    assert code == 2
    assert "invalid JSON" in err


def test_missing_spec_file(capsys):
    code, _, err = run(capsys, "moments", "--pair", "no_such_file.json")
    assert code == 2
    assert "cannot read" in err


def test_csv_rejected_for_structural_report(capsys):
    code, _, err = run(capsys, "--format", "csv", "verify", "ops", "--trials", "1")
    assert code == 2
    assert "csv" in err


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "--out", str(target), "family", "--name", "q_hermite", "-N", "3"
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["family"] == "q_hermite"


def test_out_to_a_missing_directory_is_a_one_line_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys, "--out", str(target), "family", "--name", "q_hermite", "-N", "2"
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write output file {str(target)!r}: ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


ALL_CHECKS = [
    "operator-identities", "functional-identities", "oracle-equivalence", "rodrigues",
    "regularity-biconditional", "counterexample-4term", "q-hermite-lower-and-system",
    "chebyshev-lower-fails-system-passes", "raising-linear-vs-quadratic",
    "raising-construction-consistency", "asymptotics",
]


def test_all_battery(capsys, monkeypatch):
    # the seed-0 records are the acceptance tests' own runs
    monkeypatch.setattr(checks, "run", lambda name, seed: run_check(name, seed)[0])
    outputs = []
    for seed in ("0", "0", "1"):
        code, out, _ = run(capsys, "all", "--seed", seed)
        assert code == 0
        payload = json.loads(out)
        assert [c["check"] for c in payload["checks"]] == ALL_CHECKS
        assert payload["passed"] is True
        assert all(c["passed"] is True for c in payload["checks"])
        assert payload["seed"] == int(seed)
        outputs.append(out)
    assert outputs[0] == outputs[1]
