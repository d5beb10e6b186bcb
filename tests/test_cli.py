from __future__ import annotations

import json
from fractions import Fraction

from conftest import run_check
from latticeops import FirstCharacterization, checks
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
    assert json.loads(out)["system"]["passed"] is True


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
