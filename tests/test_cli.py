"""Command-line interface: schemas, round trips, exit codes, determinism."""

import json

import numpy as np
import pytest

from lsdecomp import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_decompose_werner(capsys):
    report = run_json(
        capsys, "decompose", "--input", '{"family":"werner","d":2,"f":-0.5}'
    )
    assert report["schema"] == "lsd-report/1"
    assert report["lambda"] == pytest.approx(0.5, abs=1e-12)
    assert report["checks"]["separable_status"] == "separable"
    assert report["checks"]["residual_rank"] == 1
    assert report["checks"]["reconstruction_error"] <= 1e-10


def test_decompose_separable_has_no_entangled_block(capsys):
    report = run_json(
        capsys, "decompose", "--input", '{"family":"bd22","p":[0.3,0.3,0.2,0.2]}'
    )
    assert report["lambda"] == 1.0
    assert "entangled" not in report


def test_separability_isotropic(capsys):
    report = run_json(
        capsys, "separability", "--input", '{"family":"isotropic","d":3,"F":0.2}'
    )
    assert report["status"] == "separable"
    assert report["margin"] == pytest.approx(1 / 3 - 0.2, abs=1e-12)


def test_concurrence_command(capsys):
    report = run_json(
        capsys, "concurrence", "--input", '{"family":"bd22","p":[0.7,0.1,0.1,0.1]}'
    )
    assert report["concurrence"] == pytest.approx(0.4, abs=1e-10)
    assert np.allclose(report["lambdas"], [0.7, 0.1, 0.1, 0.1], atol=1e-10)
    assert abs(np.dot(report["lambdas"], report["k"]) - 1.0) <= 1e-9


def test_oracle_command(capsys):
    report = run_json(
        capsys, "oracle", "--input", '{"family":"isotropic","d":3,"F":0.5}', "--seed", "1"
    )
    assert report["lambda_closed"] == pytest.approx(0.75, abs=1e-12)
    assert abs(report["oracle"]["lambda_numeric"] - 0.75) <= 1e-6
    assert report["oracle"]["gap"] <= 1e-6
    assert report["oracle"]["slackness"] <= 1e-6


def test_decompose_verify_round_trip(capsys, tmp_path):
    report = run_json(
        capsys, "decompose", "--input", '{"family":"bd23","p":[0.5,0.1,0.1,0.1,0.1,0.1]}'
    )
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    verdict = run_json(capsys, "verify", "--input", str(path))
    assert verdict["all_ok"] is True
    assert verdict["checks"]["reconstruction_ok"] is True
    assert verdict["checks"]["separable_ok"] is True
    assert verdict["checks"]["residual_psd_ok"] is True


def test_verify_rejects_tampered_weight(capsys, tmp_path):
    report = run_json(
        capsys, "decompose", "--input", '{"family":"werner","d":2,"f":-0.5}'
    )
    report["lambda"] += 0.02
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 3
    verdict = json.loads(out)
    assert verdict["all_ok"] is False


def test_reports_are_deterministic(capsys):
    argv = (
        "decompose",
        "--input",
        '{"family":"bd22","p":[0.7,0.1,0.1,0.1]}',
        "--oracle",
        "--seed",
        "3",
    )
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_matrix_serialization_round_trips_losslessly(capsys):
    report = run_json(
        capsys, "decompose", "--input", '{"family":"icd","theta":0.6,"p":[0.6,0.2,0.1,0.1]}'
    )
    sep = np.asarray(report["separable"]["re"]) + 1j * np.asarray(report["separable"]["im"])
    again = json.loads(json.dumps(report))
    sep2 = np.asarray(again["separable"]["re"]) + 1j * np.asarray(again["separable"]["im"])
    assert np.array_equal(sep, sep2)


def test_raw_input_and_validation_error(capsys):
    rho = 0.25 * np.eye(4)
    spec = {"family": "raw", "dims": [2, 2], "re": rho.tolist()}
    report = run_json(capsys, "decompose", "--input", json.dumps(spec))
    assert report["lambda"] == 1.0
    bad = {"family": "raw", "dims": [2, 2], "re": (-0.1 * np.eye(4)).tolist()}
    code, _, err = run_cli(capsys, "decompose", "--input", json.dumps(bad))
    assert code == 2


def test_exit_code_on_parse_error(capsys):
    code, _, err = run_cli(capsys, "decompose", "--input", "{not json")
    assert code == 2 and "ParseError" in err


def test_exit_code_on_unknown_family(capsys):
    for family in ("nope", "BD22", None, 3, [1], {"a": 1}):
        spec = json.dumps({"family": family})
        code, _, err = run_cli(capsys, "decompose", "--input", spec)
        assert code == 2 and "UnsupportedSpec" in err, family


def test_exit_code_on_bad_probabilities(capsys):
    code, _, err = run_cli(
        capsys, "decompose", "--input", '{"family":"bd22","p":[0.9,0.9,0.1,0.1]}'
    )
    assert code == 2


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True
    assert all(item["ok"] for item in report["results"])


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "separability", "--input", '{"family":"werner","d":3,"f":0.5}',
        "--format", "text",
    )
    assert code == 0
    assert "status: separable" in out


def test_near_threshold_round_trip(capsys):
    # weakly entangled states just past each threshold decompose and verify
    for eps in (10.0**-k for k in range(4, 13)):
        rest = (0.5 - eps) / 3.0
        for spec in (
            {"family": "bd22", "p": [0.5 + eps, rest, rest, rest]},
            {"family": "werner", "d": 3, "f": -eps},
            {"family": "isotropic", "d": 3, "F": 1 / 3 + eps},
            {"family": "horodecki33", "alpha": 3 + eps},
            {"family": "multi_iso", "d": 2, "n": 3, "s": 0.2 + eps},
        ):
            code, out, err = run_cli(capsys, "decompose", "--input", json.dumps(spec))
            assert code == 0, (spec, err)
            verdict = run_json(capsys, "verify", "--input", out)
            assert verdict["all_ok"] is True, spec


NUMERICAL_ERRORS = {
    "DecompositionUnavailable",
    "DegenerateBasis",
    "EmptyFamily",
    "InfeasiblePoint",
    "InvariantViolation",
    "NoConvergence",
    "NoDualCertificate",
    "NotPSD",
}


def test_exit_code_follows_error_base(capsys, monkeypatch):
    from lsdecomp import errors

    classes = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.LsdError)
        and cls not in (errors.LsdError, errors.InputError, errors.NumericalError)
    ]
    assert NUMERICAL_ERRORS <= {cls.__name__ for cls in classes}
    for cls in classes:
        numerical = issubclass(cls, errors.NumericalError)
        assert numerical != issubclass(cls, errors.InputError)
        assert numerical == (cls.__name__ in NUMERICAL_ERRORS)

        def fail(obj, cls=cls):
            raise cls("injected")

        monkeypatch.setattr(cli, "parse_spec", fail)
        code, _, err = run_cli(capsys, "decompose", "--input", "{}")
        assert code == (3 if numerical else 2), cls.__name__
        assert cls.__name__ in err


def test_solver_failures_exit_3(capsys, monkeypatch):
    # a linear-algebra failure is numerical (exit 3), though LinAlgError is
    # a ValueError: inside the search it becomes NoConvergence, and a bare
    # one elsewhere is mapped by the CLI
    spec = '{"family":"bd22","p":[0.7,0.1,0.1,0.1]}'

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "svd", singular)
    code, _, err = run_cli(capsys, "oracle", "--input", spec)
    assert code == 3 and "NoConvergence" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli.lsd, "decompose", singular)
    code, _, err = run_cli(capsys, "decompose", "--input", spec)
    assert code == 3 and "LinAlgError" in err


@pytest.mark.parametrize("spec", [
    {"family": "horodecki33", "alpha": 6},
    {"family": "werner", "d": 1, "f": 0.1},
    {"family": "multi_iso", "d": 2, "n": 1, "s": 0.5},
    {"family": "isotropic", "d": 3, "F": 1.5},
])
def test_separability_checks_parameter_ranges(capsys, spec):
    code, _, err = run_cli(capsys, "separability", "--input", json.dumps(spec))
    assert code == 2 and "ParamOutOfRange" in err


@pytest.mark.parametrize("spec", [
    {"family": "werner", "d": 2.7, "f": -0.5},
    {"family": "werner", "d": True, "f": -0.5},
    {"family": "multi_iso", "d": 2, "n": 3.5, "s": 0.5},
    {"family": "raw", "dims": [2.5, 2], "re": (np.eye(4) / 4).tolist()},
    {"family": "raw", "dims": [True, 4], "re": (np.eye(4) / 4).tolist()},
])
def test_parse_spec_rejects_non_integral_integers(capsys, spec):
    code, _, err = run_cli(capsys, "decompose", "--input", json.dumps(spec))
    assert code == 2 and "ParseError" in err


def test_parse_spec_accepts_integral_floats(capsys):
    _, plain, _ = run_cli(capsys, "decompose", "--input", '{"family":"werner","d":3,"f":-0.5}')
    _, floated, _ = run_cli(capsys, "decompose", "--input", '{"family":"werner","d":3.0,"f":-0.5}')
    assert floated == plain


@pytest.mark.parametrize("command", ["separability", "decompose"])
def test_huge_party_count_is_rejected(capsys, command):
    # d^n is never formed for such n: 2^(10^10) would take 1.25 GB
    spec = '{"family":"multi_iso","d":2,"n":10000000000,"s":0.5}'
    code, _, err = run_cli(capsys, command, "--input", spec)
    assert code == 2 and "DimensionTooLarge" in err
