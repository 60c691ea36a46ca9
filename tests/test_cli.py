"""Command-line interface: schemas, round trips, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lsdecomp import cli
from lsdecomp.errors import NoDualCertificate

from helpers import zero_flip_states


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


def test_concurrence_of_a_product_state(capsys):
    product = {"family": "raw", "dims": [2, 2], "re": np.diag([1.0, 0, 0, 0]).tolist()}
    report = run_json(capsys, "concurrence", "--input", json.dumps(product))
    assert report["concurrence"] == 0.0
    assert report["lambdas"] == report["k"] == report["P"] == [0.0] * 4


def test_oracle_command(capsys):
    report = run_json(
        capsys, "oracle", "--input", '{"family":"isotropic","d":3,"F":0.5}', "--seed", "1"
    )
    assert report["lambda_closed"] == pytest.approx(0.75, abs=1e-12)
    assert abs(report["oracle"]["lambda_numeric"] - 0.75) <= 1e-6
    assert report["oracle"]["gap"] <= 1e-6
    assert report["oracle"]["slackness"] <= 1e-6


@pytest.mark.parametrize("mat", [
    np.diag([1.0, 0, 0, 0]),  # product
    np.outer([0.5 ** 0.5, 0, 0, 0.5 ** 0.5], [0.5 ** 0.5, 0, 0, 0.5 ** 0.5]),  # Bell
    np.outer([0.6, 0.3, 0.1, 0.54 ** 0.5], [0.6, 0.3, 0.1, 0.54 ** 0.5]),  # entangled pure
    np.diag([0.5, 0.5, 0, 0]),  # |0><0| (x) I/2, no spin-flip weight
], ids=["product", "bell", "pure", "flip_free"])
def test_oracle_on_pure_and_flip_free_raw_states(capsys, mat):
    spec = {"family": "raw", "dims": [2, 2], "re": mat.tolist()}
    report = run_json(capsys, "oracle", "--input", json.dumps(spec))
    assert report["oracle"]["delta"] <= 1e-9


@pytest.mark.parametrize("name", ["rank3", "one_flip"])
def test_oracle_agrees_on_states_with_product_support_vectors(capsys, name):
    mat, lam = zero_flip_states()[name]
    spec = json.dumps({"family": "raw", "dims": [2, 2], "re": mat.tolist()})
    for argv in (("oracle",), ("decompose", "--oracle")):
        report = run_json(capsys, *argv, "--input", spec)
        assert report.get("lambda_closed", report.get("lambda")) == pytest.approx(lam, abs=1e-12)
        assert report["oracle"]["delta"] <= 1e-9


@pytest.mark.parametrize("spec, field, past", [
    ({"family": "werner", "d": 2, "f": -1.0}, "f", -1.0 - 1e-12),
    ({"family": "isotropic", "d": 3, "F": 1.0}, "F", 1.0 + 1e-12),
    ({"family": "multi_iso", "d": 2, "n": 3, "s": 1.0}, "s", 1.0 + 1e-12),
], ids=["werner", "isotropic", "multi_iso"])
def test_a_value_just_past_the_entangled_end_reports_as_that_end(capsys, spec, field, past):
    for command in ("decompose", "oracle"):
        exact = run_json(capsys, command, "--input", json.dumps(spec))
        report = run_json(capsys, command, "--input", json.dumps({**spec, field: past}))
        assert report.pop("input") == {**spec, field: past}
        exact.pop("input")
        assert report == exact


def test_oracle_block_reports_a_missing_dual_certificate(capsys, monkeypatch):
    def refuse(problem, x_hat):
        raise NoDualCertificate("F(x) is positive definite; no active constraint")

    monkeypatch.setattr(cli.oracle, "duality_check", refuse)
    spec = '{"family":"bd22","p":[0.7,0.1,0.1,0.1]}'
    for argv in (("oracle",), ("decompose", "--oracle")):
        block = run_json(capsys, *argv, "--input", spec)["oracle"]
        assert block["gap"] is None and block["slackness"] is None
        assert block["duality_note"] == "F(x) is positive definite; no active constraint"
        assert abs(block["lambda_numeric"] - 0.6) <= 1e-9


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


def test_verify_cuts_the_separable_part_as_the_state_is_cut(capsys):
    # an entangled state passed off as the separable part of weight 1, its
    # block labelled as one 4-level system, whose PPT cut (4, 1) is trivial
    report = run_json(capsys, "decompose", "--input", '{"family":"bd22","p":[0.7,0.1,0.1,0.1]}')
    state = np.array(report["separable"]["re"]) * 0.6 + np.array(report["entangled"]["re"])
    report.update({"lambda": 1.0, "separable": {"dims": [4], "re": state.tolist(),
                                                "im": np.zeros((4, 4)).tolist()}})
    del report["entangled"]
    code, out, _ = run_cli(capsys, "verify", "--input", json.dumps(report))
    assert code == 3
    assert json.loads(out)["checks"]["separable_status"] == "entangled"


def _broken(report, edit):
    report = json.loads(json.dumps(report))
    edit(report)
    return report


@pytest.mark.parametrize("field, edit", [
    ("lambda", lambda r: r.update({"lambda": None})),
    ("separable", lambda r: r["separable"].pop("re")),
    ("entangled", lambda r: r["entangled"].pop("im")),
    ("separable", lambda r: r.update({"separable": "x"})),
    ("entangled", lambda r: r["entangled"].update({"re": [[0.0, 0.0], [0.0, 0.0]]})),
    ("entangled", lambda r: r["entangled"].update(
        {"re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})),
    ("separable", lambda r: r["separable"].update({"dims": [None, 2]})),
    ("separable", lambda r: r["separable"].update({"dims": [[2], 2]})),
    ("separable", lambda r: r["separable"].update({"dims": ["a", 2]})),
    ("separable", lambda r: r["separable"].update({"dims": [True, 2]})),
    ("separable", lambda r: r["separable"].update({"dims": [2.7, 2]})),
], ids=["lambda_null", "separable_no_re", "entangled_no_im", "separable_not_object",
        "entangled_re_im_mismatch", "entangled_wrong_shape", "dims_null", "dims_nested",
        "dims_string", "dims_bool", "dims_fractional"])
def test_verify_rejects_malformed_reports(capsys, field, edit):
    report = run_json(capsys, "decompose", "--input", '{"family":"bd22","p":[0.7,0.1,0.1,0.1]}')
    code, _, err = run_cli(capsys, "verify", "--input", json.dumps(_broken(report, edit)))
    assert code == 2
    assert f"error (InputError): malformed report field {field!r}: " in err


@pytest.mark.parametrize("value", ["0.5999999999999999", True], ids=["text", "bool"])
def test_verify_rejects_a_lambda_that_is_not_a_number(capsys, value):
    report = run_json(capsys, "decompose", "--input", '{"family":"bd22","p":[0.7,0.1,0.1,0.1]}')
    report["lambda"] = value
    code, _, err = run_cli(capsys, "verify", "--input", json.dumps(report))
    assert code == 2
    assert ("error (InputError): malformed report field 'lambda': "
            f"expected a number, got {value!r}") in err


def test_verify_rejects_matrix_block_entries_that_are_not_numbers(capsys):
    report = run_json(capsys, "decompose", "--input", '{"family":"bd22","p":[0.7,0.1,0.1,0.1]}')
    text = json.loads(json.dumps(report))
    text["separable"]["re"] = [[str(v) for v in row] for row in text["separable"]["re"]]
    code, _, err = run_cli(capsys, "verify", "--input", json.dumps(text))
    assert code == 2
    first = repr(str(report["separable"]["re"][0][0]))
    assert ("error (InputError): malformed report field 'separable': "
            f"field 're': expected a number, got {first}") in err
    report["entangled"]["im"][0][0] = False
    code, _, err = run_cli(capsys, "verify", "--input", json.dumps(report))
    assert code == 2
    assert ("error (InputError): malformed report field 'entangled': "
            "field 'im': expected a number, got False") in err


@pytest.mark.parametrize("report", ['"schema, input, lambda, separable"', "[1, 2]"])
def test_verify_rejects_a_report_that_is_not_an_object(capsys, report):
    code, _, err = run_cli(capsys, "verify", "--input", report)
    assert code == 2 and "error (InputError): report must be a JSON object, got " in err


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


def test_input_dash_reads_stdin(capsys, monkeypatch):
    spec = '{"family": "werner", "d": 2, "f": -0.5}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
    from_stdin = run_cli(capsys, "decompose", "--input", "-")
    assert from_stdin[0] == 0, from_stdin[2]
    assert from_stdin == run_cli(capsys, "decompose", "--input", spec)


ICD_COMMANDS = [("decompose",), ("decompose", "--oracle"), ("separability",), ("oracle",),
                ("concurrence",)]


@pytest.mark.parametrize("command", ICD_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("theta", [5e-324, 1e-300, 1e-163, 1e-161, 1e-156], ids=repr)
def test_an_icd_angle_whose_sine_squared_is_not_normal_exits_2(capsys, command, theta):
    spec = json.dumps({"family": "icd", "theta": theta, "p": [0.7, 0.1, 0.1, 0.1]})
    code, out, err = run_cli(capsys, *command, "--input", spec)
    assert (code, out) == (2, "")
    assert err.startswith("error (InputError): ")


@pytest.mark.parametrize("command", ICD_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("theta", [7.5e-155, 1e-154], ids=repr)
def test_the_smallest_icd_angles_with_a_normal_sine_squared_exit_0(capsys, command, theta):
    spec = json.dumps({"family": "icd", "theta": theta, "p": [0.7, 0.1, 0.1, 0.1]})
    code, _, err = run_cli(capsys, *command, "--input", spec)
    assert code == 0, err


def test_exit_code_on_parse_error(capsys):
    code, _, err = run_cli(capsys, "decompose", "--input", "{not json")
    assert code == 2 and "error (InputError): input is not valid JSON: " in err


def test_an_input_path_that_cannot_be_read_is_named(capsys, tmp_path):
    for path, reason in ((tmp_path / "spec.json", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        code, _, err = run_cli(capsys, "decompose", "--input", str(path))
        assert code == 2
        assert err == f"error (InputError): cannot read input file {str(path)!r}: {reason}\n"


def test_malformed_json_inline_or_in_a_file_keeps_the_json_message(capsys, tmp_path):
    message = ("error (InputError): input is not valid JSON: "
               "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n")
    path = tmp_path / "spec.json"
    path.write_text("{not json", encoding="utf-8")
    for given in ("{not json", str(path)):
        code, _, err = run_cli(capsys, "decompose", "--input", given)
        assert code == 2 and err == message


_BD22 = {"family": "bd22", "p": [0.7, 0.1, 0.1, 0.1]}


@pytest.mark.parametrize("argv, message", [
    (("decompose", "--input", "[1, 2]"), "spec must be a JSON object, got list"),
    (("concurrence", "--input", '{"family": "werner", "d": 3, "f": -0.5}'),
     "concurrence needs a 2x2 state, got dims (3, 3)"),
    (("decompose", "--input", '{"family": "bd22", "p": [0.5, 0.25, 0.25]}'),
     "expected 4 probabilities, got shape (3,)"),
    (("decompose", "--input", '{"family": "raw", "dims": [2, 2], "re": [0.25, 0.25, 0.25, 0.25]}'),
     "expected a 2-d matrix, got ndim=1"),
    (("verify", _BD22, lambda r: r.pop("separable")),
     "decomposition report misses required key 'separable'"),
    (("verify", _BD22, lambda r: r.update({"schema": "other/1"})),
     "cannot verify schema 'other/1'"),
], ids=["spec_list", "concurrence_3x3", "bd22_three_weights", "raw_flat_re",
        "report_no_separable", "report_other_schema"])
def test_input_errors_exit_2_with_their_message(capsys, argv, message):
    if argv[0] == "verify":
        _, spec, edit = argv
        report = run_json(capsys, "decompose", "--input", json.dumps(spec))
        argv = ("verify", "--input", json.dumps(_broken(report, edit)))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error (InputError): {message}\n")


def test_exit_code_on_unknown_family(capsys):
    for family in ("nope", "BD22", None, 3, [1], {"a": 1}):
        spec = json.dumps({"family": family})
        code, _, err = run_cli(capsys, "decompose", "--input", spec)
        assert code == 2 and f"error (InputError): unknown family {family!r}" in err, family


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


def test_selftest_reports_a_crashing_check_as_failed(capsys, monkeypatch):
    def crash(p):
        raise RuntimeError("boom")

    monkeypatch.setattr("lsdecomp.states.bd22_correlation", crash)
    code, out, err = run_cli(capsys, "selftest")
    assert (code, err) == (3, "")
    report = json.loads(out)
    assert report["all_ok"] is False
    assert [r["name"] for r in report["results"] if not r["ok"]] == ["bd22_vertex_correlation"]


def test_tol_help_names_the_verify_reconstruction_tolerance(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "verify takes it as its reconstruction tolerance (default 1e-10)" in out


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "separability", "--input", '{"family":"werner","d":3,"f":0.5}',
        "--format", "text",
    )
    assert code == 0
    assert "status: separable" in out


def test_text_format_prints_lists_and_matrix_blocks(capsys):
    spec = '{"family":"bd22","p":[0.7,0.1,0.1,0.1]}'
    # a list of numbers: one "- value" line each, one level deeper
    report = run_json(capsys, "concurrence", "--input", spec)
    _, out, _ = run_cli(capsys, "concurrence", "--input", spec, "--format", "text")
    for key in ("P", "k", "lambdas"):
        assert f"{key}:\n" + "".join(f"  - {v!r}\n" for v in report[key]) in out
    # a list of dicts: "- " before each dict, whose keys line up two levels deeper
    report = run_json(capsys, "selftest")
    _, out, _ = run_cli(capsys, "selftest", "--format", "text")
    items = "".join(f"  - name: {r['name']}\n    ok: True\n" for r in report["results"])
    assert out == f"all_ok: True\ncommand: selftest\nresults:\n{items}schema: lsd-selftest/1\n"
    # a matrix block: dims, im and re each on one line, as JSON
    report = run_json(capsys, "decompose", "--input", spec)
    _, out, _ = run_cli(capsys, "decompose", "--input", spec, "--format", "text")
    for name in ("entangled", "separable"):
        block = report[name]
        assert (f"{name}:\n  dims: [2, 2]\n  im: {json.dumps(block['im'])}\n"
                f"  re: {json.dumps(block['re'])}\n") in out


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
    "InfeasiblePoint",
    "NoConvergence",
    "NoDualCertificate",
    "NumericalError",
}


def test_exit_code_follows_error_base(capsys, monkeypatch):
    from lsdecomp import errors

    classes = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.LsdError)
        and cls is not errors.LsdError
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
    message = {
        "horodecki33": "alpha=6.0 outside [2, 5]",
        "werner": "Werner dimension must be >= 2, got 1",
        "multi_iso": "party count must be >= 2, got 1",
        "isotropic": "fidelity F=1.5 outside [0, 1]",
    }[spec["family"]]
    code, _, err = run_cli(capsys, "separability", "--input", json.dumps(spec))
    assert code == 2 and f"error (InputError): {message}" in err


@pytest.mark.parametrize("spec", [
    {"family": "werner", "d": 2.7, "f": -0.5},
    {"family": "werner", "d": True, "f": -0.5},
    {"family": "multi_iso", "d": 2, "n": 3.5, "s": 0.5},
    {"family": "raw", "dims": [2.5, 2], "re": (np.eye(4) / 4).tolist()},
    {"family": "raw", "dims": [True, 4], "re": (np.eye(4) / 4).tolist()},
])
def test_parse_spec_rejects_non_integral_integers(capsys, spec):
    code, _, err = run_cli(capsys, "decompose", "--input", json.dumps(spec))
    assert code == 2 and "error (InputError): malformed fields for family" in err
    assert "expected an integer, got " in err


@pytest.mark.parametrize("spec, field", [
    ({"family": "werner", "d": "2", "f": "-0.5"}, "d"),
    ({"family": "werner", "d": 2, "f": "-0.5"}, "f"),
    ({"family": "werner", "d": 2, "f": True}, "f"),
    ({"family": "bd22", "p": [True, False, False, False]}, "p"),
    ({"family": "icd", "theta": None, "p": [0.7, 0.1, 0.1, 0.1]}, "theta"),
])
def test_parse_spec_rejects_text_and_booleans_as_numbers(capsys, spec, field):
    code, _, err = run_cli(capsys, "decompose", "--input", json.dumps(spec))
    prefix = f"error (InputError): malformed fields for family {spec['family']!r}: "
    assert code == 2 and f"{prefix}field {field!r}: " in err


@pytest.mark.parametrize("part, entry", [("re", True), ("re", "1"), ("im", False), ("im", None)])
def test_raw_matrix_entries_must_be_numbers(capsys, part, entry):
    # |00><00| with one entry spelled as a boolean, text or null
    spec = {"family": "raw", "dims": [2, 2],
            "re": np.diag([1.0, 0, 0, 0]).tolist(), "im": np.zeros((4, 4)).tolist()}
    spec[part][0][0] = entry
    code, _, err = run_cli(capsys, "decompose", "--input", json.dumps(spec))
    assert code == 2
    assert ("error (InputError): malformed fields for family 'raw': "
            f"field {part!r}: expected a number, got {entry!r}") in err


@pytest.mark.parametrize("command", ["oracle", "verify", "decompose"])
@pytest.mark.parametrize("tol, message", [
    ("inf", "must be finite"), ("nan", "must be finite"), ("-inf", "must be finite"),
    ("-1", "must be >= 0, got -1.0"),
], ids=["inf", "nan", "-inf", "-1"])
def test_non_finite_tol_is_rejected(capsys, command, tol, message):
    # under a negative tolerance verify would fail every check (exit 3) and
    # the oracle would quietly search to its smallest gap
    spec = '{"family":"bd22","p":[0.7,0.1,0.1,0.1]}'
    with pytest.raises(SystemExit) as exc:
        cli.main([command, f"--tol={tol}", "--input", spec])
    assert exc.value.code == 2
    assert f"argument --tol: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-0.0", "0"])
def test_zero_tol_is_accepted(capsys, tol):
    code, _, _ = run_cli(capsys, "oracle", f"--tol={tol}", "--input",
                         '{"family":"bd22","p":[0.7,0.1,0.1,0.1]}')
    assert code == 0


def test_parse_spec_accepts_integral_floats(capsys):
    _, plain, _ = run_cli(capsys, "decompose", "--input", '{"family":"werner","d":3,"f":-0.5}')
    _, floated, _ = run_cli(capsys, "decompose", "--input", '{"family":"werner","d":3.0,"f":-0.5}')
    assert floated == plain


@pytest.mark.parametrize("command", ["separability", "decompose"])
def test_huge_party_count_is_rejected(capsys, command):
    # d^n is never formed for such n: 2^(10^10) would take 1.25 GB
    spec = '{"family":"multi_iso","d":2,"n":10000000000,"s":0.5}'
    code, _, err = run_cli(capsys, command, "--input", spec)
    assert code == 2
    assert "error (InputError): d^n = 2^10000000000 exceeds the supported maximum 64" in err


@pytest.mark.parametrize("command", ["decompose", "separability", "oracle"])
@pytest.mark.parametrize("spec", [
    {"family": "werner", "d": 9, "f": -0.5},
    {"family": "isotropic", "d": 9, "F": 0.5},
], ids=["werner", "isotropic"])
def test_werner_and_isotropic_sizes_are_capped(capsys, command, spec):
    # d = 9 would need an 81 x 81 state; the cap is checked before any matrix is built
    code, _, err = run_cli(capsys, command, "--input", json.dumps(spec))
    assert code == 2
    assert "error (InputError): d*d = 81 exceeds the supported maximum 64" in err
    smaller = json.dumps({**spec, "d": 8})
    assert run_json(capsys, "decompose", "--input", smaller)["lambda"] < 1.0


def _stock(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False,
                      default=np.ndarray.tolist) + "\n"


COMPLEX_RAW = {  # a 2x2 state with a nonzero imaginary part
    "family": "raw", "dims": [2, 2],
    "re": [[0.4, 0.0, 0.0, 0.3], [0.0, 0.1, 0.0, 0.0], [0.0, 0.0, 0.1, 0.0], [0.3, 0.0, 0.0, 0.4]],
    "im": [[0.0, 0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [-0.1, 0.0, 0.0, 0.0]],
}
BD22 = {"family": "bd22", "p": [0.7, 0.1, 0.1, 0.1]}
MULTI_ISO_64 = {"family": "multi_iso", "d": 2, "n": 6, "s": 0.5}


@pytest.mark.parametrize("argv", [
    *[("decompose", *flag, "--input", json.dumps(spec))
      for spec in (BD22, MULTI_ISO_64, COMPLEX_RAW) for flag in ((), ("--oracle",))],
    ("separability", "--input", json.dumps(MULTI_ISO_64)),
    ("concurrence", "--input", json.dumps(COMPLEX_RAW)),
    ("oracle", "--input", json.dumps(COMPLEX_RAW)),
    ("selftest",),
], ids=["decompose_bd22", "decompose_oracle_bd22", "decompose_multi_iso_64",
        "decompose_oracle_multi_iso_64", "decompose_raw_complex", "decompose_oracle_raw_complex",
        "separability", "concurrence", "oracle", "selftest"])
def test_reports_print_as_the_stock_encoder_does(capsys, monkeypatch, argv):
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, fmt: (emitted.append(report), emit(report, fmt)))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert len(emitted) == 1 and out == _stock(emitted[0])
    if argv[0] == "decompose":  # and the report it verifies
        emitted.clear()
        code, again, err = run_cli(capsys, "verify", "--input", out)
        assert code == 0, err
        assert again == _stock(emitted[0])


def test_hand_made_report_prints_as_the_stock_encoder_does():
    report = {
        "empty_object": {}, "empty_list": [], "nested": {"inner": {}, "rows": [[], [1, 2.5]]},
        "text": "a, b, and c", "unicode": "fidélité ≥ 1/d", "flags": [True, False, None],
        "mixed": [1, "1", 1.0, True, None, {"k": [-0.0, 5e-324, 1e300]}],
        "oracle": {"gap": None, "slackness": None,
                   "duality_note": "no dual certificate: A, B, C (tol=1e-09)"},
        "numbers": [0, -1, 2 ** 70, 0.1, -2.5e-17, 1e22], "float64": np.float64(0.25),
    }
    assert cli._dump(report) + "\n" == _stock(report)


def _raw_echo(dims, re):
    return {"input": {"family": "raw", "dims": dims, "re": re,
                      "im": [[0.0] * len(row) for row in re]}}


def test_hand_made_matrices_print_as_the_stock_encoder_does():
    # lists of rows, such as an echoed raw input, are written entry by entry
    signed = np.diag([0.5, 0.25, 0.25, 0.0]).tolist()
    signed[0][3], signed[3][0], signed[1][2] = -0.0, 5e-324, -0.0
    report = {
        "one_by_one": [[0.5]], "ints_and_floats": [[1, 2.5, -3, 1e-300, 2 ** 70]],
        "empty_row": [[1, 2.5], [], [3]], "only_empty": [[], []],
        "not_all_numbers": [[1, True], [np.float64(0.5)], [None]], "cube": [[[1]], [[2.5, 0]]],
        "raw_signed_4x4": _raw_echo([2, 2], signed),
        "raw_ints": _raw_echo([2, 1], [[1, 0], [0, 0]]),
        "raw_2x3": _raw_echo([2, 3], (np.eye(6) / 6).tolist()),
        "raw_empty_row": _raw_echo([2, 2], [[1.0, 0.0], []]),
    }
    assert cli._dump(report) + "\n" == _stock(report)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize("place", [
    lambda v: v,
    lambda v: {"a": [1, [2.5, [v, float("nan")]]], "z": float("nan")},
    lambda v: [{"b": 1, "a": v}, float("nan")],
    lambda v: {"block": np.array([[0.5, -0.0], [v, float("nan")]])},
], ids=["top", "nested_list", "dict_in_list", "float64_block"])
def test_non_finite_numbers_raise_the_stock_message(place, value):
    # the first one met, in sorted key, list and row-major order, is named
    with pytest.raises(ValueError) as stock:
        _stock(place(value))
    with pytest.raises(ValueError) as ours:
        cli._dump(place(value))
    assert str(ours.value) == str(stock.value)
    assert str(ours.value).endswith(": " + repr(value))


def test_lists_nested_900_deep_print_as_the_stock_encoder_does():
    obj = _nested([0.5], 900)
    assert cli._dump(obj) + "\n" == _stock(obj)


def test_verify_echoes_the_deepest_input_it_reads(capsys):
    report = run_json(capsys, "decompose", "--input", json.dumps(BD22))
    report["input"]["note"] = "deep"  # ignored by the parser, echoed by verify
    head, tail = json.dumps(report).split('"deep"')
    depth = sys.getrecursionlimit()
    while True:  # from the deepest conceivable down to the deepest the reader parses
        code, out, err = run_cli(capsys, "verify", "--input",
                                 head + "[" * depth + "]" * depth + tail)
        if err != "error (InputError): input is nested too deeply to parse\n":
            break
        depth -= 1
    assert depth > 900
    assert (code, err) == (0, "")
    echoed = json.loads(out)
    assert out == _stock(echoed)
    assert echoed["input"] == {**report["input"], "note": _nested([], depth - 1)}


def test_verify_echoes_a_raw_input_of_integers_as_integers(capsys):
    pure = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    spec = {"family": "raw", "dims": [2, 2], "re": pure, "im": [[0] * 4] * 4}
    report = run_json(capsys, "decompose", "--input", json.dumps(spec))
    report["input"] = spec
    code, out, err = run_cli(capsys, "verify", "--input", json.dumps(report))
    assert code == 0, err
    echoed = json.loads(out)["input"]
    assert echoed == spec
    assert {type(x) for row in echoed["re"] + echoed["im"] for x in row} == {int}


@pytest.mark.parametrize("obj", [
    [[1, True]], [[None, 0.5]], [["1", 2]], [["a, b"], [1]], [["], ["]],
    [[1], [[2]], 3], [[1, [2]], [3]], [[0.5], 2], [[1], {"k": [2]}],
], ids=["bool", "none", "string", "string_with_separator", "string_of_brackets",
        "nested_then_number", "nested_in_row", "number_after_row", "dict_after_row"])
def test_list_of_lists_that_is_no_matrix_prints_as_the_stock_encoder_does(obj):
    # rows mixed with other entries, or holding other than numbers
    assert cli._dump(obj) + "\n" == _stock(obj)


_COMPLEX = np.asarray(COMPLEX_RAW["re"]) + 1j * np.asarray(COMPLEX_RAW["im"])


@pytest.mark.parametrize("block", [
    np.array([[-0.0, 0.0, -0.0], [0.0, 0.0, -0.0]]),
    np.array([[5e-324, 1e-5, 1e16], [1e300, -5e-324, -1e-5], [-1e16, -1e300, -0.5]]),
    np.array([[0.25]]),
    np.random.default_rng(16).standard_normal((8, 8)),
    np.ascontiguousarray(_COMPLEX.real),
    np.ascontiguousarray(_COMPLEX.imag),
    _COMPLEX.real,  # a strided view
    np.arange(6).reshape(2, 3),  # not float64: written from its list
    np.array([0.5, -0.0]),  # not a matrix: written from its list
], ids=["signed_zeros", "extremes", "one_by_one", "dense_8x8", "complex_re", "complex_im",
        "strided", "ints", "vector"])
def test_array_blocks_print_as_the_stock_encoder_does(block):
    # an array is written from its distinct entries, a list entry by entry
    report = {"block": {"dims": [2, 2], "re": block}, "after": [block, 1]}
    plain = {"block": {"dims": [2, 2], "re": block.tolist()}, "after": [block.tolist(), 1]}
    assert cli._dump(report) + "\n" == _stock(report) == _stock(plain)


def test_a_decompose_and_verify_round_trip_does_not_import_numpy_ma():
    # numpy.ma, which np.unique imports on its first call, costs a fresh
    # process about 14 ms of CPU and 1.7 MiB of memory
    code = (
        "import io, sys, contextlib\n"
        "from lsdecomp import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert cli.main(['decompose', '--input', {json.dumps(MULTI_ISO_64)!r}]) == 0\n"
        "    assert cli.main(['verify', '--input', out.getvalue()]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_non_finite_value_in_an_echoed_input_is_an_input_error(capsys):
    report = run_json(capsys, "decompose", "--input", json.dumps(BD22))
    for value, shown in ((float("nan"), "nan"), (float("inf"), "inf")):
        report["input"]["note"] = value  # ignored by the parser, echoed by verify
        text = json.dumps(report)  # writes NaN and Infinity
        code, out, err = run_cli(capsys, "verify", "--input", text)
        assert code == 2 and out == ""
        assert err == f"error (InputError): Out of range float values are not JSON compliant: {shown}\n"


@pytest.mark.parametrize("field, edit, value", [
    ("lambda", lambda r: r.update({"lambda": float("nan")}), "nan"),
    ("lambda", lambda r: r.update({"lambda": float("inf")}), "inf"),
    ("lambda", lambda r: r.update({"lambda": float("-inf")}), "-inf"),
    ("entangled", lambda r: r["entangled"]["re"][1].__setitem__(2, float("nan")), "nan"),
    ("lambda", lambda r: r.update({"lambda": 10**400}), "an integer beyond float range"),
    ("entangled", lambda r: r["entangled"]["re"][1].__setitem__(2, -10**400),
     "an integer beyond float range"),
], ids=["lambda_nan", "lambda_inf", "lambda_minus_inf", "entangled_re_nan", "lambda_huge",
        "entangled_re_huge"])
def test_verify_rejects_non_finite_report_numbers(capsys, field, edit, value):
    report = run_json(capsys, "decompose", "--input", json.dumps(BD22))
    text = json.dumps(_broken(report, edit))  # writes NaN and Infinity, which json.loads reads
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "verify", "--input", text)
    assert code == 2 and out == ""
    part = "field 're': " if field == "entangled" else ""
    assert err == (f"error (InputError): malformed report field {field!r}: {part}"
                   f"expected a finite number, got {value}\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("edit", [
    lambda r: r["entangled"]["re"][0].__setitem__(0, 1e200),
    lambda r: r.update({"lambda": 1e308}),
], ids=["entangled_re_1e200", "lambda_1e308"])
def test_verify_rejects_report_numbers_that_overflow_its_checks(capsys, edit):
    # finite numbers, read as given, whose reconstruction error overflows
    report = run_json(capsys, "decompose", "--input", json.dumps(BD22))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "verify", "--input", json.dumps(_broken(report, edit)))
    assert (code, out) == (3, "")
    assert err == "error (NumericalError): check 'reconstruction_error' is not finite: inf\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _corner_spec(x, y):
    """A raw 2x2 spec whose 4x4 `re` holds x at [0][3] and y at [3][0]."""
    re = np.diag([0.5, 0.0, 0.0, 0.5])
    re[0, 3], re[3, 0] = x, y
    return json.dumps({"family": "raw", "dims": [2, 2], "re": re.tolist()})


OVERFLOW = "matrix contains non-finite entries or its norm overflows a double"


@pytest.mark.parametrize("command", ["decompose", "separability", "concurrence", "oracle"])
@pytest.mark.parametrize("x, y, message", [
    (1e200, 1e200, OVERFLOW),
    (1e200, -1e200, OVERFLOW),
    (1e160, 1e160, OVERFLOW),
    (8e153, -8e153, "matrix is not Hermitian within 1e-12"),  # only the skew part overflows
], ids=["symmetric_1e200", "antisymmetric_1e200", "symmetric_1e160", "skew_8e153"])
def test_raw_matrices_whose_norms_overflow_are_rejected(capsys, command, x, y, message):
    # a norm of inf made every tolerance scaled by it inf, so any matrix passed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, command, "--input", _corner_spec(x, y))
    assert (code, out) == (2, "")
    assert err == f"error (InputError): {message}\n"
    assert caught == []


def test_verify_rejects_a_state_with_no_subsystems(capsys):
    # a 1x1 state and separable block with empty dims; verify cuts the state
    # after its first subsystem, which it does not have
    spec = {"family": "raw", "dims": [], "re": [[1.0]]}
    report = {"schema": "lsd-report/1", "input": spec, "lambda": 1.0,
              "separable": {"re": [[1.0]], "im": [[0.0]], "dims": []}}
    message = "error (InputError): dims must name at least one subsystem, got ()\n"
    assert run_cli(capsys, "verify", "--input", json.dumps(report)) == (2, "", message)
    for command in ("decompose", "separability", "concurrence", "oracle"):
        assert run_cli(capsys, command, "--input", json.dumps(spec)) == (2, "", message)


def test_verify_rejects_a_separable_block_whose_norm_overflows(capsys):
    report = run_json(capsys, "decompose", "--input", json.dumps(BD22))

    def edit(r):
        r["separable"]["re"][0][3] = r["separable"]["re"][3][0] = 1e200

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "verify", "--input", json.dumps(_broken(report, edit)))
    assert (code, out) == (2, "")
    assert err == f"error (InputError): {OVERFLOW}\n"
    assert caught == []


@pytest.mark.parametrize("field, edit, shapes", [
    ("entangled", lambda r: r["entangled"].update({"im": [[0.0]]}), ((4, 4), (1, 1))),
    ("separable", lambda r: r["separable"].update({"im": [[0.0] * 4]}), ((4, 4), (1, 4))),
    ("entangled", lambda r: r["entangled"].update({"re": [[0.0]]}), ((1, 1), (4, 4))),
], ids=["entangled_im_1x1", "separable_im_row", "entangled_re_1x1"])
def test_verify_rejects_re_and_im_blocks_of_different_shapes(capsys, field, edit, shapes):
    # re + 1j * im would broadcast the smaller part over the larger
    report = run_json(capsys, "decompose", "--input", json.dumps(BD22))
    code, out, err = run_cli(capsys, "verify", "--input", json.dumps(_broken(report, edit)))
    assert (code, out) == (2, "")
    assert err == (f"error (InputError): malformed report field {field!r}: "
                   f"'re' has shape {shapes[0]} and 'im' has shape {shapes[1]}\n")


def test_raw_spec_rejects_an_im_of_another_shape_than_re(capsys):
    spec = {"family": "raw", "dims": [2, 2], "re": (np.eye(4) / 4).tolist(), "im": [[0.0]]}
    code, out, err = run_cli(capsys, "decompose", "--input", json.dumps(spec))
    assert (code, out) == (2, "")
    assert err == ("error (InputError): malformed fields for family 'raw': "
                   "'re' has shape (4, 4) and 'im' has shape (1, 1)\n")


def _nested(value, depth):
    """`value` inside `depth` lists."""
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("command",
                         ["decompose", "separability", "concurrence", "oracle", "verify"])
def test_input_nested_too_deeply_for_the_json_reader_exits_2(capsys, command):
    code, out, err = run_cli(capsys, command, "--input", "[" * 100000)
    assert (code, out, err) == (2, "", "error (InputError): input is nested too deeply to parse\n")


@pytest.mark.parametrize("command", ["decompose", "separability", "concurrence", "oracle"])
def test_raw_matrix_of_more_than_32_dimensions_exits_2(capsys, command):
    # numpy's flat iterator stops at 32 dimensions
    spec = {"family": "raw", "dims": [2, 2], "re": _nested(1.0, 40)}
    code, out, err = run_cli(capsys, command, "--input", json.dumps(spec))
    assert (code, out, err) == (2, "", "error (InputError): expected a 2-d matrix, got ndim=40\n")


def test_verify_rejects_a_separable_block_of_more_than_32_dimensions(capsys):
    report = run_json(capsys, "decompose", "--input", json.dumps(BD22))
    report["separable"]["re"] = _nested(1.0, 40)
    code, out, err = run_cli(capsys, "verify", "--input", json.dumps(report))
    assert (code, out) == (2, "")
    assert err == ("error (InputError): malformed report field 'separable': "
                   f"'re' has shape {(1,) * 40} and 'im' has shape (4, 4)\n")


def test_an_input_file_that_is_not_utf8_is_named(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "decompose", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error (InputError): cannot read input file {str(path)!r}: 'utf-8' codec "
                   "can't decode byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("spec, field", [
    ({"family": "werner", "d": 2, "f": float("nan")}, "f"),
    ({"family": "bd22", "p": [float("inf"), 0, 0, 0]}, "p"),
    ({"family": "raw", "dims": [2, 2], "re": [[float("nan")] * 4] * 4}, "re"),
    ({"family": "werner", "d": 2, "f": 10**400}, "f"),
    ({"family": "bd22", "p": [10**400, 0, 0, 0]}, "p"),
    ({"family": "raw", "dims": [2, 2], "re": [[0.25, 0, 0, 0], [0, 0.25, -10**400, 0],
                                              [0, 0, 0.25, 0], [0, 0, 0, 0.25]]}, "re"),
])
def test_parse_spec_rejects_non_finite_numbers(capsys, spec, field):
    code, _, err = run_cli(capsys, "decompose", "--input", json.dumps(spec))
    assert code == 2
    assert (f"error (InputError): malformed fields for family {spec['family']!r}: "
            f"field {field!r}: expected a finite number, got ") in err
    assert "0000" not in err  # a huge integer's digits are not echoed


SEPARABLE_BD22 = {"family": "bd22", "p": [  # renormalized twice, its state moves by an ulp
    0.09358658134961685, 0.004869238048927678, 0.4857131178516458, 0.4158310627498098]}


def test_separable_split_reconstructs_its_state_exactly(capsys):
    report = run_json(capsys, "decompose", "--input", json.dumps(SEPARABLE_BD22))
    assert report["lambda"] == 1.0
    assert report["checks"]["reconstruction_error"] == 0.0
    assert report["checks"]["residual_min_eig"] == 0.0


@pytest.mark.parametrize("argv", [("decompose", "--oracle"), ("oracle",)])
@pytest.mark.parametrize("spec", [BD22, SEPARABLE_BD22, COMPLEX_RAW], ids=["bd22", "bd22_sep", "raw"])
def test_decompose_and_oracle_build_each_state_once(capsys, monkeypatch, argv, spec):
    def refuse(*_):
        raise AssertionError("the state was built a second time")

    monkeypatch.setattr(cli, "build", refuse)
    run_json(capsys, *argv, "--input", json.dumps(spec))
