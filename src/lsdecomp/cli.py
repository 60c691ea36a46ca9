"""Command-line interface.

Commands read a JSON state spec (file, inline string, or stdin) and write a
machine-readable report to stdout; diagnostics go to stderr. Reports are
deterministic byte-for-byte for a fixed input and seed. Exit codes: 0 on
success, 2 on input/validation errors, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing

import numpy as np

from . import lsd, oracle, separability, wootters
from .errors import LsdError, NumericalError, ParseError, UnsupportedSpec
from .states import (
    FAMILIES,
    FAMILY_BY_NAME,
    FAMILY_BY_SPEC,
    DensityMatrix,
    Raw,
    StateSpec,
    build,
)

SCHEMA = "lsd-report/1"

# each family's JSON fields are its spec's fields: name -> type
_FIELDS = {fam.name: typing.get_type_hints(fam.spec) for fam in FAMILIES}


def _integer(value) -> int:
    """An integer field: integral numbers are accepted, booleans and
    fractional or non-finite numbers are not."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _decode(tp, value):
    if typing.get_origin(tp) is tuple:  # a probability vector
        return tuple(float(v) for v in value)
    if tp is int:
        return _integer(value)
    return tp(value)


def parse_spec(obj) -> StateSpec:
    """Parse the flat tagged JSON object {"family": ..., ...} into a StateSpec.

    A family's JSON fields are its spec's fields; a raw matrix comes as its
    real part "re" and an optional imaginary part "im".
    """
    if not isinstance(obj, dict):
        raise ParseError(f"spec must be a JSON object, got {type(obj).__name__}")
    family = obj.get("family")
    if not isinstance(family, str) or family not in FAMILY_BY_NAME:
        raise UnsupportedSpec(f"unknown family {family!r}")
    try:
        if family == "raw":
            dims = tuple(_integer(v) for v in obj["dims"])
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj["im"], dtype=float) if "im" in obj else np.zeros_like(re)
            return Raw(dims=dims, matrix=re + 1j * im)
        args = {name: _decode(tp, obj[name]) for name, tp in _FIELDS[family].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed fields for family {family!r}: {exc}") from exc
    return FAMILY_BY_NAME[family].spec(**args)


def spec_to_json(spec: StateSpec) -> dict:
    name = FAMILY_BY_SPEC[type(spec)].name
    if name == "raw":
        return {
            "family": "raw",
            "dims": list(spec.dims),
            "re": np.asarray(spec.matrix).real.tolist(),
            "im": np.asarray(spec.matrix).imag.tolist(),
        }
    out = {"family": name}
    for field in _FIELDS[name]:
        value = getattr(spec, field)
        out[field] = list(value) if isinstance(value, tuple) else value
    return out


def _matrix_block(mat: np.ndarray, dims) -> dict:
    return {
        "dims": [int(d) for d in dims],
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


def _read_input(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            # allow inline JSON as a convenience
            text = path
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"input is not valid JSON: {exc}") from exc


def _decompose_report(spec: StateSpec, with_oracle: bool, tol: float | None, seed: int) -> dict:
    rho = build(spec)
    dec = lsd.decompose(spec)
    check = lsd.verify(rho, dec)
    report = {
        "schema": SCHEMA,
        "command": "decompose",
        "input": spec_to_json(spec),
        "lambda": dec.lam,
        "method": dec.method,
        "separable": _matrix_block(dec.separable_part.mat, dec.separable_part.dims),
        "checks": {
            "reconstruction_error": check.residual_norm,
            "separable_status": check.separable_verdict.status,
            "residual_min_eig": check.residual_min_eig,
            "residual_rank": check.residual_rank,
            "residual_purity": check.entangled_purity,
        },
    }
    if dec.lam < 1.0:
        report["entangled"] = _matrix_block(dec.entangled_part, rho.dims)
    if tuple(rho.dims) == (2, 2):
        report["concurrence"] = wootters.concurrence(rho)
    if with_oracle:
        report["oracle"] = _oracle_block(spec, rho, dec, tol, seed)
    return report


def _oracle_block(spec: StateSpec, rho: DensityMatrix, dec, tol: float | None, seed: int) -> dict:
    family = oracle.family_for_spec(spec)
    search_tol = tol if tol is not None else 1e-7
    lam_num, sigma = oracle.bsa_search(rho, family, tol=search_tol, seed=seed)
    block = {
        "lambda_numeric": lam_num,
        "delta": abs(lam_num - dec.lam),
        "family_restricted": True,
    }
    try:
        rep = oracle.duality_check(oracle.bsa_as_sdp(rho, dec.separable_part), np.array([dec.lam]))
        block["gap"] = rep.gap
        block["slackness"] = rep.slackness_residual
    except LsdError as exc:
        block["gap"] = None
        block["slackness"] = None
        block["duality_note"] = str(exc)
    return block


def _separability_report(spec: StateSpec) -> dict:
    if isinstance(spec, Raw):
        verdict = separability.ppt_check(build(spec))
    else:
        verdict = separability.family_region(spec)
    return {
        "schema": "lsd-separability/1",
        "command": "separability",
        "input": spec_to_json(spec),
        "status": verdict.status,
        "margin": verdict.margin,
        "detail": verdict.detail,
    }


def _concurrence_report(spec: StateSpec) -> dict:
    rho = build(spec)
    if tuple(rho.dims) != (2, 2):
        raise UnsupportedSpec(f"concurrence needs a 2x2 state, got dims {rho.dims}")
    data = wootters.wootters_basis(rho)
    return {
        "schema": "lsd-concurrence/1",
        "command": "concurrence",
        "input": spec_to_json(spec),
        "lambdas": data.lambdas.tolist(),
        "k": data.k.tolist(),
        "P": data.P.tolist(),
        "concurrence": data.concurrence,
    }


def _oracle_report(spec: StateSpec, tol: float | None, seed: int) -> dict:
    rho = build(spec)
    dec = lsd.decompose(spec)
    return {
        "schema": "lsd-oracle/1",
        "command": "oracle",
        "input": spec_to_json(spec),
        "lambda_closed": dec.lam,
        "method": dec.method,
        "oracle": _oracle_block(spec, rho, dec, tol, seed),
    }


def _verify_report(report: dict, tol: float | None) -> tuple[dict, bool]:
    for key in ("schema", "input", "lambda", "separable"):
        if key not in report:
            raise ParseError(f"decomposition report misses required key {key!r}")
    if report["schema"] != SCHEMA:
        raise UnsupportedSpec(f"cannot verify schema {report['schema']!r}")
    spec = parse_spec(report["input"])
    rho = build(spec)
    sep_block = report["separable"]
    sep_mat = np.asarray(sep_block["re"], dtype=float) + 1j * np.asarray(sep_block["im"], dtype=float)
    sep = DensityMatrix(sep_mat, tuple(sep_block["dims"]))
    lam = float(report["lambda"])
    if "entangled" in report:
        ent = np.asarray(report["entangled"]["re"], dtype=float) + 1j * np.asarray(
            report["entangled"]["im"], dtype=float
        )
    else:
        ent = np.zeros_like(rho.mat)
    dec = lsd.LSDecomposition(
        lam=lam,
        separable_part=sep,
        entangled_part=ent,
        residual_norm=0.0,
        method=str(report.get("method", "unknown")),
    )
    check = lsd.verify(rho, dec)
    recon_tol = tol if tol is not None else 1e-10
    sep_ok = check.separable_verdict.status != separability.ENTANGLED
    checks = {
        "reconstruction_error": check.residual_norm,
        "reconstruction_ok": bool(check.residual_norm <= recon_tol),
        "separable_status": check.separable_verdict.status,
        "separable_ok": bool(sep_ok),
        "residual_min_eig": check.residual_min_eig,
        "residual_psd_ok": bool(check.residual_min_eig >= -1e-9),
        "residual_rank": check.residual_rank,
        "residual_purity": check.entangled_purity,
        "lambda": lam,
    }
    ok = checks["reconstruction_ok"] and checks["separable_ok"] and checks["residual_psd_ok"]
    out = {
        "schema": "lsd-verify/1",
        "command": "verify",
        "input": report["input"],
        "all_ok": bool(ok),
        "checks": checks,
    }
    return out, ok


def _selftest() -> tuple[dict, bool]:
    from . import matcore, states

    checks: list[tuple[str, bool]] = []

    def run(name, fn):
        try:
            checks.append((name, bool(fn())))
        except Exception:  # noqa: BLE001 - a selftest must never crash
            checks.append((name, False))

    run("identity_eigenvalues", lambda: np.allclose(
        matcore.hermitian_eig(np.eye(2)).values, [1.0, 1.0]))
    run("sigma_y_eigenvalues", lambda: np.allclose(
        matcore.hermitian_eig(matcore.SIGMA_Y).values, [-1.0, 1.0]))
    run("kron_identity", lambda: np.allclose(
        matcore.kron(np.eye(2), np.eye(2)), np.eye(4)))
    run("partial_transpose_involution", lambda: np.allclose(
        matcore.partial_transpose(
            matcore.partial_transpose(np.arange(36.0).reshape(6, 6), (2, 3)), (2, 3)),
        np.arange(36.0).reshape(6, 6)))
    run("bell_orthonormality", lambda: np.allclose(
        states.bell_basis_22() @ states.bell_basis_22().conj().T, np.eye(4)))
    run("bd22_vertex_correlation", lambda: states.bd22_correlation([1, 0, 0, 0]) == (1.0, -1.0, 1.0))
    run("singlet_ppt_negative", lambda: abs(
        separability.ppt_check(states.make_bd22([0, 0, 0, 1])).margin + 0.5) < 1e-12)
    run("werner_f_minus1_is_singlet", lambda: np.allclose(
        states.make_werner(2, -1.0).mat,
        states.make_bd22([0, 0, 0, 1]).mat))
    run("isotropic_fidelity", lambda: abs(np.real(
        states.max_entangled(3).conj() @ states.make_isotropic(3, 0.4).mat
        @ states.max_entangled(3)) - 0.4) < 1e-12)
    run("multi_iso_threshold", lambda: abs(
        separability.multi_iso_threshold(2, 3) - 0.2) < 1e-15)
    run("bd22_weight", lambda: abs(lsd.lsd_bd22([0.7, 0.1, 0.1, 0.1]).lam - 0.6) < 1e-12)
    run("werner_weight", lambda: abs(lsd.lsd_werner(2, -0.5).lam - 0.5) < 1e-12)
    run("isotropic_weight", lambda: abs(lsd.lsd_isotropic(3, 0.5).lam - 0.75) < 1e-12)
    run("horodecki_weight", lambda: abs(lsd.lsd_horodecki33(4.0).lam - 0.5) < 1e-12)
    run("multi_iso_weight", lambda: abs(lsd.lsd_multi_iso(2, 3, 0.6).lam - 0.5) < 1e-12)
    run("singlet_concurrence", lambda: abs(
        wootters.concurrence(states.make_bd22([0, 0, 0, 1])) - 1.0) < 1e-12)
    run("fixed_weight_min_ratio", lambda: abs(oracle.lambda_max_fixed(
        states.make_bd22([0.7, 0.1, 0.1, 0.1]),
        states.make_bd22([0.5, 1 / 6, 1 / 6, 1 / 6])) - 0.6) < 1e-12)

    def duality_ok():
        rho = states.make_bd22([0.7, 0.1, 0.1, 0.1])
        sig = states.make_bd22([0.5, 1 / 6, 1 / 6, 1 / 6])
        rep = oracle.duality_check(oracle.bsa_as_sdp(rho, sig), np.array([0.6]))
        return abs(rep.gap) < 1e-9 and rep.slackness_residual < 1e-9

    run("duality_certificate", duality_ok)
    run("search_bd22", lambda: abs(oracle.bsa_search(
        states.make_bd22([0.7, 0.1, 0.1, 0.1]), oracle.bd22_family())[0] - 0.6) < 1e-9)
    run("search_rank2_bd22", lambda: abs(oracle.bsa_search(
        states.make_bd22([0.7, 0.3, 0.0, 0.0]), oracle.bd22_family())[0] - 0.6) < 1e-9)

    ok = all(flag for _, flag in checks)
    report = {
        "schema": "lsd-selftest/1",
        "command": "selftest",
        "all_ok": bool(ok),
        "results": [{"name": n, "ok": bool(f)} for n, f in checks],
    }
    return report, ok


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))
        sys.stdout.write("\n")
        return
    _emit_text(report, indent="")


def _emit_text(obj, indent: str) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)) and key not in ("re", "im", "dims"):
                sys.stdout.write(f"{indent}{key}:\n")
                _emit_text(val, indent + "  ")
            else:
                sys.stdout.write(f"{indent}{key}: {_fmt_scalar(val)}\n")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, dict):
                _emit_text(item, indent + "  ")
            else:
                sys.stdout.write(f"{indent}- {_fmt_scalar(item)}\n")
    else:
        sys.stdout.write(f"{indent}{_fmt_scalar(obj)}\n")


def _fmt_scalar(val) -> str:
    if isinstance(val, float):
        return repr(val)
    if isinstance(val, (list, dict)):
        return json.dumps(val)
    return str(val)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsdecomp",
        description="Optimal separable decompositions of structured quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_input in (
        ("decompose", True),
        ("separability", True),
        ("concurrence", True),
        ("oracle", True),
        ("verify", True),
        ("selftest", False),
    ):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("--input", required=True, help="path, '-' for stdin, or inline JSON")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override; the oracle search stops at a duality gap of "
                            "tol/1000 (at least 1e-12)")
        p.add_argument("--seed", type=int, default=0,
                       help="accepted for compatibility; the oracle search is deterministic")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name == "decompose":
            p.add_argument("--oracle", action="store_true", help="attach the numeric cross-check")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            report, ok = _selftest()
            _emit(report, args.format)
            return 0 if ok else 3
        payload = _read_input(args.input)
        if args.command == "verify":
            report, ok = _verify_report(payload, args.tol)
            _emit(report, args.format)
            return 0 if ok else 3
        spec = parse_spec(payload)
        if args.command == "decompose":
            report = _decompose_report(spec, args.oracle, args.tol, args.seed)
        elif args.command == "separability":
            report = _separability_report(spec)
        elif args.command == "concurrence":
            report = _concurrence_report(spec)
        else:
            report = _oracle_report(spec, args.tol, args.seed)
        _emit(report, args.format)
        return 0
    except LsdError as exc:
        sys.stderr.write(f"error ({type(exc).__name__}): {exc}\n")
        return 3 if isinstance(exc, NumericalError) else 2
    except np.linalg.LinAlgError as exc:  # a ValueError, but numerical
        sys.stderr.write(f"error (LinAlgError): {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error (ValueError): {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
