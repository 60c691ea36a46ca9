"""Command-line interface.

Commands read a JSON state spec (file, inline string, or stdin) and write a
machine-readable report to stdout; diagnostics go to stderr. Reports are
deterministic byte-for-byte for a fixed input. Exit codes: 0 on
success, 2 on input/validation errors, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import typing

import numpy as np

from . import lsd, oracle, separability, wootters
from .errors import InputError, LsdError, NumericalError
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
    """An integer field: integral JSON numbers are accepted; booleans, text
    and fractional or non-finite numbers are not."""
    if type(value) not in (int, float) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _number(value) -> float:
    """A real field: finite JSON numbers are accepted; booleans, text, NaN,
    infinities and integers too large for a float are not."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond float range, whose digits are not echoed
        raise ValueError("expected a finite number, got an integer beyond float range") from None
    raise ValueError(f"expected a finite number, got {value!r}")


def _decode(field: str, tp, value):
    try:
        if typing.get_origin(tp) is tuple:  # a probability vector
            return tuple(_number(v) for v in value)
        return _integer(value) if tp is int else _number(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {field!r}: {exc}") from exc


def _real_array(field: str, value) -> np.ndarray:
    """A matrix part: nested lists whose every entry passes `_number`. A
    list of rows of finite JSON numbers is read in one pass; anything else
    is walked entry by entry, so the error names the first bad entry."""
    try:
        if set(map(type, itertools.chain.from_iterable(value))) <= {int, float}:
            arr = np.asarray(value, dtype=float)
            if np.isfinite(arr).all():
                return arr
    except (TypeError, ValueError, OverflowError):
        pass
    arr = np.asarray(value, dtype=object)
    for entry in arr.ravel():  # arr.flat stops at 32 dimensions
        _decode(field, float, entry)
    return arr.astype(float)


def _same_shape(re: np.ndarray, im: np.ndarray) -> None:
    """The two parts of a matrix have one shape; re + 1j * im would
    broadcast them."""
    if re.shape != im.shape:
        raise ValueError(f"'re' has shape {re.shape} and 'im' has shape {im.shape}")


def parse_spec(obj) -> StateSpec:
    """Parse the flat tagged JSON object {"family": ..., ...} into a StateSpec.

    A family's JSON fields are its spec's fields; a raw matrix comes as its
    real part "re" and an optional imaginary part "im".
    """
    if not isinstance(obj, dict):
        raise InputError(f"spec must be a JSON object, got {type(obj).__name__}")
    family = obj.get("family")
    if not isinstance(family, str) or family not in FAMILY_BY_NAME:
        raise InputError(f"unknown family {family!r}")
    try:
        if family == "raw":
            dims = tuple(_integer(v) for v in obj["dims"])
            re = _real_array("re", obj["re"])
            im = _real_array("im", obj["im"]) if "im" in obj else np.zeros_like(re)
            _same_shape(re, im)
            return Raw(dims=dims, matrix=re + 1j * im)
        args = {name: _decode(name, tp, obj[name]) for name, tp in _FIELDS[family].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed fields for family {family!r}: {exc}") from exc
    return FAMILY_BY_NAME[family].spec(**args)


def spec_to_json(spec: StateSpec) -> dict:
    name = FAMILY_BY_SPEC[type(spec)].name
    if name == "raw":
        mat = np.asarray(spec.matrix)
        return {"family": "raw", "dims": [int(d) for d in spec.dims],
                "re": mat.real.tolist(), "im": mat.imag.tolist()}
    out = {"family": name}
    for field in _FIELDS[name]:
        value = getattr(spec, field)
        out[field] = list(value) if isinstance(value, tuple) else value
    return out


def _matrix_block(mat: np.ndarray, dims) -> dict:
    """A report's matrix block; `_dump` writes its parts from the arrays."""
    return {
        "dims": [int(d) for d in dims],
        "re": np.ascontiguousarray(mat.real),
        "im": np.ascontiguousarray(mat.imag),
    }


def _read_input(path: str) -> dict:
    """The JSON value in the file at `path`, on stdin for "-", or, when no
    file can be opened there, in `path` itself."""
    reason = None
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            text, reason = path, exc.strerror
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot read input file {path!r}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if reason is not None and not text.lstrip().startswith(("{", "[", '"')):
            raise InputError(f"cannot read input file {path!r}: {reason}") from None
        raise InputError(f"input is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputError("input is nested too deeply to parse") from None


def _checks(check: lsd.VerificationReport) -> dict:
    """The `checks` block of a decompose report; verify adds its flags."""
    return {
        "reconstruction_error": check.residual_norm,
        "separable_status": check.separable_verdict.status,
        "residual_min_eig": check.residual_min_eig,
        "residual_rank": check.residual_rank,
        "residual_purity": check.entangled_purity,
    }


def _decompose_report(spec: StateSpec, with_oracle: bool, tol: float | None) -> dict:
    dec = lsd.decompose(spec)
    rho = dec.state
    report = {
        "schema": SCHEMA,
        "command": "decompose",
        "input": spec_to_json(spec),
        "lambda": dec.lam,
        "method": dec.method,
        "separable": _matrix_block(dec.separable_part.mat, dec.separable_part.dims),
        "checks": _checks(lsd.verify(dec)),
    }
    if dec.lam < 1.0:
        report["entangled"] = _matrix_block(dec.entangled_part, rho.dims)
    if tuple(rho.dims) == (2, 2):
        report["concurrence"] = wootters.concurrence(rho)
    if with_oracle:
        report["oracle"] = _oracle_block(spec, dec, tol)
    return report


def _oracle_block(spec: StateSpec, dec: lsd.LSDecomposition, tol: float | None) -> dict:
    family = oracle.family_for_spec(spec)
    search_tol = tol if tol is not None else 1e-7
    lam_num, sigma = oracle.bsa_search(dec.state, family, tol=search_tol)
    block = {
        "lambda_numeric": lam_num,
        "delta": abs(lam_num - dec.lam),
        "family_restricted": True,
    }
    try:
        sdp = oracle.bsa_as_sdp(dec.state, dec.separable_part)
        rep = oracle.duality_check(sdp, np.array([dec.lam]))
        block["gap"] = rep.gap
        block["slackness"] = rep.slackness_residual
    except LsdError as exc:
        block["gap"] = None
        block["slackness"] = None
        block["duality_note"] = str(exc)
    return block


def _separability_report(spec: StateSpec) -> dict:
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
        raise InputError(f"concurrence needs a 2x2 state, got dims {rho.dims}")
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


def _oracle_report(spec: StateSpec, tol: float | None) -> dict:
    dec = lsd.decompose(spec)
    return {
        "schema": "lsd-oracle/1",
        "command": "oracle",
        "input": spec_to_json(spec),
        "lambda_closed": dec.lam,
        "method": dec.method,
        "oracle": _oracle_block(spec, dec, tol),
    }


def _block_matrix(block) -> np.ndarray:
    """A report's matrix block; real when its `im` is all zeros. Adding
    that zero `im` keeps the signs of zero of re + 1j * im."""
    re, im = _real_array("re", block["re"]), _real_array("im", block["im"])
    _same_shape(re, im)
    return re + 1j * im if im.any() else re + im


def _read_report(report) -> lsd.LSDecomposition:
    """The decomposition a report describes, with the state it names;
    InputError names the first malformed field."""
    if not isinstance(report, dict):
        raise InputError(f"report must be a JSON object, got {type(report).__name__}")
    for key in ("schema", "input", "lambda", "separable"):
        if key not in report:
            raise InputError(f"decomposition report misses required key {key!r}")
    if report["schema"] != SCHEMA:
        raise InputError(f"cannot verify schema {report['schema']!r}")
    rho = build(parse_spec(report["input"]))
    field = "lambda"
    try:
        lam = _number(report["lambda"])
        field = "separable"
        sep = _block_matrix(report["separable"]), tuple(map(_integer, report["separable"]["dims"]))
        field = "entangled"
        ent = (_block_matrix(report["entangled"]) if "entangled" in report
               else np.zeros_like(rho.mat))
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise InputError(f"malformed report field {field!r}: {detail}") from exc
    if ent.shape != rho.mat.shape:
        raise InputError(f"malformed report field 'entangled': shape {ent.shape} "
                         f"does not match the state's {rho.mat.shape}")
    method = str(report.get("method", "unknown"))
    return lsd.LSDecomposition(lam, DensityMatrix(*sep), ent, method, state=rho)


def _verify_report(report, tol: float | None) -> tuple[dict, bool]:
    dec = _read_report(report)
    check = lsd.verify(dec)
    recon_tol = tol if tol is not None else 1e-10
    checks = {
        **_checks(check),
        "reconstruction_ok": bool(check.residual_norm <= recon_tol),
        "separable_ok": check.separable_verdict.status != separability.ENTANGLED,
        "residual_psd_ok": bool(check.residual_min_eig >= -lsd.RESIDUAL_PSD_TOL),
        "lambda": dec.lam,
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

    run("identity_eigenvalues", lambda: np.allclose(np.linalg.eigvalsh(np.eye(2)), [1.0, 1.0]))
    run("sigma_y_eigenvalues", lambda: np.allclose(
        np.linalg.eigvalsh(matcore.SIGMA_Y), [-1.0, 1.0]))
    run("kron_identity", lambda: np.allclose(
        np.kron(np.eye(2), np.eye(2)), np.eye(4)))
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
        states.multi_iso_threshold(2, 3) - 0.2) < 1e-15)
    run("bd22_weight", lambda: abs(lsd.lsd_bd22([0.7, 0.1, 0.1, 0.1]).lam - 0.6) < 1e-12)
    run("werner_weight", lambda: abs(lsd.decompose(states.Werner(2, -0.5)).lam - 0.5) < 1e-12)
    run("isotropic_weight", lambda: abs(lsd.decompose(states.Isotropic(3, 0.5)).lam - 0.75) < 1e-12)
    run("horodecki_weight", lambda: abs(lsd.decompose(states.Horodecki33(4.0)).lam - 0.5) < 1e-12)
    run("multi_iso_weight", lambda: abs(
        lsd.decompose(states.MultiIso(2, 3, 0.6)).lam - 0.5) < 1e-12)
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


# encodes in C, since its indent is None
_SCALAR = json.JSONEncoder(allow_nan=False)


def _dump(obj, pad: str = "\n") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
    default=np.ndarray.tolist)`, with the containers indented here.

    A float64 matrix, such as a report's `re` block, is written from its
    distinct entries: their bit patterns (so -0.0 and 0.0 stay apart) are
    sorted, the distinct ones encoded in one call, and each entry looked
    up. A list is written entry by entry, and a finite float with
    `float.__repr__`, as the encoder writes it, without building an encoder
    per entry. As with the stock encoder, the first NaN or infinity met
    raises `ValueError` naming it, and each level of nesting costs one
    frame, so any value `json.loads` returns can be written."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = []  # filled by a loop: a generator or map would add a frame per level
        for key in sorted(obj):
            items.append(_SCALAR.encode(key) + ": " + _dump(obj[key], inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2 or obj.dtype != np.float64 or not obj.size:
            return _dump(obj.tolist(), pad)
        bits = obj.view(np.uint64)
        keys = bits.flatten()
        keys.sort()
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        distinct = keys[first]
        try:
            text = _SCALAR.encode(distinct.view(np.float64).tolist())
        except ValueError:  # raised again, for the first non-finite entry in row-major order
            return _dump(obj.tolist(), pad)
        cells = np.array(text[1:-1].split(", "), dtype=object)[distinct.searchsorted(bits)]
        deeper = inner + "  "
        rows = ("[" + deeper + ("," + deeper).join(row) + inner + "]" for row in cells.tolist())
        return "[" + inner + ("," + inner).join(rows) + pad + "]"
    if isinstance(obj, (list, tuple)) and obj:
        items = []
        for item in obj:
            items.append(_dump(item, inner))
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)  # what the encoder writes; repr(np.float64) differs
        raise ValueError("Out of range float values are not JSON compliant: " + repr(obj))
    return _SCALAR.encode(obj)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        try:
            text = _dump(report)
        except ValueError as exc:  # NaN or infinity in an echoed input
            raise InputError(str(exc)) from exc
        sys.stdout.write(text + "\n")
        return
    _emit_text(report, indent="")


def _emit_text(obj, indent: str, first: str = "") -> None:
    """Write `obj` as `key: value` lines at `indent`; `first`, if given,
    replaces the indent of the first line, as a list item's "- " marker."""
    if isinstance(obj, dict):
        lead = first or indent
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)) and key not in ("re", "im", "dims"):
                sys.stdout.write(f"{lead}{key}:\n")
                _emit_text(val, indent + "  ")
            else:
                sys.stdout.write(f"{lead}{key}: {_fmt_scalar(val)}\n")
            lead = indent
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, dict):
                _emit_text(item, indent + "  ", first=indent + "- ")
            else:
                sys.stdout.write(f"{indent}- {_fmt_scalar(item)}\n")


def _fmt_scalar(val) -> str:
    if isinstance(val, float):
        return repr(val)
    if isinstance(val, (list, dict, np.ndarray)):
        return json.dumps(val, default=np.ndarray.tolist)
    return str(val)


_PARSER = argparse.ArgumentParser(
    prog="lsdecomp",
    description="Optimal separable decompositions of structured quantum states.",
)
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)
for _name in ("decompose", "separability", "concurrence", "oracle", "verify", "selftest"):
    _cmd = _COMMANDS.add_parser(_name)
    if _name != "selftest":
        _cmd.add_argument("--input", required=True, help="path, '-' for stdin, or inline JSON")
    if _name in ("decompose", "oracle", "verify"):
        _cmd.add_argument("--tol", type=float,
                          help="oracle and decompose --oracle stop the search at a duality gap "
                               "of tol/1000 (at least 1e-12); verify takes it as its "
                               "reconstruction tolerance (default 1e-10)")
    _cmd.add_argument("--format", choices=("json", "text"), default="json")
    if _name == "decompose":
        _cmd.add_argument("--oracle", action="store_true", help="attach the numeric cross-check")
_PARSER.set_defaults(tol=None)
del _name, _cmd


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.tol is not None and not math.isfinite(args.tol):
        _PARSER.error(f"argument --tol: must be finite, got {args.tol}")
    if args.tol is not None and args.tol < 0.0:
        _PARSER.error(f"argument --tol: must be >= 0, got {args.tol}")
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
            report = _decompose_report(spec, args.oracle, args.tol)
        elif args.command == "separability":
            report = _separability_report(spec)
        elif args.command == "concurrence":
            report = _concurrence_report(spec)
        else:
            report = _oracle_report(spec, args.tol)
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
