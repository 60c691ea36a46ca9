"""The three workloads: one closed-loop client each, every output checked.

An operation is one state. Its cost is taken on the CPU clock of the
process doing the work: this process's ``time.process_time`` around the
calls into the package, or the user plus system time of the child process
on ``cli_cold`` (from ``wait4``). The wall time is kept beside it. The
checks against ``reference`` run after the clocks stop. A failed check
marks the operation failed and the run goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lsdecomp
import lsdecomp.cli
import reference as ref
from inputs import rounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PERTURB = 1e-4


def to_spec(spec: dict):
    """The package's StateSpec for a flat JSON spec, built by the benchmark."""
    fam = spec["family"]
    if fam == "bd22":
        return lsdecomp.BD22(p=tuple(spec["p"]))
    if fam == "icd":
        return lsdecomp.ICD(theta=spec["theta"], p=tuple(spec["p"]))
    if fam == "bd23":
        return lsdecomp.BD23(p=tuple(spec["p"]))
    if fam == "werner":
        return lsdecomp.Werner(d=spec["d"], f=spec["f"])
    if fam == "isotropic":
        return lsdecomp.Isotropic(d=spec["d"], F=spec["F"])
    if fam == "horodecki33":
        return lsdecomp.Horodecki33(alpha=spec["alpha"])
    if fam == "multi_iso":
        return lsdecomp.MultiIso(d=spec["d"], n=spec["n"], s=spec["s"])
    return lsdecomp.Raw(dims=tuple(spec["dims"]), matrix=ref.density(spec))


# --------------------------------------------------------------------------
# operations: each returns ((wall s, CPU s), outcome); `check` turns the
# outcome into a list of failures, optionally with lambda perturbed

def _since(w0: float, c0: float) -> tuple[float, float]:
    return time.perf_counter() - w0, time.process_time() - c0


def op_oracle(spec: dict, seed: int):
    state = to_spec(spec)
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        rho = lsdecomp.build(state)
        dec = lsdecomp.decompose(state)
        fam = lsdecomp.family_for_spec(state)
        lam_o, sigma = lsdecomp.bsa_search(rho, fam, tol=1e-7, seed=seed)
        cert = lsdecomp.duality_check(
            lsdecomp.bsa_as_sdp(rho, dec.separable_part), np.array([dec.lam]))
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        return _since(w0, c0), {"error": f"{type(exc).__name__}: {exc}"}
    took = _since(w0, c0)
    return took, {"lam": dec.lam, "sep": dec.separable_part.mat, "ent": dec.entangled_part,
                  "lam_oracle": lam_o, "sigma": sigma.mat, "gap": cert.gap}


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lsdecomp.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def op_report(spec: dict):
    arg = json.dumps(spec)
    w0, c0 = time.perf_counter(), time.process_time()
    rc, report, err = _cli(["decompose", "--input", arg])
    if rc == 0:
        rc2, verified, err = _cli(["verify", "--input", report])
    took = _since(w0, c0)
    if rc != 0:
        return took, {"error": f"decompose exit {rc}: {err.strip()}"}
    if rc2 != 0:
        return took, {"error": f"verify exit {rc2}: {err.strip()}"}
    return took, {"report": report, "verified": verified}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], env: dict) -> tuple[tuple[float, float], int, bytes, int]:
    """Run a child to its end: ((wall s, child user+system CPU s), exit code,
    stdout+stderr, peak RSS KiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    took = time.perf_counter() - t0, usage.ru_utime + usage.ru_stime
    proc.returncode = os.waitstatus_to_exitcode(status)
    return took, proc.returncode, out, usage.ru_maxrss


def op_cli(spec: dict, env: dict, traced: bool):
    head = [sys.executable, str(HERE / "child.py")] if traced else [sys.executable, "-m", "lsdecomp.cli"]
    took, rc, out, rss = spawn(head + ["decompose", "--input", json.dumps(spec)], env)
    text = out.decode()
    outcome = {"rss_kb": rss}
    if traced and rc == 0:
        text, _, spans = text.rstrip("\n").rpartition("\n")
        outcome["child"] = json.loads(spans.removeprefix("SPANS "))
    if rc != 0:
        outcome["error"] = f"exit {rc}: {text.strip()[-300:]}"
    else:
        outcome["report"] = text
    return took, outcome


def check(spec: dict, outcome: dict, perturb: float = 0.0, perturb_oracle: float = 0.0) -> list[str]:
    """Failures of one operation's outputs against the reference; the
    perturbations shift the reported closed-form and oracle weights."""
    if "error" in outcome:
        return [outcome["error"]]
    rho = ref.density(spec)
    if "report" in outcome:
        try:
            rep = json.loads(outcome["report"])
            lam = float(rep["lambda"]) + perturb
            sep = ref.from_block(rep["separable"])
            ent = ref.from_block(rep["entangled"]) if "entangled" in rep else None
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable report: {exc}"]
        bad = ref.check_split(spec, rho, lam, sep, ent, rep.get("concurrence", math.nan))
        if "verified" in outcome and json.loads(outcome["verified"]).get("all_ok") is not True:
            bad.append("verify did not report all_ok")
        return bad
    lam = outcome["lam"] + perturb
    bad = ref.check_split(spec, rho, lam, outcome["sep"], outcome["ent"], None)
    want = ref.closed_form_lambda(spec)
    lam_ref = outcome["lam"] if want is None else want  # raw: bounded by 1 - C above
    bad += ref.check_oracle(rho, lam_ref, outcome["lam_oracle"] + perturb_oracle,
                            outcome["sigma"], outcome["gap"])
    return bad


# --------------------------------------------------------------------------
# the closed loop

@dataclass
class Pass:
    """Everything one pass over a workload's rounds measured."""

    latencies: list[float] = field(default_factory=list)  # CPU s, correct operations only
    wall_latencies: list[float] = field(default_factory=list)  # wall s, the same operations
    cpu_s: float = 0.0  # CPU s of every attempted operation
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    unexpected: list[str] = field(default_factory=list)  # failures outside the fault slices
    selfcheck_ok: bool | None = None
    rss_kb: list[int] = field(default_factory=list)
    child_payloads: list[tuple[str, dict]] = field(default_factory=list)
    report_bytes: list[int] = field(default_factory=list)
    count_ops: set = field(default_factory=set)


def run_pass(workload: str, seed: int, seconds: float, *, min_samples: int = 0,
             min_rounds: int = 1, tracer=None,
             name: str = "run", count_rounds: int = 0, between_ops=None) -> Pass:
    """Attempt whole rounds until `seconds` have passed (and the floors are met).

    The first `count_rounds` rounds form the fixed request set over which
    counts are taken, so that counts repeat for a seed. `between_ops`, if
    given, is called with the elapsed seconds after every operation.
    """
    res = Pass()
    stream = rounds(workload, seed)
    env = child_env()
    start = time.perf_counter()
    cap = min(3.0 * seconds, 150.0)
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and len(res.latencies) >= min_samples and res.rounds >= min_rounds
        if enough or (res.rounds >= min_rounds and elapsed >= cap):
            break
        for label, spec, fault in next(stream):
            op_id = f"{name}:{i}"
            if tracer is not None:
                tracer.op, tracer.tag = op_id, label
            if workload == "oracle_battery":
                (wall, cpu), outcome = op_oracle(spec, seed=i)
            elif workload == "report_roundtrip":
                (wall, cpu), outcome = op_report(spec)
            else:
                (wall, cpu), outcome = op_cli(spec, env, traced=tracer is not None)
            if tracer is not None:
                tracer.op = tracer.tag = None
            try:
                bad = check(spec, outcome)
            except Exception as exc:  # noqa: BLE001 - output too broken to check is a failure
                bad = [f"unreadable output: {type(exc).__name__}: {exc}"]
            res.attempted += 1
            res.cpu_s += cpu
            res.wall_s += wall
            if bad:
                res.failed += 1
                if not fault:
                    res.unexpected.append(f"{label} {json.dumps(spec)[:200]}: {bad[0]}")
            else:
                res.latencies.append(cpu)
                res.wall_latencies.append(wall)
                if res.selfcheck_ok is None:
                    # the checks must reject a weight off by 1e-4
                    res.selfcheck_ok = bool(check(spec, outcome, perturb=PERTURB)) and (
                        "lam_oracle" not in outcome
                        or bool(check(spec, outcome, perturb_oracle=PERTURB)))
            if "rss_kb" in outcome:
                res.rss_kb.append(outcome["rss_kb"])
            if "child" in outcome:
                res.child_payloads.append((op_id, outcome["child"]))
            if res.rounds < count_rounds:
                res.count_ops.add(op_id)
                if workload == "report_roundtrip" and "report" in outcome:
                    res.report_bytes.append(len(outcome["report"].encode()))
            i += 1
            if between_ops is not None:
                between_ops(time.perf_counter() - start)
        res.rounds += 1
    return res
