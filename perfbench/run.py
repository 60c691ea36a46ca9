"""Benchmark of lsdecomp end to end and layer by layer.

    python3 perfbench/run.py --workload oracle_battery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ``src``. With
``--trace 0`` the last stdout line is the JSON result with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics. ``--workload
all`` runs the three workloads one after another, each in its own process,
and prints a table. Results and spans also go to ``perfbench/results/``.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle_battery", "report_roundtrip", "cli_cold")
# tail percentile per workload: the highest of p90, p95, p99 and p99.9 with
# at least ten samples beyond it at the sample counts a 30 s run reaches;
# the run goes on until it has 10 / (1 - q) correct samples
TAIL = {"oracle_battery": 95.0, "report_roundtrip": 99.0, "cli_cold": 90.0}
SETUP_CHILDREN = 11
SETUP_CODE = "import lsdecomp, lsdecomp.cli; lsdecomp.decompose(lsdecomp.Werner(d=2, f=-0.5))"
INTERPRETER_PROBES = 9
COUNT_ROUNDS = 3  # rounds over which the per-layer counts are taken
END_TO_END = {"states_per_cpu_s": "1/s", "cpu_p50_ms": "ms", "cpu_tail_ms": "ms",
              "peak_rss_mb": "MiB", "setup_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def setup_child(env: dict) -> tuple[float, float]:
    """(wall s, CPU s) for a fresh interpreter to import lsdecomp and finish
    one decomposition."""
    from workloads import spawn

    took, rc, out, _ = spawn([sys.executable, "-c", SETUP_CODE], env)
    if rc != 0:
        raise RuntimeError(f"set-up child failed: {out.decode()[-500:]}")
    return took


def end_to_end(args, result: dict) -> dict:
    from workloads import child_env, run_pass

    env = child_env()
    setup_child(env)  # unmeasured: it compiles byte-code in a fresh checkout
    setup: list[tuple[float, float]] = []

    def between_ops(elapsed: float) -> None:
        # set-up samples spread evenly over the run, so that one slow or
        # fast moment of a shared machine does not decide their median
        if len(setup) < SETUP_CHILDREN and elapsed >= len(setup) * args.seconds / SETUP_CHILDREN:
            setup.append(setup_child(env))

    q = TAIL[args.workload]
    res = run_pass(args.workload, args.seed, args.seconds,
                   min_samples=math.ceil(10.0 / (1.0 - q / 100.0)), between_ops=between_ops)
    while len(setup) < SETUP_CHILDREN:
        setup.append(setup_child(env))
    if args.workload == "cli_cold":
        rss_kb = max(res.rss_kb)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = res.latencies
    metrics = {
        "states_per_cpu_s": len(lat) / res.cpu_s,
        "cpu_p50_ms": statistics.median(lat) * 1e3,
        "cpu_tail_ms": percentile(lat, q) * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(cpu for _, cpu in setup),
    }
    wall = res.wall_latencies
    # the same figures on the wall clock; they carry the host's steal time,
    # so they are kept for reading, not as metrics
    result["wall"] = {"states_per_s": len(wall) / res.wall_s,
                      "p50_ms": statistics.median(wall) * 1e3,
                      "tail_ms": percentile(wall, q) * 1e3,
                      "setup_s": statistics.median(w for w, _ in setup)}
    result["detail"] = {"tail_percentile": q, "samples": len(lat), "rounds": res.rounds,
                        "setup_samples_wall_cpu_s": setup}
    return _finish(result, [res], {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()})


def per_layer(args, result: dict) -> dict:
    """Untraced then traced pass of the workload, then a short traced pass
    of every other workload so that each layer metric is measured."""
    import tracer as tr
    from workloads import child_env, run_pass, spawn

    half = args.seconds / 2.0
    plain = run_pass(args.workload, args.seed, half, name="plain")
    tracer = tr.Tracer()
    tracer.install()
    passes = {args.workload: run_pass(args.workload, args.seed, half, tracer=tracer,
                                      name="traced", min_rounds=COUNT_ROUNDS,
                                      count_rounds=COUNT_ROUNDS)}
    for other in WORKLOADS:
        if other not in passes:
            rounds = 1 if other == "cli_cold" else COUNT_ROUNDS
            passes[other] = run_pass(other, args.seed, 0.0, tracer=tracer, name=other,
                                     min_rounds=rounds, count_rounds=rounds)
    tracer.uninstall()

    spans = list(tracer.spans)
    import_ms = []
    for res in passes.values():
        for op_id, payload in res.child_payloads:
            base = len(spans)
            for s in payload["spans"]:
                spans.append([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, op_id] + s[5:])
            import_ms.append(payload["import_ms"])
    env = child_env()
    interp_ms = [spawn([sys.executable, "-c", "pass"], env)[0][1] * 1e3
                 for _ in range(INTERPRETER_PROBES)]

    count_ops = set().union(*(res.count_ops for res in passes.values()))
    values = tr.layer_metrics(spans, count_ops)
    values["cli.report_bytes"] = statistics.mean(passes["report_roundtrip"].report_bytes)
    values["import.lsdecomp_ms"] = statistics.median(import_ms)
    values["import.interpreter_ms"] = statistics.median(interp_ms)
    p50_plain = statistics.median(plain.latencies)
    p50_traced = statistics.median(passes[args.workload].latencies)
    values["trace.overhead_pct"] = 100.0 * (p50_traced - p50_plain) / p50_plain

    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = sorted(set(declared) - set(values))
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    result["detail"] = {"p50_untraced_ms": p50_plain * 1e3, "p50_traced_ms": p50_traced * 1e3,
                        "spans": len(spans)}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans_{args.workload}_seed{args.seed}.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "op", "tag", "eig_calls", "eig_matrices"],
         "spans": spans}))
    metrics = {k: {"value": values[k], "unit": u} for k, u in declared.items()}
    others = [res for name, res in passes.items() if name != args.workload]
    return _finish(result, [plain, passes[args.workload]], metrics, others)


def _finish(result: dict, counted, metrics: dict, others=()) -> dict:
    """Fold the passes into the result line; `others` only feed correctness."""
    every = list(counted) + list(others)
    unexpected = [u for res in every for u in res.unexpected]
    result["correct"] = not unexpected and all(res.selfcheck_ok for res in every)
    result["attempted"] = sum(res.attempted for res in counted)
    result["failed"] = sum(res.failed for res in counted)
    result["metrics"] = metrics
    if unexpected:
        result.setdefault("detail", {})["unexpected_failures"] = unexpected[:20]
    return result


def run_one(args) -> int:
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    result = per_layer(args, result) if args.trace else end_to_end(args, result)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=2))
    for name, m in result["metrics"].items():
        print(f"{args.workload:17s} {name:38s} {m['value']:14.6g} {m['unit']}")
    if "wall" in result:
        print("wall clock " + json.dumps(result["wall"], sort_keys=True))
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, then one table."""
    table = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        table[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, res in table.items():
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name:38s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(table))
    return 0


def main(argv=None) -> int:
    # one BLAS thread for this process and every child, set before numpy is
    # imported: the matrices are at most 64x64, where more threads only add
    # scheduling noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args = parse_args(argv)
    if not (ROOT / "src" / "lsdecomp" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {ROOT / 'src' / 'lsdecomp'}; "
                         "run from a checkout of the repository\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
