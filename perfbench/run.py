"""Benchmark of hydroforecast training and force forecasting.

    python3 perfbench/run.py --workload task1-train --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics and the tracing overhead. A fuller record of each run (environment,
every round's trajectories and seconds, every check) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# one BLAS/OpenMP thread (at most nproc): the program's matmuls are small,
# and a second thread only adds start-up cost and run-to-run spread
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha() -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": THREADS, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "git_sha": git_sha()}


def busy(rounds: list[tuple[int, float]]) -> float:
    return sum(dt for _, dt in rounds)


def throughput(rounds: list[tuple[int, float]]) -> float:
    """Trajectories per second over all rounds."""
    return sum(n for n, _ in rounds) / busy(rounds)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("task1-train", "task2-train", "task2-forecast"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hydroforecast" / "__init__.py").is_file():
        print(f"perfbench: no hydroforecast sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))

    import numpy as np

    import hydroforecast.autodiff
    import hydroforecast.hydrodata
    import hydroforecast.layers
    import hydroforecast.models
    import hydroforecast.odeint
    import hydroforecast.training
    import checks
    import tracing
    import workloads
    hf = hydroforecast
    if not Path(hf.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported hydroforecast from {hf.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    env = environment(np)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    ledger = checks.Ledger()
    workload = workloads.WORKLOADS[args.workload](hf, args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}
    setup, rounds, traced_rounds, probes = [], [], [], {}
    try:
        for rep in range(workloads.SETUP_REPEATS):
            with tracer.active(hf) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                ledger.op(workload.setup, rep)
                setup.append(time.perf_counter() - start)
            if rep == 0:
                workload.warm_up()
            # rounds are spread between the set-ups, so that a run averages
            # the machine's speed over most of its length, not over one spell
            due = args.seconds * (rep + 1) / workloads.SETUP_REPEATS
            rounds += workload.timed(ledger, due - busy(rounds))
            if tracer:
                with tracer.active(hf, gc_pauses=True):
                    traced_rounds += workload.timed(ledger, due - busy(traced_rounds))
        peak = workloads.peak_rss_mib()
        if tracer:
            probes = workload.probes()
        rmse = ledger.op(workload.heldout_rmse_pct)
        workload.run_checks(ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not rounds or (tracer and not traced_rounds) or rmse is None:
        print("perfbench: no round completed; errors: " + "; ".join(ledger.errors),
              file=sys.stderr)
        return 1
    if tracer:
        untraced, traced = throughput(rounds), throughput(traced_rounds)
        metrics = {name: metric(v, u) for name, (v, u) in {**tracer.metrics(),
                                                             **probes}.items()}
        metrics["trace.traj_per_s"] = metric(traced, "trajectories/s")
        metrics["trace.untraced_traj_per_s"] = metric(untraced, "trajectories/s")
        metrics["trace.overhead_pct"] = metric((untraced / traced - 1.0) * 100.0, "%")
    else:
        metrics = {"setup_s": metric(statistics.median(setup), "s"),
                   "traj_per_s": metric(throughput(rounds), "trajectories/s"),
                   "peak_rss_mib": metric(peak, "MiB"),
                   "heldout_rmse_pct": metric(rmse, "%")}
    result = {"correct": ledger.correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record.update(setup_s=setup, heldout_f0_rmse_pct=workload.f0_rmse_pct, rounds=rounds,
                  traced_rounds=traced_rounds if tracer else None, checks=ledger.checks,
                  errors=ledger.errors, result=result)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if tracer else "")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}-spans.json")
    for c in ledger.checks:
        print(f"{'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['error']:.3g} (tol {c['tol']:g})")
    print(f"held-out RMSE {rmse:.4g} %; constant-F0 forecast {workload.f0_rmse_pct:.4g} %")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
