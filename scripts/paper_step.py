#!/usr/bin/env python3
"""Time one Task 2 attention-RK4 training step at the ``paper`` preset.

Writes ``BENCH_paper.json``: the step's forward (forecast and MSE loss) and
backward (``autodiff.backward``) apart, in ms, at batch 4, 8 and 16 with
L=400, and at batch 4 with L = 100, 200, 400 and 800, so that a cost that
grows faster than L shows. Each figure runs in a fresh process with one
BLAS thread: one untimed warm-up step, then ``REPEATS`` timed steps (their
median is kept), then one more step under tracemalloc for the traced peak
of forward plus backward. The process's max RSS is read at its end.

With ``--base``, each figure runs ``PAIRS`` pairs of fresh processes, one
on the base tree and one on ``--src``, alternating which goes first as
``bench_pairs.py`` does, so that a drift in the machine's speed falls on
both sides alike. Each figure then holds its pairs, each side's medians,
the head/base ratios, the base runs' quartile distance and the pairs the
head won (lower is better for all four figures).

    python scripts/paper_step.py                    # this checkout's src/
    python scripts/paper_step.py --base ../parent/src   # paired against another tree
    python scripts/paper_step.py --src ../parent/src --out /tmp/BENCH_paper_parent.json

The Adam step is left out: it does not depend on the batch or the horizon.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench_pairs import cpu_model, git_state, src_digest, summarise

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FIGURES = [(4, 400), (8, 400), (16, 400), (4, 100), (4, 200), (4, 800)]
REPEATS = 3  # timed steps per figure
PAIRS = 5  # base/head pairs of processes per figure with --base
LOWER_IS_BETTER = {name: "lower" for name in ("forward_ms", "backward_ms",
                                              "tracemalloc_peak_mib", "max_rss_mib")}


def measure(src: str, batch: int, length: int) -> dict:
    """One figure, in this process: forward and backward ms, traced peak, max RSS."""
    sys.path.insert(0, src)
    import resource
    import tracemalloc

    from hydroforecast import autodiff as ad, evalbench, hydrodata, training
    from hydroforecast.autodiff import Tensor
    from hydroforecast.models import build_model

    ds = hydrodata.generate("2", seed=0, num_trajectories=batch, length=length)
    model = build_model(evalbench.preset_config(evalbench.PRESETS["paper"], "attention",
                                                "rk4", ds, seed=0))
    model.fit_normalizer(ds)
    x, forces, f0 = ds.stack()

    def step():
        model.params.zero_grad()
        t0 = time.perf_counter()
        loss = training.mse_loss(model.predict_forces(Tensor(x), Tensor(f0)),
                                 Tensor(forces))
        t1 = time.perf_counter()
        ad.backward(loss)
        t2 = time.perf_counter()
        return (t1 - t0) * 1e3, (t2 - t1) * 1e3

    step()
    times = [step() for _ in range(REPEATS)]
    tracemalloc.start()
    step()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"batch": batch, "length": length,
            "forward_ms": statistics.median(t[0] for t in times),
            "backward_ms": statistics.median(t[1] for t in times),
            "tracemalloc_peak_mib": peak / 2.0 ** 20,
            "max_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_figure(src: str, batch: int, length: int) -> dict:
    """One figure from a fresh process on ``src`` with one BLAS thread."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.run([sys.executable, __file__, "--src", src,
                           "--one", str(batch), str(length)],
                          env=env, capture_output=True, text=True, check=True)
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{src}: batch {batch:2d} L={length:3d}: forward {row['forward_ms']:8.1f} ms, "
          f"backward {row['backward_ms']:8.1f} ms, traced peak "
          f"{row['tracemalloc_peak_mib']:6.1f} MiB, max RSS {row['max_rss_mib']:6.1f} MiB",
          file=sys.stderr)
    return {name: row[name] for name in LOWER_IS_BETTER}


def paired_row(srcs: dict, batch: int, length: int) -> dict:
    """``PAIRS`` alternated base/head pairs of one figure, and their summary."""
    pairs = []
    for p in range(PAIRS):
        order = ("base", "head") if p % 2 == 0 else ("head", "base")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_figure(srcs[side], batch, length)
        pairs.append(pair)
    return {"batch": batch, "length": length, "pairs": pairs,
            **summarise(pairs, LOWER_IS_BETTER)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory to time (default: this checkout's)")
    parser.add_argument("--base", type=Path,
                        help="a src/ directory to pair against --src, figure by figure")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_paper.json")
    parser.add_argument("--one", nargs=2, type=int, metavar=("BATCH", "LENGTH"),
                        help=argparse.SUPPRESS)  # a child process's single figure
    args = parser.parse_args()
    src = str(args.src.resolve())
    if args.one:
        print(json.dumps(measure(src, *args.one)))
        return 0

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    srcs = {"head": src}
    if args.base:
        srcs["base"] = str(args.base.resolve())
        rows = [paired_row(srcs, batch, length) for batch, length in FIGURES]
    else:
        rows = [{"batch": batch, "length": length, **run_figure(src, batch, length)}
                for batch, length in FIGURES]
    checkouts = {}
    for side, path in srcs.items():
        root = Path(path).parent
        checkouts[side] = {**git_state(root), "src_sha256": src_digest(root)}
    doc = {"topic": "paper",
           "command": ["python", "scripts/paper_step.py", *sys.argv[1:]],
           "started": started,
           "step": "Task 2 attention-RK4 at the paper preset: forecast and MSE loss "
                   "(forward), autodiff.backward (backward); no Adam step",
           "checkouts": checkouts,
           "machine": {"cpu": cpu_model(), "platform": platform.platform(),
                       "threads": 1, "nproc": len(os.sched_getaffinity(0)),
                       "python": platform.python_version(), "numpy": np.__version__},
           "rows": rows}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
