#!/usr/bin/env python3
"""Time one Task 2 attention-RK4 training step at the ``paper`` preset.

Writes ``BENCH_paper.json``: the step's forward (forecast and MSE loss) and
backward (``autodiff.backward``) apart, in ms, at batch 4, 8 and 16 with
L=400, and at batch 4 with L = 100, 200, 400 and 800, so that a cost that
grows faster than L shows. Each figure runs in a fresh process with one
BLAS thread: one untimed warm-up step, then ``REPEATS`` timed steps (their
median is kept), then one more step under tracemalloc for the traced peak
of forward plus backward. The process's max RSS is read at its end.

    python scripts/paper_step.py                    # this checkout's src/
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

from bench_pairs import cpu_model, git_state, src_digest

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FIGURES = [(4, 400), (8, 400), (16, 400), (4, 100), (4, 200), (4, 800)]
REPEATS = 3  # timed steps per figure


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory to time (default: this checkout's)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_paper.json")
    parser.add_argument("--one", nargs=2, type=int, metavar=("BATCH", "LENGTH"),
                        help=argparse.SUPPRESS)  # a child process's single figure
    args = parser.parse_args()
    src = str(args.src.resolve())
    if args.one:
        print(json.dumps(measure(src, *args.one)))
        return 0

    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    rows = []
    for batch, length in FIGURES:
        proc = subprocess.run([sys.executable, __file__, "--src", src,
                               "--one", str(batch), str(length)],
                              env=env, capture_output=True, text=True, check=True)
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"batch {batch:2d} L={length:3d}: forward {rows[-1]['forward_ms']:8.1f} ms, "
              f"backward {rows[-1]['backward_ms']:8.1f} ms, traced peak "
              f"{rows[-1]['tracemalloc_peak_mib']:6.1f} MiB, max RSS "
              f"{rows[-1]['max_rss_mib']:6.1f} MiB", file=sys.stderr)
    source_root = args.src.resolve().parent
    doc = {"topic": "paper",
           "command": ["python", "scripts/paper_step.py", *sys.argv[1:]],
           "started": started,
           "step": "Task 2 attention-RK4 at the paper preset: forecast and MSE loss "
                   "(forward), autodiff.backward (backward); no Adam step",
           "checkout": {**git_state(source_root), "src_sha256": src_digest(source_root)},
           "machine": {"cpu": cpu_model(), "platform": platform.platform(),
                       "threads": 1, "nproc": len(os.sched_getaffinity(0)),
                       "python": platform.python_version(), "numpy": np.__version__},
           "rows": rows}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
