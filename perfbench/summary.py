"""Run workloads on several seeds, one run at a time, and tabulate the spread.

    python3 perfbench/summary.py --seeds 1-10 --seconds 20
    python3 perfbench/summary.py --seeds 11 --seconds 20 --trace 1

Prints a Markdown table with a row per metric and a column per workload.
Each cell is the median over the runs and, with more than one run, the
distance between the quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("task1-train", "task2-train", "task2-forecast")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cell(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.4g} ({(q3 - q1) / med if med else 0.0:.3f})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    ops: dict[str, list] = {}
    for workload in WORKLOADS:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ops.setdefault(workload, []).append(
                (result["correct"], result["attempted"], result["failed"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, {}).setdefault(workload, []).append(m["value"])
                units[name] = m["unit"]

    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name, by_workload in values.items():
        cells = [cell(by_workload[w]) for w in WORKLOADS]
        print(f"| `{name}` | {units[name]} | " + " | ".join(cells) + " |")
    print(f"\nseeds {args.seeds[0]}-{args.seeds[-1]}, {args.seconds} s per run; "
          "(correct, attempted, failed) per run:")
    for workload, runs in ops.items():
        print(f"- {workload}: {runs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
