#!/usr/bin/env python3
"""Time two source checkouts against each other with alternated perfbench runs.

Each pair runs ``perfbench/run.py --trace 0`` once in the base checkout and
once in the head checkout, on the same workload and seed, one run at a time.
The pairs alternate which side goes first, so a drift in the machine's speed
falls on both sides alike. The result is written to ``BENCH_<topic>.json``:
every pair's end-to-end metrics, the medians over pairs, head/base ratios,
the base runs' quartile distance, how many pairs the head won, the
environment, and each checkout's git SHA and a digest of its ``src/``.

    python scripts/bench_pairs.py --base ../parent --head . --topic fused_solve \\
        --workloads task2-forecast,task2-train --seeds 1-5 --pairs 5 --seconds 20

Both checkouts need ``perfbench/run.py`` and ``src/``. A metric's better
direction comes from the head checkout's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("task1-train", "task2-train", "task2-forecast")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_state(root: Path) -> dict:
    """HEAD's SHA and whether the work tree differs from it ("unknown" outside git)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}

    def git(*args):
        proc = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                              text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha or "unknown", "dirty": bool(status)}


def src_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every .py file under src/."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(root: Path, workload: str, seed: int, seconds: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((root / "perfbench" / "out" / f"{workload}-seed{seed}.json")
                        .read_text())
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "ops": [result["correct"], result["attempted"], result["failed"]],
            "environment": record["environment"]}


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    names = list(pairs[0]["base"])
    out = {"median": {}, "ratio_head_over_base": {}, "base_quartile_distance": {},
           "head_wins": {}}
    for side in ("base", "head"):
        out["median"][side] = {n: statistics.median(p[side][n] for p in pairs) for n in names}
    for n in names:
        b, h = out["median"]["base"][n], out["median"]["head"][n]
        out["ratio_head_over_base"][n] = h / b if b else None
        out["base_quartile_distance"][n] = quartile_distance([p["base"][n] for p in pairs])
        if n in better:
            sign = 1.0 if better[n] == "higher" else -1.0
            out["head_wins"][n] = sum(sign * (p["head"][n] - p["base"][n]) > 0
                                      for p in pairs)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="reference checkout")
    parser.add_argument("--head", required=True, type=Path, help="checkout under test")
    parser.add_argument("--topic", required=True, help="names the output BENCH_<topic>.json")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-5"))
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--out", type=Path, help="output path (default: in the head checkout)")
    args = parser.parse_args()

    base, head = args.base.resolve(), args.head.resolve()
    workloads = [w for w in args.workloads.split(",") if w]
    if args.pairs < 1 or any(w not in WORKLOADS for w in workloads):
        parser.error(f"need --pairs >= 1 and workloads from {WORKLOADS}")
    spec = json.loads((head / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"base": base, "head": head}

    doc = {"topic": args.topic,
           "command": ["python", "scripts/bench_pairs.py", "--base", "<base>", "--head",
                       "<head>", "--topic", args.topic, "--workloads", ",".join(workloads),
                       "--seeds", f"{args.seeds[0]}-{args.seeds[-1]}", "--pairs",
                       str(args.pairs), "--seconds", args.seconds],
           "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "seconds": float(args.seconds),
           "checkouts": {side: {**git_state(root), "src_sha256": src_digest(root)}
                         for side, root in sides.items()},
           "machine": {"cpu": cpu_model(), "platform": platform.platform()},
           "environment": None, "workloads": {}}
    for workload in workloads:
        pairs = []
        for p in range(args.pairs):
            seed = args.seeds[p % len(args.seeds)]
            order = ("base", "head") if p % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = run_once(sides[side], workload, seed, args.seconds)
                doc["environment"] = doc["environment"] or {
                    k: v for k, v in run["environment"].items() if k != "git_sha"}
                pair[side], pair[f"{side}_ops"] = run["metrics"], run["ops"]
            pairs.append(pair)
            print(f"{workload} pair {p + 1}/{args.pairs} seed {seed}: traj_per_s "
                  f"base {pair['base']['traj_per_s']:.4g} head {pair['head']['traj_per_s']:.4g}",
                  file=sys.stderr)
        doc["workloads"][workload] = {"pairs": pairs, **summarise(pairs, better)}
    out = args.out or head / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
