"""Command-line entry point.

Subcommands: gen-data, train, predict, eval, bench, gradcheck. Settings
resolve as defaults <- JSON config file <- flags, and the fully resolved
config is echoed into every output directory. Exit codes: 0 success,
1 verification failure, 2 usage, 3 I/O failure, 4 numerical divergence,
5 corrupt artifact.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .fileio import atomic_write

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_CORRUPT = 5

MODEL_FLAGS = {"attention-ode": "attention", "mlp-ode": "mlp", "lstm": "lstm-baseline"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# flag domains, each a test and what it asks for; build_parser gives each
# subcommand its own, and _resolve checks flag and config file values alike
COUNT = (lambda v: v >= 1, "at least 1")
POSITIVE = (lambda v: 0 < v < math.inf, "a finite number above 0")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _default_out(subcommand: str) -> str | None:
    root = os.environ.get("HYDROFORECAST_OUT")
    if root:
        return str(Path(root) / subcommand)
    return None


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- explicitly passed flags."""
    merged = dict(defaults)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            file_cfg = json.loads(Path(cfg_path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise CliError(f"config file not found: {cfg_path}", EXIT_IO)
        except (OSError, UnicodeDecodeError) as e:
            raise CliError(f"cannot read config file {cfg_path}: {e}", EXIT_IO)
        except json.JSONDecodeError as e:
            raise CliError(f"config file is not valid JSON: {e}", EXIT_USAGE)
        if not isinstance(file_cfg, dict):
            raise CliError(f"config file must hold a JSON object, not "
                           f"{type(file_cfg).__name__}", EXIT_USAGE)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}", EXIT_USAGE)
        for key, value in file_cfg.items():
            kind = args.config_types.get(key, str)
            if not _fits(value, kind, defaults[key]):
                raise CliError(f"config key {key!r} must be {kind.__name__}, got "
                               f"{value!r}", EXIT_USAGE)
        merged.update(file_cfg)
    for key in defaults:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    for key, (ok, what) in getattr(args, "domains", {}).items():
        if merged[key] is not None and not ok(merged[key]):
            raise CliError(f"--{key.replace('_', '-')} must be {what}, got {merged[key]!r}")
    merged["threads"] = args.threads  # applied by main() before numpy loads
    return merged


def _fits(value, kind: type, default) -> bool:
    """Whether a config file's ``value`` is what its flag's ``kind`` parses
    to: null only where the default is null, an int also for a float flag,
    never a bool."""
    if value is None:
        return default is None
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _echo_config(outdir: Path, subcommand: str, resolved: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {"subcommand": subcommand, **resolved}
    with atomic_write(outdir / "resolved_config.json") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")


def _require_out(resolved: dict, subcommand: str) -> Path:
    out = resolved.get("out") or _default_out(subcommand)
    if not out:
        raise CliError("--out is required (or set HYDROFORECAST_OUT)", EXIT_USAGE)
    resolved["out"] = str(out)
    return Path(out)


# ---- gen-data ------------------------------------------------------------


def cmd_gen_data(args) -> int:
    from . import hydrodata as hd

    defaults = {"task": None, "out": None, "seed": 0, "trajectories": None,
                "dt": hd.DEFAULT_DT, "length": None, "split_seed": None}
    resolved = _resolve(args, defaults)
    task = resolved["task"]
    if task not in ("1.1", "1.2", "1.3", "2"):
        raise CliError(f"--task must be one of 1.1, 1.2, 1.3, 2 (got {task})")
    out = _require_out(resolved, "gen-data")
    seed = int(resolved["seed"])
    try:
        ds = hd.generate(task, seed=seed, num_trajectories=resolved["trajectories"],
                         dt=float(resolved["dt"]), length=resolved["length"])
    except ValueError as e:
        raise CliError(str(e), EXIT_USAGE)
    except MemoryError as e:  # numpy refuses an array larger than it can allocate
        raise CliError(f"dataset too large to allocate: {e}", EXIT_USAGE)
    split_seed = resolved["split_seed"]
    try:
        _, _, _, assignment = hd.split_dataset(
            ds, seed=seed if split_seed is None else int(split_seed))
    except ValueError as e:
        raise CliError(str(e), EXIT_USAGE)
    ds.splits = assignment
    try:
        hd.save_dataset(ds, out)
        _echo_config(out, "gen-data", resolved)
    except OSError as e:
        raise CliError(f"cannot write dataset: {e}", EXIT_IO)
    print(f"wrote {ds.num_trajectories} trajectories (task {task}, n={ds.n}, "
          f"f={ds.f}, L={ds.length}) to {out}")
    return EXIT_OK


# ---- train ---------------------------------------------------------------


def _load_dataset_or_die(path):
    from . import hydrodata as hd
    try:
        return hd.load_dataset(path)
    except OSError as e:
        raise CliError(str(e), EXIT_IO)
    except (ValueError, KeyError) as e:
        raise CliError(f"invalid dataset at {path}: {e}", EXIT_CORRUPT)


def _split_subsets(ds):
    if not ds.splits:
        raise CliError("dataset manifest has no 'splits' field; regenerate with gen-data",
                       EXIT_USAGE)
    return {name: ds.subset(ids) for name, ids in ds.splits.items()}


def _check_model_and_solver(resolved: dict, args) -> None:
    if resolved["model"] not in MODEL_FLAGS:
        raise CliError(f"--model must be one of {sorted(MODEL_FLAGS)}")
    if resolved["solver"] not in ("euler", "rk4"):
        raise CliError("--solver must be euler or rk4")
    if resolved["model"] == "lstm" and args.solver is not None:
        raise CliError("--solver is meaningless for the lstm baseline")


def cmd_train(args) -> int:
    from . import evalbench, training as tr
    from .models import build_model

    defaults = {"data": None, "model": "attention-ode", "solver": "euler",
                "out": None, "seed": 0, "lr": 3e-3, "batch_size": 16,
                "max_epochs": 50, "patience": 20, "grad_clip": 10.0,
                "lr_decay": 1.0, "preset": "desk"}
    resolved = _resolve(args, defaults)
    _check_model_and_solver(resolved, args)
    if resolved["preset"] not in evalbench.PRESETS:
        raise CliError(f"--preset must be one of {sorted(evalbench.PRESETS)}")
    if not resolved["data"]:
        raise CliError("--data is required")
    out = _require_out(resolved, "train")
    ds = _load_dataset_or_die(resolved["data"])
    subsets = _split_subsets(ds)
    model = build_model(evalbench.preset_config(
        evalbench.PRESETS[resolved["preset"]], MODEL_FLAGS[resolved["model"]],
        resolved["solver"], ds, int(resolved["seed"])))
    model.fit_normalizer(subsets["train"])
    train_cfg = tr.TrainConfig(learning_rate=float(resolved["lr"]),
                               batch_size=int(resolved["batch_size"]),
                               max_epochs=int(resolved["max_epochs"]),
                               early_stop_patience=int(resolved["patience"]),
                               grad_clip_norm=float(resolved["grad_clip"]),
                               lr_decay=float(resolved["lr_decay"]),
                               seed=int(resolved["seed"]))
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(out, "train", resolved)
    try:
        report = tr.train(model, subsets["train"], subsets["val"], train_cfg,
                          checkpoint_path=out / "model.ckpt",
                          log_path=out / "train_log.jsonl")
    except tr.DivergenceError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"best val loss {report.best_val_loss:.6g} at epoch {report.best_epoch}; "
          f"checkpoint: {report.checkpoint_path}")
    return EXIT_OK


# ---- predict / eval ------------------------------------------------------


def _load_model_or_die(path):
    from .models import CheckpointError, checkpoint_load
    try:
        return checkpoint_load(path)
    except FileNotFoundError as e:
        raise CliError(str(e), EXIT_IO)
    except CheckpointError as e:
        raise CliError(f"corrupt checkpoint {path}: {e}", EXIT_CORRUPT)


def _predict_split(model, subset):
    from .autodiff import ShapeError, Tensor
    x, forces, f0 = subset.stack()
    if x.shape[-1] != model.config.n_in:
        raise CliError(f"dataset condition dim {x.shape[-1]} does not match model "
                       f"n_in {model.config.n_in}", EXIT_USAGE)
    try:
        pred = model.predict_forces(Tensor(x), Tensor(f0)).data
    except ShapeError as e:
        raise CliError(str(e), EXIT_USAGE)
    return x, forces, f0, pred


def _write_prediction_csvs(out: Path, subset, pred) -> None:
    import numpy as np
    header = ",".join(["t"] + [f"Fhat_{i}" for i in range(subset.f)])
    for j, rec in enumerate(subset.records):
        with atomic_write(out / f"pred_{j:04d}.csv", "wb") as fh:
            np.savetxt(fh, np.column_stack([rec.times, pred[j]]),
                       fmt="%.17g", delimiter=",", header=header, comments="")


def cmd_predict(args, with_metrics: bool = False) -> int:
    from . import evalbench

    sub = "eval" if with_metrics else "predict"
    defaults = {"checkpoint": None, "data": None, "out": None, "split": "test",
                "seed": 0}
    resolved = _resolve(args, defaults)
    if not resolved["checkpoint"] or not resolved["data"]:
        raise CliError("--checkpoint and --data are required")
    out = _require_out(resolved, sub)
    model = _load_model_or_die(resolved["checkpoint"])
    ds = _load_dataset_or_die(resolved["data"])
    subsets = _split_subsets(ds)
    if resolved["split"] not in subsets:
        raise CliError(f"manifest 'splits' has no {resolved['split']!r} entry")
    subset = subsets[resolved["split"]]
    x, forces, f0, pred = _predict_split(model, subset)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _echo_config(out, sub, resolved)
        _write_prediction_csvs(out, subset, pred)
        if with_metrics:
            metrics = evalbench.compute_metrics(pred, forces)
            with atomic_write(out / "metrics.json") as fh:
                fh.write(json.dumps({
                    "mae": metrics.mae, "rmse": metrics.rmse,
                    "mae_per_axis": list(metrics.mae_per_axis),
                    "rmse_per_axis": list(metrics.rmse_per_axis),
                    "num_samples": metrics.num_samples,
                    "split": resolved["split"]}, indent=2, sort_keys=True) + "\n")
            labels = ([f"F{a}" for a in "xyz"[:subset.f]] if subset.f <= 3
                      else ["Fx", "Fy", "Fz", "Tx", "Ty", "Tz"])
            for j, rec in enumerate(subset.records):
                evalbench.plot_trajectory_svg(
                    rec.times, forces[j], pred[j], out / f"overlay_{j:04d}.svg",
                    title=f"trajectory {j} ({resolved['split']} split)",
                    axis_labels=labels)
            print(f"MAE {metrics.mae:.6g}  RMSE {metrics.rmse:.6g} "
                  f"on {subset.num_trajectories} {resolved['split']} trajectories")
    except OSError as e:
        raise CliError(f"cannot write outputs: {e}", EXIT_IO)
    return EXIT_OK


# ---- bench ---------------------------------------------------------------


def cmd_bench(args) -> int:
    from . import evalbench

    defaults = {"suite": "all", "preset": "desk", "out": None, "seed": 0,
                "max_epochs": None}
    resolved = _resolve(args, defaults)
    if resolved["suite"] not in ("task1", "task2", "all"):
        raise CliError("--suite must be task1, task2, or all")
    if resolved["preset"] not in evalbench.PRESETS:
        raise CliError(f"--preset must be one of {sorted(evalbench.PRESETS)}")
    out = _require_out(resolved, "bench")
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(out, "bench", resolved)

    def on_row(table):
        evalbench.emit_report(table, out)  # crash-safe partial results

    table = evalbench.run_benchmark(suite=resolved["suite"],
                                    preset_name=resolved["preset"],
                                    seed=int(resolved["seed"]),
                                    max_epochs=resolved["max_epochs"],
                                    on_row=on_row)
    evalbench.emit_report(table, out)
    failures = [c for c in table.rows if c.failure]
    for cell in table.rows:
        status = f"FAIL:{cell.failure}" if cell.failure else \
            f"MAE {cell.mae:.4g} RMSE {cell.rmse:.4g}"
        print(f"{cell.model:22s} task {cell.task:3s} {status}")
    if failures and len(failures) == len(table.rows):
        print("error: every benchmark cell failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---- gradcheck -----------------------------------------------------------


def cmd_gradcheck(args) -> int:
    import numpy as np

    from . import autodiff as ad, training as tr
    from .autodiff import Tensor
    from .models import ModelConfig, build_model

    defaults = {"model": "attention-ode", "solver": "euler", "steps": 10,
                "seed": 0, "tolerance": 1e-4}
    resolved = _resolve(args, defaults)
    _check_model_and_solver(resolved, args)
    steps = int(resolved["steps"])
    config = ModelConfig(encoder=MODEL_FLAGS[resolved["model"]], n_in=4, f_out=2,
                         d_model=8, heads=2, latent=8, kernel_hidden=(8, 8),
                         lstm_hidden=8, solver=resolved["solver"], dt=0.05,
                         seed=int(resolved["seed"]))
    model = build_model(config)
    if model.num_params() > 5000:
        raise CliError(f"model too large for gradcheck ({model.num_params()} params)")
    rng = np.random.default_rng(int(resolved["seed"]))
    x = Tensor(rng.uniform(-1, 1, (steps, 4)))
    f0 = Tensor(rng.uniform(-1, 1, 2))
    target = Tensor(rng.uniform(-1, 1, (steps, 2)))

    def loss_fn():
        return tr.mse_loss(model.predict_forces(x, f0), target)

    worst_err, worst_name = 0.0, ""
    for name, tensor in model.params.items():
        err = ad.grad_check(loss_fn, [tensor], epsilon=1e-5)
        if os.environ.get("HYDROFORECAST_BREAK_GRAD"):  # negative-control hook
            err += 1.0
        if err > worst_err:
            worst_err, worst_name = err, name
    tolerance = float(resolved["tolerance"])
    status = "PASS" if worst_err < tolerance else "FAIL"
    print(f"{status}: max relative gradient error {worst_err:.3e} "
          f"(worst parameter: {worst_name}, tolerance {tolerance:g})")
    return EXIT_OK if worst_err < tolerance else EXIT_VERIFY


# ---- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydroforecast",
        description="Attention-encoded Neural ODE force forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int, default=1,
                       help="BLAS and OpenMP threads, set before numpy loads")
        p.add_argument("--out")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--task", choices=["1.1", "1.2", "1.3", "2"])
    p.add_argument("--trajectories", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--length", type=int)
    p.add_argument("--split-seed", type=int)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    common(p)
    p.add_argument("--data")
    p.add_argument("--model", choices=sorted(MODEL_FLAGS))
    p.add_argument("--solver", choices=["euler", "rk4"])
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--grad-clip", type=float)
    p.add_argument("--lr-decay", type=float,
                   help="per-epoch learning-rate multiplier in (0, 1]")
    p.add_argument("--preset", choices=["desk", "paper"])
    p.set_defaults(func=cmd_train, domains={
        "lr": POSITIVE, "batch_size": COUNT, "max_epochs": COUNT, "patience": COUNT,
        "grad_clip": POSITIVE, "lr_decay": (lambda v: 0 < v <= 1, "in (0, 1]")})

    p = sub.add_parser("predict", help="write per-trajectory force predictions")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--split", choices=["train", "val", "test"])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="predictions plus metrics and SVG overlays")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--split", choices=["train", "val", "test"])
    p.set_defaults(func=lambda a: cmd_predict(a, with_metrics=True))

    p = sub.add_parser("bench", help="run the benchmark suite and emit tables")
    common(p)
    p.add_argument("--suite", choices=["task1", "task2", "all"])
    p.add_argument("--preset", choices=["desk", "paper"])
    p.add_argument("--max-epochs", type=int)
    p.set_defaults(func=cmd_bench, domains={"max_epochs": COUNT})

    p = sub.add_parser("gradcheck", help="verify end-to-end gradients on a tiny model")
    common(p)
    p.add_argument("--model", choices=sorted(MODEL_FLAGS))
    p.add_argument("--solver", choices=["euler", "rk4"])
    p.add_argument("--steps", type=int)
    p.add_argument("--tolerance", type=float)
    p.set_defaults(func=cmd_gradcheck, domains={
        "steps": (lambda v: 1 <= v <= 50, "in [1, 50] (finite differencing is O(params))"),
        "tolerance": POSITIVE})

    for p in sub.choices.values():  # what _resolve checks config file values against
        p.set_defaults(config_types={a.dest: a.type or str for a in p._actions})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    for var in THREAD_VARS:  # read once, when a subcommand first imports numpy
        os.environ[var] = str(args.threads)
    try:
        code = args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        if e.code == EXIT_USAGE:
            print(parser.format_usage(), file=sys.stderr, end="")
        code = e.code
    return code


if __name__ == "__main__":
    sys.exit(main())
