"""Command-line entry point.

Subcommands: gen-data, train, predict, eval, bench, gradcheck. Each
subcommand's parser is the one declaration of its settings: name, type,
default and choices. Settings resolve as defaults <- JSON config file <-
flags, and the fully resolved config is echoed into every output directory.
Exit codes: 0 success, 1 verification failure, 2 usage, 3 I/O failure,
4 numerical divergence (training, or a forecast that overflows), 5 corrupt artifact.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import DEFAULT_DT, THREAD_VARS
from .fileio import atomic_write

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_CORRUPT = 5

MODEL_FLAGS = {"attention-ode": "attention", "mlp-ode": "mlp", "lstm": "lstm-baseline"}

# flag domains, each a test and what it asks for; build_parser gives each
# subcommand its own, and _resolve checks flag and config file values alike
COUNT = (lambda v: v >= 1, "at least 1")
POSITIVE = (lambda v: 0 < v < math.inf, "a finite number above 0")
SEED = (lambda v: v >= 0, "a non-negative integer")  # numpy's seed domain

# what a parsed namespace holds besides the settings that the config echo lists
NOT_SETTINGS = ("command", "config", "func", "domains", "parser")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _resolve(parser: argparse.ArgumentParser, argv, args: argparse.Namespace):
    """defaults <- config file <- flags: a config file's values become its
    subcommand's defaults, and ``argv`` is parsed again over them. Every final
    value is then checked against its flag's choices and domain, whatever its
    source."""
    sub = args.parser
    # main() applies --threads before numpy loads, so no config file sets it
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config", "threads")}
    if args.config:
        sub.set_defaults(**_read_config(args.config, actions))
        args = parser.parse_args(argv)
    for action in actions.values():
        value = getattr(args, action.dest)
        if action.choices and value is not None and value not in action.choices:
            raise CliError(f"{action.option_strings[0]} must be one of "
                           f"{', '.join(action.choices)}, got {value!r}")
    for key, (ok, what) in args.domains.items():
        value = getattr(args, key)
        if value is not None and not ok(value):
            raise CliError(f"--{key.replace('_', '-')} must be {what}, got {value!r}")
    return args


def _read_config(path: str, actions: dict) -> dict:
    """A config file's settings, each of the type its flag parses to."""
    try:
        file_cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}", EXIT_IO)
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read config file {path}: {e}", EXIT_IO)
    except ValueError as e:  # JSONDecodeError, or an int of too many digits
        raise CliError(f"cannot parse config file {path}: {e}", EXIT_USAGE)
    if not isinstance(file_cfg, dict):
        raise CliError(f"config file must hold a JSON object, not "
                       f"{type(file_cfg).__name__}", EXIT_USAGE)
    unknown = set(file_cfg) - set(actions)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}", EXIT_USAGE)
    for key, value in file_cfg.items():
        kind = actions[key].type or str
        if not _fits(value, actions[key]):
            raise CliError(f"config key {key!r} must be {kind.__name__}, got "
                           f"{value!r}", EXIT_USAGE)
        if kind is float:
            try:
                file_cfg[key] = float(value)
            except OverflowError:
                raise CliError(f"config key {key!r} in {path} is beyond float range",
                               EXIT_USAGE)
    return file_cfg


def _fits(value, action: argparse.Action) -> bool:
    """Whether a config file's ``value`` is what ``action``'s flag parses to:
    an int also for a float flag, never a bool. Null stands for an unset
    value only where the flag's default is null and it is not a choice:
    ``--solver`` takes its default in the command, and ``--task`` must be
    set."""
    kind = action.type or str
    if value is None:
        return action.default is None and not action.choices
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _echo_config(outdir: Path, subcommand: str, resolved: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    settings = {k: v for k, v in resolved.items() if k not in NOT_SETTINGS}
    payload = {"subcommand": subcommand, **settings}
    with atomic_write(outdir / "resolved_config.json") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")


def _out_dir(args) -> Path | None:
    """``--out``, else ``$HYDROFORECAST_OUT/<subcommand>``, written back for the
    echo; None if neither is set."""
    root = os.environ.get("HYDROFORECAST_OUT")
    if not args.out and root:
        args.out = str(Path(root) / args.command)
    return Path(args.out) if args.out else None


def _require_out(args) -> Path:
    out = _out_dir(args)
    if out is None:
        raise CliError("--out is required (or set HYDROFORECAST_OUT)", EXIT_USAGE)
    return out


# ---- gen-data ------------------------------------------------------------


def cmd_gen_data(args) -> int:
    from . import hydrodata as hd

    if args.task is None:
        raise CliError("--task is required")
    out = _require_out(args)
    try:
        ds = hd.generate(args.task, seed=args.seed, num_trajectories=args.trajectories,
                         dt=args.dt, length=args.length)
    except hd.UnstableStepError as e:
        raise CliError(f"--dt {args.dt:g} is too large for the oracle: {e}", EXIT_USAGE)
    except ValueError as e:
        raise CliError(str(e), EXIT_USAGE)
    except (MemoryError, OverflowError) as e:  # numpy refuses an array that large
        raise CliError(f"dataset too large to allocate: {e}", EXIT_USAGE)
    try:
        _, _, _, assignment = hd.split_dataset(
            ds, seed=args.seed if args.split_seed is None else args.split_seed)
    except ValueError as e:
        raise CliError(str(e), EXIT_USAGE)
    ds.splits = assignment
    try:
        hd.save_dataset(ds, out)
    except ValueError as e:  # a table that is not finite
        raise CliError(str(e), EXIT_USAGE)
    _echo_config(out, args.command, vars(args))
    print(f"wrote {ds.num_trajectories} trajectories (task {args.task}, n={ds.n}, "
          f"f={ds.f}, L={ds.length}) to {out}")
    return EXIT_OK


# ---- train ---------------------------------------------------------------


def _load_dataset_or_die(path):
    from . import hydrodata as hd
    try:
        return hd.load_dataset(path)
    except (ValueError, KeyError) as e:
        raise CliError(f"invalid dataset at {path}: {e}", EXIT_CORRUPT)


def _split(ds, name: str, allow_empty: bool = False):
    if not ds.splits:
        raise CliError("dataset manifest has no 'splits' field; regenerate with gen-data",
                       EXIT_USAGE)
    if name not in ds.splits:
        raise CliError(f"manifest 'splits' has no {name!r} entry")
    if not (ds.splits[name] or allow_empty):
        raise CliError(f"manifest 'splits' has an empty {name!r} entry")
    return ds.subset(ds.splits[name])


def _resolve_solver(args) -> None:
    """``--solver``, from a flag or a config file, means nothing to the lstm
    baseline; unset, it is euler, written back for the echo."""
    if args.model == "lstm" and args.solver is not None:
        raise CliError("--solver is meaningless for the lstm baseline")
    if args.solver is None:
        args.solver = "euler"


def cmd_train(args) -> int:
    from . import evalbench, training as tr
    from .models import build_model

    _resolve_solver(args)
    if not args.data:
        raise CliError("--data is required")
    out = _require_out(args)
    ds = _load_dataset_or_die(args.data)
    train_set, val_set = _split(ds, "train"), _split(ds, "val", allow_empty=True)
    model = build_model(evalbench.preset_config(
        evalbench.PRESETS[args.preset], MODEL_FLAGS[args.model], args.solver, ds, args.seed))
    model.fit_normalizer(train_set)
    train_cfg = tr.TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                               max_epochs=args.max_epochs,
                               early_stop_patience=args.patience,
                               grad_clip_norm=args.grad_clip, lr_decay=args.lr_decay,
                               seed=args.seed)
    _echo_config(out, args.command, vars(args))
    try:
        report = tr.train(model, train_set, val_set, train_cfg,
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
    except CheckpointError as e:
        raise CliError(f"corrupt checkpoint {path}: {e}", EXIT_CORRUPT)


def _predict_split(model, subset):
    import numpy as np

    from .autodiff import ShapeError, Tensor
    x, forces, f0 = subset.stack()
    try:
        pred = model.predict_forces(Tensor(x), Tensor(f0)).data
    except ShapeError as e:
        raise CliError(str(e), EXIT_USAGE)
    finite = np.isfinite(pred).all(axis=(-2, -1))
    if not finite.all():
        raise CliError(f"the forecast of trajectory {int(np.argmin(finite))} is not finite",
                       EXIT_DIVERGED)
    return x, forces, f0, pred


def _write_prediction_csvs(out: Path, subset, pred) -> None:
    import numpy as np
    header = ",".join(["t"] + [f"Fhat_{i}" for i in range(subset.f)])
    for j, rec in enumerate(subset.records):
        with atomic_write(out / f"pred_{j:04d}.csv", "wb") as fh:
            np.savetxt(fh, np.column_stack([rec.times, pred[j]]),
                       fmt="%.17g", delimiter=",", header=header, comments="")


def cmd_predict(args) -> int:
    """``predict``, and ``eval``, which adds metrics and SVG overlays."""
    from . import evalbench

    if not args.checkpoint or not args.data:
        raise CliError("--checkpoint and --data are required")
    out = _require_out(args)
    model = _load_model_or_die(args.checkpoint)
    subset = _split(_load_dataset_or_die(args.data), args.split)
    x, forces, f0, pred = _predict_split(model, subset)
    _echo_config(out, args.command, vars(args))
    _write_prediction_csvs(out, subset, pred)
    if args.command == "eval":
        metrics = evalbench.compute_metrics(pred, forces)
        with atomic_write(out / "metrics.json") as fh:
            fh.write(json.dumps({**dataclasses.asdict(metrics), "split": args.split},
                                indent=2, sort_keys=True) + "\n")
        labels, unit = (([f"F{a}" for a in "xyz"[:subset.f]], "N") if subset.f <= 3
                        else (["Fx", "Fy", "Fz", "Tx", "Ty", "Tz"], "N, N&#183;m"))
        for j, rec in enumerate(subset.records):
            evalbench.plot_trajectory_svg(
                rec.times, forces[j], pred[j], out / f"overlay_{j:04d}.svg",
                title=f"trajectory {j} ({args.split} split)",
                axis_labels=labels, unit=unit)
        print(f"MAE {metrics.mae:.6g}  RMSE {metrics.rmse:.6g} "
              f"on {subset.num_trajectories} {args.split} trajectories")
    return EXIT_OK


# ---- bench ---------------------------------------------------------------


def cmd_bench(args) -> int:
    from . import evalbench

    out = _require_out(args)
    _echo_config(out, args.command, vars(args))

    def on_row(table):
        evalbench.emit_report(table, out)  # crash-safe partial results

    table = evalbench.run_benchmark(suite=args.suite, preset_name=args.preset,
                                    seed=args.seed, max_epochs=args.max_epochs,
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

    _resolve_solver(args)
    out = _out_dir(args)
    if out is not None:
        _echo_config(out, args.command, vars(args))
    config = ModelConfig(encoder=MODEL_FLAGS[args.model], n_in=4, f_out=2,
                         d_model=8, heads=2, latent=8, kernel_hidden=(8, 8),
                         lstm_hidden=8, solver=args.solver, dt=0.05, seed=args.seed)
    model = build_model(config)
    rng = np.random.default_rng(args.seed)
    x = Tensor(rng.uniform(-1, 1, (args.steps, 4)))
    f0 = Tensor(rng.uniform(-1, 1, 2))
    target = Tensor(rng.uniform(-1, 1, (args.steps, 2)))

    def loss_fn():
        return tr.mse_loss(model.predict_forces(x, f0), target)

    worst_err, worst_name = 0.0, ""
    for name, tensor in model.params.items():
        err = ad.grad_check(loss_fn, [tensor], epsilon=1e-5)
        if err > worst_err:
            worst_err, worst_name = err, name
    status = "PASS" if worst_err < args.tolerance else "FAIL"
    print(f"{status}: max relative gradient error {worst_err:.3e} "
          f"(worst parameter: {worst_name}, tolerance {args.tolerance:g})")
    return EXIT_OK if worst_err < args.tolerance else EXIT_VERIFY


# ---- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydroforecast",
        description="Attention-encoded Neural ODE force forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, **domains):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1,
                       help="BLAS and OpenMP threads, set before numpy loads")
        p.add_argument("--out")
        p.set_defaults(func=func, domains={"seed": SEED, **domains}, parser=p)
        return p

    p = command("gen-data", cmd_gen_data, "generate a synthetic dataset", split_seed=SEED)
    p.add_argument("--task", choices=["1.1", "1.2", "1.3", "2"])
    p.add_argument("--trajectories", type=int)
    p.add_argument("--dt", type=float, default=DEFAULT_DT)
    p.add_argument("--length", type=int)
    p.add_argument("--split-seed", type=int)

    p = command("train", cmd_train, "train a model on a dataset directory",
                lr=POSITIVE, batch_size=COUNT, max_epochs=COUNT, patience=COUNT,
                grad_clip=POSITIVE, lr_decay=(lambda v: 0 < v <= 1, "in (0, 1]"))
    p.add_argument("--data")
    p.add_argument("--model", choices=sorted(MODEL_FLAGS), default="attention-ode")
    p.add_argument("--solver", choices=["euler", "rk4"])
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--max-epochs", type=int, default=50)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--grad-clip", type=float, default=10.0)
    p.add_argument("--lr-decay", type=float, default=1.0,
                   help="per-epoch learning-rate multiplier in (0, 1]")
    p.add_argument("--preset", choices=["desk", "paper"], default="desk")

    for name, help in (("predict", "write per-trajectory force predictions"),
                       ("eval", "predictions plus metrics and SVG overlays")):
        p = command(name, cmd_predict, help)
        p.add_argument("--checkpoint")
        p.add_argument("--data")
        p.add_argument("--split", choices=["train", "val", "test"], default="test")

    p = command("bench", cmd_bench, "run the benchmark suite and emit tables",
                max_epochs=COUNT)
    p.add_argument("--suite", choices=["task1", "task2", "all"], default="all")
    p.add_argument("--preset", choices=["desk", "paper"], default="desk")
    p.add_argument("--max-epochs", type=int)

    p = command("gradcheck", cmd_gradcheck, "verify end-to-end gradients on a tiny model",
                steps=(lambda v: 1 <= v <= 50, "in [1, 50] (finite differencing is O(params))"),
                tolerance=POSITIVE)
    p.add_argument("--model", choices=sorted(MODEL_FLAGS), default="attention-ode")
    p.add_argument("--solver", choices=["euler", "rk4"])
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--tolerance", type=float, default=1e-4)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    for var in THREAD_VARS:  # read once, when a subcommand first imports numpy
        os.environ[var] = str(args.threads)
    try:
        args = _resolve(parser, argv, args)
        code = args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        if e.code == EXIT_USAGE:
            print(parser.format_usage(), file=sys.stderr, end="")
        code = e.code
    except OSError as e:  # its message names the path
        print(f"error: {e}", file=sys.stderr)
        code = EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
