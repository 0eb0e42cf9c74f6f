"""Metrics, inference timing, and the benchmark runner.

The benchmark reproduces the structure of the paper-style comparison
tables: a Task 1 table with MLP/Attention ODE rows under euler and RK4
across static/changing/noisy conditions, and a Task 2 table with
time/parameter/MAE/RMSE rows for MLP-ODE, Attention-ODE, and LSTM.
Reports land as results.csv, results.json, and static SVG overlays.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import ShapeError, Tensor
from .fileio import atomic_write
from .hydrodata import TASK1_VARIANTS, TrajectoryDataset, generate, split_dataset
from .models import ForecastModel, ModelConfig, build_model
from .training import TrainConfig, evaluate_loss, train


@dataclass(frozen=True)
class MetricsReport:
    mae: float
    rmse: float
    mae_per_axis: tuple[float, ...]
    rmse_per_axis: tuple[float, ...]
    num_samples: int

    def __post_init__(self):
        for m, r in zip((self.mae,) + self.mae_per_axis,
                        (self.rmse,) + self.rmse_per_axis):
            if not (r >= m >= 0.0):
                raise ValueError(f"power-mean violation: rmse {r} < mae {m}")


def compute_metrics(pred: np.ndarray, truth: np.ndarray) -> MetricsReport:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"metrics: shapes {pred.shape} and {truth.shape} differ")
    if pred.size == 0:
        raise ValueError("metrics: empty input")
    err = pred - truth
    flat = err.reshape(-1, err.shape[-1])
    return MetricsReport(
        mae=float(np.mean(np.abs(err))),
        rmse=float(np.sqrt(np.mean(err ** 2))),
        mae_per_axis=tuple(float(v) for v in np.mean(np.abs(flat), axis=0)),
        rmse_per_axis=tuple(float(v) for v in np.sqrt(np.mean(flat ** 2, axis=0))),
        num_samples=flat.shape[0])


def compute_metrics_reference(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Naive double-loop MAE/RMSE oracle for cross-checking compute_metrics."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    truth = np.asarray(truth, dtype=np.float64).reshape(-1)
    abs_sum = 0.0
    sq_sum = 0.0
    for a, b in zip(pred, truth):
        abs_sum += abs(a - b)
        sq_sum += (a - b) ** 2
    n = len(pred)
    return abs_sum / n, (sq_sum / n) ** 0.5


def time_inference(model: ForecastModel, x: np.ndarray, f0: np.ndarray,
                   repeats: int = 100, warmup: int = 10) -> float:
    """Mean wall-clock ms of ``repeats`` forecasts, after ``warmup`` untimed ones."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    xt, f0t = Tensor(x), Tensor(f0)
    for _ in range(warmup):
        model.predict_forces(xt, f0t)
    start = time.perf_counter()
    for _ in range(repeats):
        model.predict_forces(xt, f0t)
    return (time.perf_counter() - start) * 1000.0 / repeats


# ---- benchmark -----------------------------------------------------------


@dataclass
class BenchmarkCell:
    model: str
    solver: str
    task: str
    mae: float | None = None
    rmse: float | None = None
    mae_per_axis: tuple[float, ...] = ()
    rmse_per_axis: tuple[float, ...] = ()
    params: int | None = None
    time_ms_mean: float | None = None
    seed: int = 0
    failure: str | None = None


@dataclass
class BenchmarkTable:
    rows: list[BenchmarkCell] = field(default_factory=list)
    config: dict = field(default_factory=dict)


# desk-scale sizes keep every cell laptop-sized; the paper preset restores
# the published [512,512,512] widths, 4 heads, and LSTM hidden 256
PRESETS = {
    "desk": {"d_model": 64, "heads": 4, "latent": 64, "kernel_hidden": (64, 64, 64),
             "lstm_hidden": 64, "task1_conditions": 48, "task2_trajectories": 12,
             "max_epochs": 8, "timing_repeats": 10},
    "paper": {"d_model": 512, "heads": 4, "latent": 512,
              "kernel_hidden": (512, 512, 512), "lstm_hidden": 256,
              "task1_conditions": 192, "task2_trajectories": 24,
              "max_epochs": 30, "timing_repeats": 100},
}

SUITES = ("task1", "task2", "all")
TASK1_ROWS = (("mlp", "euler"), ("attention", "euler"), ("mlp", "rk4"),
              ("attention", "rk4"))
TASK2_ROWS = (("mlp", "euler"), ("attention", "euler"), ("lstm-baseline", "euler"))


def _model_name(encoder: str, solver: str, with_solver: bool) -> str:
    base = {"mlp": "MLP-ODE", "attention": "Attention-ODE",
            "lstm-baseline": "LSTM"}[encoder]
    if with_solver and encoder != "lstm-baseline":
        return f"{base}-{solver}"
    return base


def preset_config(preset: dict, encoder: str, solver: str, ds: TrajectoryDataset,
                  seed: int) -> ModelConfig:
    """The model config for ``encoder`` and ``solver`` at ``preset``'s widths,
    sized to ``ds``."""
    return ModelConfig(encoder=encoder, n_in=ds.n, f_out=ds.f, d_model=preset["d_model"],
                       heads=preset["heads"], latent=preset["latent"],
                       kernel_hidden=preset["kernel_hidden"],
                       lstm_hidden=preset["lstm_hidden"], solver=solver, dt=ds.dt, seed=seed)


def _bench_one(encoder: str, solver: str, ds: TrajectoryDataset, task: str,
               preset: dict, train_cfg: TrainConfig, seed: int,
               time_it: bool) -> BenchmarkCell:
    cell = BenchmarkCell(model=_model_name(encoder, solver, task.startswith("1")),
                         solver=solver, task=task, seed=seed)
    try:
        model = build_model(preset_config(preset, encoder, solver, ds, seed))
        train_ds, val_ds, test_ds, _ = split_dataset(ds, seed=seed)
        model.fit_normalizer(train_ds)
        train(model, train_ds, val_ds, train_cfg)
        x, forces, f0 = test_ds.stack()
        pred = model.predict_forces(Tensor(x), Tensor(f0)).data
        metrics = compute_metrics(pred, forces)
        cell.mae = metrics.mae
        cell.rmse = metrics.rmse
        cell.mae_per_axis = metrics.mae_per_axis
        cell.rmse_per_axis = metrics.rmse_per_axis
        cell.params = model.num_params()
        if time_it:
            cell.time_ms_mean = time_inference(model, x[:1], f0[:1],
                                               repeats=preset["timing_repeats"],
                                               warmup=2)
    except Exception as e:  # a failed cell is recorded, the run continues
        cell.failure = f"{type(e).__name__}: {e}"
    return cell


def run_benchmark(suite: str = "all", preset_name: str = "desk", seed: int = 0,
                  datasets: dict[str, TrajectoryDataset] | None = None,
                  max_epochs: int | None = None, on_row=None) -> BenchmarkTable:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if preset_name not in PRESETS:
        raise ValueError(f"unknown preset {preset_name!r}")
    preset = PRESETS[preset_name]
    epochs = preset["max_epochs"] if max_epochs is None else max_epochs
    train_cfg = TrainConfig(learning_rate=3e-3, max_epochs=epochs,
                            early_stop_patience=max(2, epochs), seed=seed)
    datasets = dict(datasets or {})
    table = BenchmarkTable(config={"suite": suite, "preset": preset_name, "seed": seed,
                                   "max_epochs": epochs})
    if suite in ("task1", "all"):
        for task in TASK1_VARIANTS:
            if task not in datasets:
                datasets[task] = generate(task, seed=seed,
                                          num_trajectories=preset["task1_conditions"])
        for encoder, solver in TASK1_ROWS:
            for task in TASK1_VARIANTS:
                table.rows.append(_bench_one(encoder, solver, datasets[task], task,
                                             preset, train_cfg, seed, time_it=False))
                if on_row:
                    on_row(table)
    if suite in ("task2", "all"):
        if "2" not in datasets:
            datasets["2"] = generate("2", seed=seed,
                                     num_trajectories=preset["task2_trajectories"])
        for encoder, solver in TASK2_ROWS:
            table.rows.append(_bench_one(encoder, solver, datasets["2"], "2",
                                         preset, train_cfg, seed, time_it=True))
            if on_row:
                on_row(table)
    return table


# ---- report emission -----------------------------------------------------


CSV_COLUMNS = ("model", "solver", "task", "mae", "rmse", "mae_per_axis",
               "rmse_per_axis", "params", "time_ms_mean", "seed")


def _cell_csv_value(cell: BenchmarkCell, col: str) -> str:
    if cell.failure is not None and col in ("mae", "rmse", "mae_per_axis",
                                            "rmse_per_axis", "params", "time_ms_mean"):
        return f"FAIL:{cell.failure}".replace(",", ";").replace("\n", " ")
    value = getattr(cell, col)
    if value is None:
        return ""
    if col in ("mae_per_axis", "rmse_per_axis"):
        return ";".join(f"{v:.17g}" for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_report(table: BenchmarkTable, outdir, include_timing: bool = True) -> list[Path]:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    cols = [c for c in CSV_COLUMNS if include_timing or c != "time_ms_mean"]

    lines = [",".join(cols)]
    for cell in table.rows:
        lines.append(",".join(_cell_csv_value(cell, c) for c in cols))
    csv_path = out / "results.csv"
    with atomic_write(csv_path) as fh:
        fh.write("\n".join(lines) + "\n")
    written.append(csv_path)

    payload = {"config": table.config, "rows": []}
    for cell in table.rows:
        payload["rows"].append({c: getattr(cell, c) for c in (*cols, "failure")})
    json_path = out / "results.json"
    with atomic_write(json_path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    written.append(json_path)
    return written


# ---- SVG plotting --------------------------------------------------------

_AXIS_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _polyline(xs, ys, color, dashed=False):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    dash = ' stroke-dasharray="6 3"' if dashed else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{dash} points="{pts}" />')


def plot_trajectory_svg(times: np.ndarray, truth: np.ndarray, pred: np.ndarray,
                        path, title: str = "", axis_labels: list[str] | None = None,
                        unit: str = "N") -> None:
    """Prediction-vs-truth overlay: solid truth, dashed prediction per axis.
    ``unit`` is the y axis's unit, or a force's and a torque's ("N, N&#183;m")
    when torque axes are drawn too."""
    width, height = 860, 460
    ml, mr, mt, mb = 70, 180, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    f = truth.shape[-1]
    labels = axis_labels or [f"axis {i}" for i in range(f)]
    lo = min(truth.min(), pred.min())
    hi = max(truth.max(), pred.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0
    t0, t1 = float(times[0]), float(times[-1])

    def sx(t):
        return ml + pw * (t - t0) / max(t1 - t0, 1e-12)

    def sy(v):
        return mt + ph * (1.0 - (v - lo) / (hi - lo))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white" />',
             f'<text x="{ml}" y="24" font-family="sans-serif" font-size="15">{title}</text>',
             f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
             'stroke="#444" stroke-width="1" />',
             f'<text x="{ml + pw / 2:.0f}" y="{height - 12}" font-family="sans-serif" '
             f'font-size="13" text-anchor="middle">time [s]</text>',
             f'<text x="18" y="{mt + ph / 2:.0f}" font-family="sans-serif" font-size="13" '
             f'transform="rotate(-90 18 {mt + ph / 2:.0f})" '
             f'text-anchor="middle">{"force" if unit == "N" else "force, torque"} '
             f'[{unit}]</text>']
    for tick in np.linspace(lo, hi, 5):
        y = sy(tick)
        parts.append(f'<line x1="{ml - 4}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" '
                     'stroke="#444" />')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="end">{tick:.3g}</text>')
    for tick in np.linspace(t0, t1, 5):
        x = sx(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" '
                     f'y2="{mt + ph + 4}" stroke="#444" />')
        parts.append(f'<text x="{x:.2f}" y="{mt + ph + 18}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="middle">{tick:.3g}</text>')
    xs = [sx(t) for t in times]
    for i in range(f):
        color = _AXIS_COLORS[i % len(_AXIS_COLORS)]
        parts.append(_polyline(xs, [sy(v) for v in truth[:, i]], color))
        parts.append(_polyline(xs, [sy(v) for v in pred[:, i]], color, dashed=True))
        ly = mt + 18 * (2 * i)
        lx = width - mr + 10
        parts.append(f'<line x1="{lx}" y1="{ly + 8}" x2="{lx + 24}" y2="{ly + 8}" '
                     f'stroke="{color}" stroke-width="1.5" />')
        parts.append(f'<text x="{lx + 30}" y="{ly + 12}" font-family="sans-serif" '
                     f'font-size="11">{labels[i]} truth</text>')
        parts.append(f'<line x1="{lx}" y1="{ly + 26}" x2="{lx + 24}" y2="{ly + 26}" '
                     f'stroke="{color}" stroke-width="1.5" stroke-dasharray="6 3" />')
        parts.append(f'<text x="{lx + 30}" y="{ly + 30}" font-family="sans-serif" '
                     f'font-size="11">{labels[i]} pred</text>')
    parts.append("</svg>")
    with atomic_write(path) as fh:
        fh.write("\n".join(parts) + "\n")
