"""Trajectory-MSE training: Adam with bias correction, global-norm gradient
clipping, shuffled minibatches, per-epoch validation, and early stopping on
a patience counter. The best-validation parameters are what a run returns.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .hydrodata import TrajectoryDataset
from .models import ForecastModel, checkpoint_save


# Adam's moment decay rates and denominator floor
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class DivergenceError(RuntimeError):
    """Loss or gradients went non-finite; the last good parameters are kept."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 50
    grad_clip_norm: float = 1.0
    early_stop_patience: int = 20
    lr_decay: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "early_stop_patience"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        for name in ("learning_rate", "grad_clip_norm"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite number above 0, got "
                                 f"{getattr(self, name)!r}")
        if not (0 < self.lr_decay <= 1):
            raise ValueError("lr_decay must be in (0, 1]")


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


@dataclass
class TrainReport:
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int
    best_val_loss: float
    wall_seconds: float
    checkpoint_path: str | None = None
    stopped_early: bool = False


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: shapes {pred.shape} and {target.shape} differ")
    return ad.reduce_mean(ad.square(ad.sub(pred, target)))


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


def adam_step(model: ForecastModel, grads: dict[str, np.ndarray], state: AdamState,
              cfg: TrainConfig, lr: float | None = None) -> None:
    """One Adam step on the parameters named in ``grads``; the others stay."""
    if lr is None:
        lr = cfg.learning_rate
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
    grads = clip_gradients(grads, cfg.grad_clip_norm)
    state.step += 1
    t = state.step
    for name, g in grads.items():
        m = BETA1 * state.m.get(name, 0.0) + (1 - BETA1) * g
        v = BETA2 * state.v.get(name, 0.0) + (1 - BETA2) * g * g
        state.m[name], state.v[name] = m, v
        m_hat = m / (1 - BETA1 ** t)
        v_hat = v / (1 - BETA2 ** t)
        tensor = model.params[name]
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + EPSILON)


def _batch_loss(model: ForecastModel, x: np.ndarray, forces: np.ndarray,
                f0: np.ndarray) -> Tensor:
    pred = model.predict_forces(Tensor(x), Tensor(f0))
    return mse_loss(pred, Tensor(forces))


def _train_step(model: ForecastModel, x: np.ndarray, forces: np.ndarray, f0: np.ndarray,
                state: AdamState, cfg: TrainConfig, lr: float, epoch: int) -> float:
    """One Adam step on a batch; returns the batch loss. The batch's graph is
    dropped on return, so it is gone before the next batch builds its own."""
    model.params.zero_grad()
    loss = _batch_loss(model, x, forces, f0)
    value = loss.item()
    if not math.isfinite(value):
        raise DivergenceError(f"training loss became {value} at epoch {epoch}")
    ad.backward(loss)
    grads = {n: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for n, t in model.params.items()}
    adam_step(model, grads, state, cfg, lr=lr)
    return value


def evaluate_loss(model: ForecastModel, ds: TrajectoryDataset,
                  batch_size: int = 32) -> float:
    x, forces, f0 = ds.stack()
    total, count = 0.0, 0
    for lo in range(0, len(x), batch_size):
        hi = min(lo + batch_size, len(x))
        total += _batch_loss(model, x[lo:hi], forces[lo:hi], f0[lo:hi]).item() * (hi - lo)
        count += hi - lo
    return total / count


def train(model: ForecastModel, train_set: TrajectoryDataset,
          val_set: TrajectoryDataset | None, cfg: TrainConfig,
          checkpoint_path=None, log_path=None) -> TrainReport:
    """Run the full loop; restores the best-validation parameters at the end.

    An epoch whose validation loss (the training loss when there is no
    validation set) is below the best so far is the new best. The run stops
    after ``cfg.early_stop_patience`` epochs in a row without a new best.
    """
    if train_set.num_trajectories == 0:
        raise ValueError("empty training set")
    x_all, forces_all, f0_all = train_set.stack()
    if x_all.shape[-1] != model.config.n_in:
        raise ShapeError(f"dataset condition dim {x_all.shape[-1]} != model n_in "
                         f"{model.config.n_in}")
    if forces_all.shape[-1] != model.config.f_out:
        raise ShapeError(f"dataset force dim {forces_all.shape[-1]} != model f_out "
                         f"{model.config.f_out}")
    rng = np.random.default_rng(cfg.seed)
    state = AdamState()
    report = TrainReport(train_losses=[], val_losses=[], best_epoch=-1,
                         best_val_loss=math.inf, wall_seconds=0.0,
                         checkpoint_path=str(checkpoint_path) if checkpoint_path else None)
    best_params = {n: t.data.copy() for n, t in model.params.items()}
    divergence = None
    start = time.perf_counter()
    try:
        with open(log_path, "w") if log_path else contextlib.nullcontext() as log_fh:
            for epoch in range(cfg.max_epochs):
                lr_epoch = cfg.learning_rate * cfg.lr_decay ** epoch
                order = rng.permutation(len(x_all))
                epoch_loss = 0.0
                for lo in range(0, len(order), cfg.batch_size):
                    idx = order[lo:lo + cfg.batch_size]
                    epoch_loss += _train_step(model, x_all[idx], forces_all[idx], f0_all[idx],
                                              state, cfg, lr_epoch, epoch) * len(idx)
                train_loss = epoch_loss / len(order)
                val_loss = (evaluate_loss(model, val_set, cfg.batch_size)
                            if val_set is not None and val_set.num_trajectories
                            else train_loss)
                report.train_losses.append(train_loss)
                report.val_losses.append(val_loss)
                if log_fh:
                    log_fh.write(json.dumps({
                        "epoch": epoch, "train_loss": train_loss, "val_loss": val_loss,
                        "wall_ms": (time.perf_counter() - start) * 1000.0,
                        "lr": lr_epoch}) + "\n")
                    log_fh.flush()
                if val_loss < report.best_val_loss:
                    report.best_val_loss, report.best_epoch = val_loss, epoch
                    best_params = {n: t.data.copy() for n, t in model.params.items()}
                elif epoch - report.best_epoch >= cfg.early_stop_patience:
                    report.stopped_early = True
                    break
    except DivergenceError as e:
        divergence = e
    for name, tensor in model.params.items():
        tensor.data = best_params[name]
    if checkpoint_path is not None:
        checkpoint_save(model, checkpoint_path)
    report.wall_seconds = time.perf_counter() - start
    if divergence is not None:
        raise DivergenceError(f"{divergence}; best checkpoint retained from epoch "
                              f"{report.best_epoch}")
    return report
