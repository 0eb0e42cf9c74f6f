"""Acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live). The heavier criteria train models end to end and respect the
stated wall-clock budgets; expect this module to dominate suite runtime.
"""

import dataclasses
import filecmp
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from hydroforecast import autodiff as ad
from hydroforecast import training
from hydroforecast.autodiff import Tensor
from hydroforecast.evalbench import compute_metrics, compute_metrics_reference
from hydroforecast.hydrodata import (OracleParams, TowingCondition, generate,
                                     split_dataset, steady_wrench)
from hydroforecast.layers import MLPBlock, collect_params
from hydroforecast.models import ModelConfig, build_model
from hydroforecast.odeint import TimeGrid, adjoint_backward, integrate
from hydroforecast.training import TrainConfig, mse_loss, train

CLI = [sys.executable, "-m", "hydroforecast.cli"]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def pooled_std(forces: np.ndarray) -> float:
    per_axis_var = np.var(forces.reshape(-1, forces.shape[-1]), axis=0)
    return float(np.sqrt(np.mean(per_axis_var)))


def decay_kernel(state, control, t):
    return ad.scale(state, -1.0)


def test_criterion_1_integrator_accuracy():
    start = time.perf_counter()
    grid = TimeGrid(0.0, 0.01, 100)
    zeros = Tensor(np.zeros((100, 1)))
    rk4_end = integrate("rk4", Tensor([1.0]), decay_kernel, grid, zeros).data[-1, 0]
    euler_end = integrate("euler", Tensor([1.0]), decay_kernel, grid, zeros).data[-1, 0]
    rk4_err = abs(rk4_end - math.exp(-1.0))
    euler_err = abs(euler_end - math.exp(-1.0))
    elapsed = time.perf_counter() - start
    ok = rk4_err < 1e-9 and euler_err < 2 * 1.85e-3 and elapsed < 1.0
    report(1, ok, f"rk4 err {rk4_err:.2e} (<1e-9), euler err {euler_err:.3e} "
                  f"(<{2 * 1.85e-3:.2e}), {elapsed:.2f} s")


def test_criterion_2_convergence_order(convergence_slope):
    start = time.perf_counter()
    s_euler = convergence_slope("euler", (0.1, 0.05, 0.025))
    s_rk4 = convergence_slope("rk4", (0.1, 0.05, 0.025))
    elapsed = time.perf_counter() - start
    ok = abs(s_euler - 1.0) <= 0.1 and abs(s_rk4 - 4.0) <= 0.3 and elapsed < 1.0
    report(2, ok, f"euler slope {s_euler:.3f} (1±0.1), rk4 slope {s_rk4:.3f} "
                  f"(4±0.3), {elapsed:.2f} s")


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for solver in ("euler", "rk4"):
        cfg = ModelConfig(encoder="attention", n_in=4, f_out=2, d_model=8,
                          heads=2, latent=8, kernel_hidden=(8, 8),
                          solver=solver, dt=0.05)
        model = build_model(cfg)
        x = Tensor(rng.uniform(-1, 1, (10, 4)))
        f0 = Tensor(rng.uniform(-1, 1, 2))
        target = Tensor(rng.uniform(-1, 1, (10, 2)))

        def loss_fn():
            return mse_loss(model.predict_forces(x, f0), target)

        err = ad.grad_check(loss_fn, model.params.tensors(), epsilon=1e-5)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report(3, ok, f"max relative gradient error {worst:.2e} (<1e-4, both "
                  f"solvers, 10 steps), {elapsed:.1f} s (<30)")


def test_criterion_4_adjoint_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    mlp = MLPBlock([2 + 3, 16, 2], rng)
    params = list(collect_params(("k", mlp)).items())

    def kernel(state, control, t):
        return mlp(ad.concat([state, control], axis=-1))

    grid = TimeGrid(0.0, 0.01, 50)
    controls = Tensor(rng.normal(size=(50, 3)))
    f0 = Tensor(rng.normal(size=(2,)), requires_grad=True)
    targets = rng.normal(size=(50, 2))

    traj = integrate("euler", f0, kernel, grid, controls)
    loss = ad.reduce_sum(ad.square(ad.sub(traj, Tensor(targets))))
    ad.backward(loss)
    unrolled = {n: t.grad.copy() for n, t in params}
    for _, t in params:
        t.zero_grad()

    dl = 2.0 * (traj.data - targets)
    adj, _ = adjoint_backward(traj.data, f0, kernel, grid, controls, dl, params,
                              solver="euler")
    worst_rel, worst_cos = 0.0, 1.0
    for name, g in unrolled.items():
        rel = np.max(np.abs(adj[name] - g)) / max(1.0, float(np.max(np.abs(g))))
        cos = float(np.dot(adj[name].ravel(), g.ravel())
                    / (np.linalg.norm(adj[name]) * np.linalg.norm(g) + 1e-300))
        worst_rel = max(worst_rel, rel)
        worst_cos = min(worst_cos, cos)
    elapsed = time.perf_counter() - start
    ok = worst_rel < 1e-3 and worst_cos > 0.999 and elapsed < 30.0
    report(4, ok, f"adjoint vs unrolled: max rel {worst_rel:.2e} (<1e-3), "
                  f"min cosine {worst_cos:.6f} (>0.999), {elapsed:.1f} s")


def test_criterion_5_overfit_capability():
    start = time.perf_counter()
    ds = generate("1.1", seed=0, num_trajectories=1)
    model = build_model(ModelConfig(encoder="attention", n_in=4, f_out=2))
    model.fit_normalizer(ds)
    cfg = TrainConfig(max_epochs=5000)
    x, forces, f0 = ds.stack()
    state = training.AdamState()
    # Adam steps on the one trajectory until a step's loss is below 1e-2
    for steps in range(1, cfg.max_epochs + 1):
        final = training._train_step(model, x, forces, f0, state, cfg, cfg.learning_rate,
                                     steps - 1)
        if final < 1e-2:
            break
    elapsed = time.perf_counter() - start
    ok = final < 1e-2 and steps <= 5000 and elapsed < 120.0
    report(5, ok, f"single-trajectory MSE {final:.2e} N^2 (<1e-2) after "
                  f"{steps} Adam-default steps (<=5000), {elapsed:.0f} s (<120)")


def _mirror_joints(rec):
    # towing forces depend on the joints only through |sin q2| and
    # |sin(q2 + q3)|, so negating both joint angles reuses the same labels
    c = rec.conditions.copy()
    c[:, 0] *= -1.0
    c[:, 1] *= -1.0
    return dataclasses.replace(rec, conditions=c)


def test_criterion_6_generalization():
    start = time.perf_counter()
    ds = generate("1.1", seed=7)
    train_ds, val_ds, test_ds, _ = split_dataset(ds, seed=7)
    assert train_ds.num_trajectories == 154
    aug = dataclasses.replace(
        train_ds,
        records=train_ds.records + [_mirror_joints(r) for r in train_ds.records])
    # wide shallow encoder: held-out error is dominated by how well the
    # steady force map interpolates the coarse joint grid, and width helps
    # that far more than encoder depth or kernel capacity
    model = build_model(ModelConfig(encoder="mlp", n_in=4, f_out=2, d_model=256,
                                    latent=16, kernel_hidden=(32, 32), seed=0))
    model.fit_normalizer(aug)
    cfg = TrainConfig(learning_rate=7e-3, batch_size=16, max_epochs=300,
                      grad_clip_norm=10.0, early_stop_patience=300,
                      lr_decay=0.99, seed=0)
    train(model, aug, val_ds, cfg)
    x, forces, f0 = test_ds.stack()
    pred = model.predict_forces(Tensor(x), Tensor(f0)).data
    rmse = compute_metrics(pred, forces).rmse
    std = pooled_std(forces)
    elapsed = time.perf_counter() - start
    ok = rmse < 0.05 * std and elapsed < 900.0
    report(6, ok, f"held-out pooled RMSE {rmse:.3f} N = {100 * rmse / std:.2f}% "
                  f"of force std {std:.2f} N (<5%), {elapsed:.0f} s (<900)")


def _train_and_eval_switching(train_task: str, eval_ds, seed: int):
    ds = generate(train_task, seed=seed)
    train_ds, val_ds, _, _ = split_dataset(ds, seed=seed)
    model = build_model(ModelConfig(encoder="mlp", n_in=4, f_out=2, seed=0))
    model.fit_normalizer(train_ds)
    cfg = TrainConfig(learning_rate=5e-3, batch_size=16, max_epochs=150,
                      grad_clip_norm=10.0, early_stop_patience=150,
                      lr_decay=0.99, seed=0)
    train(model, train_ds, val_ds, cfg)
    x, forces, f0 = eval_ds.stack()
    pred = model.predict_forces(Tensor(x), Tensor(f0)).data
    return compute_metrics(pred, forces).rmse


def test_criterion_7_noise_robustness():
    start = time.perf_counter()
    seed = 7
    clean = generate("1.2", seed=seed)
    _, _, clean_test, _ = split_dataset(clean, seed=seed)
    rmse_clean_trained = _train_and_eval_switching("1.2", clean_test, seed)
    rmse_noisy_trained = _train_and_eval_switching("1.3", clean_test, seed)
    elapsed = time.perf_counter() - start
    ok = rmse_noisy_trained <= 2.0 * rmse_clean_trained and elapsed < 1200.0
    report(7, ok, f"clean-target RMSE: noise-trained {rmse_noisy_trained:.3f} N "
                  f"vs clean-trained {rmse_clean_trained:.3f} N "
                  f"(ratio {rmse_noisy_trained / rmse_clean_trained:.2f} <= 2), "
                  f"{elapsed:.0f} s (<1200)")


def test_criterion_8_benchmark_structure(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "bench"
    r = subprocess.run(CLI + ["bench", "--suite", "all", "--preset", "desk",
                              "--seed", "0", "--out", str(out)],
                       capture_output=True, text=True, timeout=2700)
    assert r.returncode == 0, r.stderr
    payload = json.loads((out / "results.json").read_text())
    rows = payload["rows"]
    task1 = [row for row in rows if row["task"].startswith("1.")]
    task2 = [row for row in rows if row["task"] == "2"]
    task1_models = [row["model"] for row in task1[::3]]
    structure_ok = (
        task1_models == ["MLP-ODE-euler", "Attention-ODE-euler",
                         "MLP-ODE-rk4", "Attention-ODE-rk4"]
        and sorted({row["task"] for row in task1}) == ["1.1", "1.2", "1.3"]
        and len(task1) == 12
        and [row["model"] for row in task2] == ["MLP-ODE", "Attention-ODE", "LSTM"]
        and all(row["time_ms_mean"] is not None and row["params"] is not None
                for row in task2))
    finite_ok = all(row["failure"] is None
                    and np.isfinite(row["mae"]) and np.isfinite(row["rmse"])
                    for row in rows)

    # seed reproducibility, demonstrated on a reduced-budget repeat pair
    cells = []
    for tag in ("a", "b"):
        rr = subprocess.run(CLI + ["bench", "--suite", "task2", "--preset", "desk",
                                   "--max-epochs", "1", "--seed", "0",
                                   "--out", str(tmp_path / tag)],
                            capture_output=True, text=True, timeout=900)
        assert rr.returncode == 0, rr.stderr
        data = json.loads((tmp_path / tag / "results.json").read_text())
        cells.append([(row["model"], row["mae"], row["rmse"]) for row in data["rows"]])
    repro_ok = cells[0] == cells[1]
    elapsed = time.perf_counter() - start
    ok = structure_ok and finite_ok and repro_ok and elapsed < 2700.0
    report(8, ok, f"bench tables: structure {'ok' if structure_ok else 'BAD'}, "
                  f"all {len(rows)} cells finite {'ok' if finite_ok else 'BAD'}, "
                  f"seed-reproducible {'ok' if repro_ok else 'BAD'}, "
                  f"{elapsed:.0f} s (<2700)")


def test_criterion_9_oracle_sanity():
    p = OracleParams()
    w = steady_wrench(TowingCondition(q2=0.0, q3=0.0,
                                      v=np.array([0.5, 0.0, 0.0])), p)
    fx_err = abs(w[0] - (-19.25))
    torque_mag = float(np.max(np.abs(w[3:])))
    base = steady_wrench(TowingCondition(q2=0.9, q3=-0.3,
                                         v=np.array([0.15, 0.2, 0.0])), p)
    tripled = steady_wrench(TowingCondition(q2=0.9, q3=-0.3,
                                            v=np.array([0.45, 0.6, 0.0])), p)
    scaling_err = float(np.max(np.abs(tripled - 9.0 * base)))
    ok = fx_err < 1e-10 and torque_mag < 1e-10 and scaling_err < 1e-10
    report(9, ok, f"Fx err {fx_err:.1e}, |torque| {torque_mag:.1e}, "
                  f"quadratic-scaling err {scaling_err:.1e} (all <1e-10)")


def test_criterion_10_determinism(tmp_path):
    def pipeline(root):
        env = dict(os.environ)
        steps = [
            ["gen-data", "--task", "1.1", "--trajectories", "24", "--length",
             "30", "--seed", "0", "--threads", "1", "--out", str(root / "data")],
            ["train", "--data", str(root / "data"), "--model", "mlp-ode",
             "--max-epochs", "3", "--seed", "0", "--threads", "1",
             "--out", str(root / "train")],
            ["eval", "--checkpoint", str(root / "train" / "model.ckpt"),
             "--data", str(root / "data"), "--split", "test", "--seed", "0",
             "--threads", "1", "--out", str(root / "eval")],
        ]
        for argv in steps:
            r = subprocess.run(CLI + argv, capture_output=True, text=True,
                               env=env, timeout=600)
            assert r.returncode == 0, r.stderr

    pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    mismatches = []
    for sub in ("data", "train", "eval"):
        a, b = tmp_path / "run1" / sub, tmp_path / "run2" / sub
        names = [p.name for p in a.iterdir() if p.name != "resolved_config.json"]
        _, bad, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        # the config echo embeds the output path, which differs by design;
        # training logs contain wall-clock times, so compare them field-wise
        for name in bad + errors:
            if name == "train_log.jsonl":
                rows_a = [json.loads(l) for l in (a / name).read_text().splitlines()]
                rows_b = [json.loads(l) for l in (b / name).read_text().splitlines()]
                for ra, rb in zip(rows_a, rows_b):
                    ra.pop("wall_ms"), rb.pop("wall_ms")
                if rows_a != rows_b:
                    mismatches.append(f"{sub}/{name}")
            else:
                mismatches.append(f"{sub}/{name}")
    ok = not mismatches
    report(10, ok, "gen-data/train/eval byte-identical across two seeded runs"
                   + ("" if ok else f"; mismatches: {mismatches}"))


def test_criterion_11_metric_identities():
    rng = np.random.default_rng(4)
    pred = rng.normal(size=(1000, 2))
    truth = rng.normal(size=(1000, 2))
    m = compute_metrics(pred, truth)
    ref_mae, ref_rmse = compute_metrics_reference(pred, truth)
    mae_err = abs(m.mae - ref_mae)
    rmse_err = abs(m.rmse - ref_rmse)
    ok = m.rmse >= m.mae and mae_err < 1e-12 and rmse_err < 1e-12
    report(11, ok, f"RMSE {m.rmse:.4f} >= MAE {m.mae:.4f} on 1000 random "
                   f"inputs; reference deltas {mae_err:.1e}/{rmse_err:.1e} (<1e-12)")
