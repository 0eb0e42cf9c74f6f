#!/usr/bin/env python3
"""Compare the numbers two source trees of hydroforecast produce.

Each tree runs in its own interpreter and dumps a fixed set of results:
forecasts, every parameter gradient and the tape-node count of an MSE loss,
adjoint kernel gradients and dL/dF0, attention weights, the raw bytes of each
model's saved checkpoint, the raw bytes of every dataset file written (the
one trajectories_<crc32>.npy table and manifest.json), the datasets read back,
benchmark report files, and prediction CSVs. Datasets cover Tasks 1.1
(static, towed from rest), 1.2, 1.3 (noise injection) and 2. The model cases
are the attention, mlp and lstm encoders x euler and rk4 x fitted and
identity normalisers on Task 1.2 and Task 2 data, plus the attention encoder
x euler and rk4 on Task 2 at its full horizon, L=400, where a batch of three
fills three score tiles, so attention keeps no weights and its VJP recomputes
them. Each encoder x solver also forecasts at batch 1 (the benchmark's
forecast shape) and unbatched, x [L, n] and F0 [f] (the CLI's), with its
loss gradients and tape nodes. Taped cases run ``integrate`` with a plain
closure kernel, which tapes every solver step, Euler and RK4, with and
without a time column. Layer cases cover calls that no model makes:
a LinearLayer and an MLPBlock on 1-d and 3-d input, an LSTMStack fed one
unbatched 2-d sequence and a sequence with two batch axes, and a
MultiHeadSelfAttention on two batch axes at L=200, whose six trajectories
fill two score tiles, each with its output, parameter and input gradients
and tape-node count. Training cases run ``train`` end to end: Task 1.2
attention-Euler and Task 2 attention-RK4 runs that stop early on patience, with
a validation set, a decaying learning rate, a checkpoint and a log, and a run
that diverges; each dumps its checkpoint bytes, losses, best epoch, early-stop
flag or error message, and its log rows without wall_ms.

Forecasts, attention weights, checkpoint files, training results, dataset
files and arrays, report files and prediction CSVs must be byte-identical.
Parameter gradients and adjoint outputs may differ by float64 round-off from a
reordered summation (a fused op adds a bias gradient's terms in another order,
and an LSTM layer on two batch axes adds each step's weight gradient one
leading index at a time): at most 1e-14 times the array's largest magnitude,
or 1e-14 absolute where that is below 1. Tape-node counts may fall but must
not rise.

    python scripts/compare_numerics.py --base path/to/old/src --head src
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DATA_TASKS = {"1.1": {"num_trajectories": 4, "length": 30}, "1.3": {"num_trajectories": 6}}
TASKS = {"1.2": {"num_trajectories": 6}, "2": {"num_trajectories": 4, "length": 80}}
LONG = {"num_trajectories": 4, "length": 400}  # Task 2: one trajectory per score tile
BATCH = 3
ROUNDOFF = 1e-14


def _model_case(hf, out, key, ds, cfg, fitted, tmp, batch=BATCH):
    """Forecast, MSE-loss gradients and tape nodes on the first ``batch``
    trajectories, or on the first alone, unbatched, when ``batch`` is None.
    At the default batch also the saved checkpoint's bytes, attention weights
    (of the first trajectory and of the batch) and the adjoint sweep."""
    Tensor = hf.autodiff.Tensor
    model = hf.models.build_model(cfg)
    if fitted:
        model.fit_normalizer(ds)
    rng = np.random.default_rng(7)
    if cfg.encoder != "lstm-baseline":
        # a fresh kernel's last layer is zero, which would leave the solver idle
        last = model.kernel_mlp.layers[-1]
        last.weight.data[:] = rng.normal(scale=0.3, size=last.weight.shape)
        last.bias.data[:] = rng.normal(scale=0.1, size=last.bias.shape)
    x, forces, f0 = (a[0] if batch is None else a[:batch] for a in ds.stack())
    pred = model.predict_forces(Tensor(x), Tensor(f0))
    loss = hf.training.mse_loss(pred, Tensor(forces))
    model.params.zero_grad()
    hf.autodiff.backward(loss)
    out[f"{key}/forecast"] = pred.data
    out[f"{key}/nodes"] = np.array(len(hf.autodiff._topo(loss)))
    for name, t in model.params.items():
        out[f"{key}/grad/{name}"] = np.zeros_like(t.data) if t.grad is None else t.grad
    if batch != BATCH:
        return
    ckpt = Path(tmp, "model.ckpt")
    hf.models.checkpoint_save(model, ckpt)
    out[f"{key}/checkpoint"] = np.frombuffer(ckpt.read_bytes(), np.uint8)
    if cfg.encoder == "attention":
        out[f"{key}/attention_weights"] = model.attn.attention_weights(
            model.embed(Tensor(x[0])))
        out[f"{key}/attention_weights/batch"] = model.attn.attention_weights(
            model.embed(Tensor(x)))
    if cfg.encoder == "lstm-baseline":
        return
    controls = Tensor(model.encode_conditions(Tensor(x)).data)
    f0n = Tensor(f0 / model.f_scale)
    grid = hf.odeint.TimeGrid(0.0, cfg.dt, x.shape[1])
    params = [(n, t) for n, t in model.params.items() if n.startswith("kernel.")]
    traj = hf.odeint.integrate(cfg.solver, f0n, model.kernel, grid, controls).data
    dl = 2.0 * (traj - forces / model.f_scale) / traj.size
    pgrads, a0 = hf.odeint.adjoint_backward(traj, f0n, model.kernel, grid, controls, dl,
                                            params, solver=cfg.solver)
    out[f"{key}/adjoint/dF0"] = a0
    for name, g in pgrads.items():
        out[f"{key}/adjoint/{name}"] = g


def _taped_cases(hf, out):
    """``integrate``'s taped per-step path: a plain closure over an MLPBlock,
    as acceptance criterion 4 builds it, and a variant that appends t as a
    column; Euler and RK4, on a batch of three and on a 1-d state. Each dumps
    the trajectory, the gradients of F0, the controls and the parameters of a
    squared-error loss, and its tape-node count."""
    Tensor, ad = hf.autodiff.Tensor, hf.autodiff
    grid = hf.odeint.TimeGrid(0.3, 0.05, 20)
    for tag, width in (("autonomous", 0), ("time-column", 1)):
        mlp = hf.layers.MLPBlock([2 + 3 + width, 16, 2], np.random.default_rng(1))

        def kernel(state, control, t, mlp=mlp, width=width):
            parts = [state, control]
            if width:
                parts.append(Tensor(np.full(state.shape[:-1] + (1,), t)))
            return mlp(ad.concat(parts, axis=-1))

        for solver in ("euler", "rk4"):
            for shape, lead in (("batch", (BATCH,)), ("1d", ())):
                key = f"taped/{tag}/{solver}/{shape}"
                rng = np.random.default_rng(2)
                f0 = Tensor(rng.normal(size=lead + (2,)), requires_grad=True)
                controls = Tensor(rng.normal(size=lead + (grid.steps, 3)), requires_grad=True)
                traj = hf.odeint.integrate(solver, f0, kernel, grid, controls)
                target = Tensor(rng.normal(size=traj.shape))
                loss = ad.reduce_sum(ad.square(ad.sub(traj, target)))
                params = dict(mlp.named_parameters())
                for t in (f0, controls, *params.values()):
                    t.zero_grad()
                ad.backward(loss)
                out[f"{key}/trajectory"] = traj.data
                out[f"{key}/nodes"] = np.array(len(hf.autodiff._topo(loss)))
                out[f"{key}/grad/F0"] = f0.grad
                out[f"{key}/grad/controls"] = controls.grad
                for name, t in params.items():
                    out[f"{key}/grad/{name}"] = t.grad


def _train_cases(hf, out, tmp):
    """``train`` end to end at small widths: Task 1.2 attention-Euler and Task 2
    attention-RK4, each with a validation set, lr_decay 0.9 and a patience that
    stops the run early, and a Task 1.2 run whose huge learning rate, with no
    clipping and no validation set, diverges in its second epoch. Each dumps the
    checkpoint bytes and the log rows without ``wall_ms``; a finished run also
    its losses, best epoch and early stop, a diverged one its error message."""
    tr = hf.training
    cases = (("1.2-euler", "1.2", "euler", {}, True,
              {"learning_rate": 3e-2, "batch_size": 4}),
             ("2-rk4", "2", "rk4", {"length": 80}, True,
              {"learning_rate": 0.1, "batch_size": 2}),
             ("1.2-euler-diverged", "1.2", "euler", {}, False,
              {"learning_rate": 1e200, "grad_clip_norm": 1e300}))
    for name, task, solver, kwargs, with_val, train_kwargs in cases:
        key = f"train/{name}"
        ds = hf.hydrodata.generate(task, seed=0, num_trajectories=8, **kwargs)
        model = hf.models.build_model(hf.models.ModelConfig(
            encoder="attention", solver=solver, n_in=ds.n, f_out=ds.f, dt=ds.dt,
            d_model=8, heads=2, latent=8, kernel_hidden=(8,)))
        model.fit_normalizer(ds)
        cfg = tr.TrainConfig(max_epochs=30, early_stop_patience=2, lr_decay=0.9, seed=0,
                             **train_kwargs)
        ckpt, log = Path(tmp, f"{name}.ckpt"), Path(tmp, f"{name}.jsonl")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                report = tr.train(model, ds.subset(list(range(6))),
                                  ds.subset([6, 7]) if with_val else None, cfg,
                                  checkpoint_path=ckpt, log_path=log)
        except tr.DivergenceError as e:
            out[f"{key}/error"] = np.frombuffer(str(e).encode(), np.uint8)
        else:
            out[f"{key}/train_losses"] = np.array(report.train_losses)
            out[f"{key}/val_losses"] = np.array(report.val_losses)
            out[f"{key}/best"] = np.array([report.best_epoch, report.best_val_loss,
                                           report.stopped_early])
        out[f"{key}/checkpoint"] = np.frombuffer(ckpt.read_bytes(), np.uint8)
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        out[f"{key}/log"] = np.frombuffer(json.dumps(
            [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]).encode(),
            np.uint8)


def _layer_cases(hf, out):
    Tensor, ad, layers = hf.autodiff.Tensor, hf.autodiff, hf.layers
    rng = np.random.default_rng(11)
    mlp = layers.MLPBlock([5, 7, 6, 3], np.random.default_rng(5))
    linear = layers.LinearLayer(5, 3, np.random.default_rng(4))
    lstm = layers.LSTMStack(3, 4, np.random.default_rng(6))
    attn = layers.MultiHeadSelfAttention(32, 4, np.random.default_rng(8))
    cases = (("linear-1d", linear, (5,)), ("linear-3d", linear, (2, 4, 5)),
             ("mlp-1d", mlp, (5,)), ("mlp-3d", mlp, (2, 4, 5)),
             ("lstm-2d", lstm, (6, 3)), ("lstm-4d", lstm, (2, 3, 6, 3)),
             ("attention-4d", attn, (2, 3, 200, 32)))
    for key, layer, shape in cases:
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        y = layer(x)
        loss = ad.reduce_sum(ad.mul(y, Tensor(rng.normal(size=y.shape))))
        params = dict(layer.named_parameters())
        for t in (x, *params.values()):
            t.zero_grad()
        ad.backward(loss)
        out[f"layers/{key}/output"] = y.data
        out[f"layers/{key}/nodes"] = np.array(len(hf.autodiff._topo(loss)))
        out[f"layers/{key}/grad/input"] = x.grad
        for name, t in params.items():
            out[f"layers/{key}/grad/{name}"] = t.grad


def dump(path) -> None:
    import hydroforecast.autodiff
    import hydroforecast.cli
    import hydroforecast.evalbench
    import hydroforecast.hydrodata
    import hydroforecast.models
    import hydroforecast.odeint
    import hydroforecast.training
    hf = hydroforecast
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for task, kwargs in {**DATA_TASKS, **TASKS}.items():
            ds = hf.hydrodata.generate(task, seed=0, **kwargs)
            datadir = Path(tmp, task)
            hf.hydrodata.save_dataset(ds, datadir)
            for f in sorted(datadir.iterdir()):
                out[f"data/{task}/file/{f.name}"] = np.frombuffer(f.read_bytes(), np.uint8)
            for j, rec in enumerate(hf.hydrodata.load_dataset(datadir).records):
                for field in ("times", "conditions", "forces", "f0", "condition_ids"):
                    out[f"data/{task}/{j}/{field}"] = getattr(rec, field)
            if task not in TASKS:
                continue
            base = {"n_in": ds.n, "f_out": ds.f, "dt": ds.dt}
            for encoder in ("attention", "mlp", "lstm-baseline"):
                for solver in ("euler", "rk4"):
                    cfg = hf.models.ModelConfig(encoder=encoder, solver=solver, **base)
                    for norm in ("fitted", "identity"):
                        _model_case(hf, out, f"{task}/{encoder}/{solver}/{norm}", ds, cfg,
                                    norm == "fitted", tmp)
                    for tag, batch in (("batch1", 1), ("unbatched", None)):
                        _model_case(hf, out, f"{task}/{encoder}/{solver}/fitted/{tag}", ds,
                                    cfg, True, tmp, batch)
        ds = hf.hydrodata.generate("2", seed=0, **LONG)
        for solver in ("euler", "rk4"):
            cfg = hf.models.ModelConfig(encoder="attention", solver=solver, n_in=ds.n,
                                        f_out=ds.f, dt=ds.dt)
            _model_case(hf, out, f"2-L400/attention/{solver}/fitted", ds, cfg, True, tmp)
        _taped_cases(hf, out)
        _train_cases(hf, out, tmp)
        _layer_cases(hf, out)
        ev = hf.evalbench
        table = ev.BenchmarkTable(
            rows=[ev.BenchmarkCell(model="MLP-ODE-euler", solver="euler", task="1.1",
                                   mae=0.5, rmse=0.7, mae_per_axis=(0.4, 0.6),
                                   rmse_per_axis=(0.6, 0.8), params=100,
                                   time_ms_mean=1.25, seed=0),
                  ev.BenchmarkCell(model="Attention-ODE-rk4", solver="rk4", task="2",
                                   failure="DivergenceError: boom, with comma")],
            config={"suite": "task2", "preset": "desk"})
        for timing in (True, False):
            for p in ev.emit_report(table, os.path.join(tmp, f"report{timing}"),
                                    include_timing=timing):
                out[f"report/{timing}/{p.name}"] = np.frombuffer(p.read_bytes(), np.uint8)
        pred_dir = Path(tmp, "pred")
        pred_dir.mkdir()
        ds = hf.hydrodata.generate("2", seed=0, num_trajectories=2, length=40)
        hf.cli._write_prediction_csvs(pred_dir, ds, np.random.default_rng(3).normal(
            size=(2, ds.length, ds.f)))
        for p in sorted(pred_dir.iterdir()):
            out[f"predict/{p.name}"] = np.frombuffer(p.read_bytes(), np.uint8)
    np.savez(path, **out)


def _run(src, path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", path],
                   env=env, check=True, cwd=tempfile.gettempdir())
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def compare(base: dict, head: dict) -> bool:
    ok = set(base) == set(head)
    if not ok:
        print(f"key sets differ: {sorted(set(base) ^ set(head))}")
    identical, near, roundoff, scaled, node_diffs = 0, 0, 0.0, 0.0, []
    for key in sorted(set(base) & set(head)):
        a, b = base[key], head[key]
        if key.endswith("/nodes"):
            if a != b:
                node_diffs.append(f"{key}: {int(a)} -> {int(b)}")
                ok &= int(b) < int(a)
            continue
        if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
            identical += 1
        elif ("/grad/" in key or "/adjoint/" in key) and a.shape == b.shape:
            near += 1
            diff = float(np.max(np.abs(a - b)))
            roundoff = max(roundoff, diff)
            scaled = max(scaled, diff / max(1.0, float(np.max(np.abs(a)))))
        else:
            print(f"differs: {key}")
            ok = False
    arrays = sum(1 for k in base if not k.endswith("/nodes"))
    print(f"{identical} of {arrays} arrays byte-identical")
    ok &= scaled <= ROUNDOFF
    print(f"{near} gradient and adjoint arrays differ: max |base - head| = {roundoff:.3g}, "
          f"scaled by max(1, max |base|) = {scaled:.3g} (bound {ROUNDOFF:g})")
    print(f"tape-node counts changed: {len(node_diffs)} (a rise fails)")
    for line in node_diffs:
        print(f"  {line}")
    print("OK" if ok else "FAILED")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="src directory of the reference tree")
    parser.add_argument("--head", help="src directory of the tree under test")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        dump(args.dump)
        return 0
    if not (args.base and args.head):
        parser.error("--base and --head are required")
    with tempfile.TemporaryDirectory() as tmp:
        base = _run(args.base, os.path.join(tmp, "base.npz"))
        head = _run(args.head, os.path.join(tmp, "head.npz"))
    return 0 if compare(base, head) else 1


if __name__ == "__main__":
    sys.exit(main())
