"""The three workloads: set-up, timed rounds, held-out error, checks, probes.

Each workload is a closed loop with one caller. A run sets up several times
(``setup_s`` is their median) and warms up once untimed. After each set-up it
repeats whole rounds of the same operations, at least one, until a third of
the run's seconds of rounds are done. Throughput is the trajectories of all
rounds over the time spent in them. Checks and probes run afterwards and are
not timed.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks as ck

DESK = {"d_model": 64, "heads": 4, "latent": 64, "kernel_hidden": (64, 64, 64),
        "lstm_hidden": 64}
BATCH = 16
HELDOUT_SEED_OFFSET = 1_000_000  # held-out data never shares a seed with training data
SETUP_REPEATS = 3
# central-difference step: round-off in the loss (about eps * loss / h) stays
# far below the 1e-5 tolerance for entries at 1% of the largest gradient,
# while truncation (h^2) stays near 1e-8; at 1e-6 the round-off reached 1.1e-5
# on a Task 2 loss of 197 with a gradient entry of 0.0115
FD_STEP = 1e-4
FORECAST_MODELS = (("attention-ode-rk4", "attention", "rk4"),
                   ("mlp-ode-euler", "mlp", "euler"),
                   ("lstm", "lstm-baseline", "euler"))


def _mib(nbytes: float) -> float:
    return nbytes / 2.0 ** 20


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def rmse_pct(pred: np.ndarray, truth: np.ndarray) -> float:
    """Held-out RMSE per force axis as a share of that axis' std, averaged, in %."""
    err = (pred - truth).reshape(-1, truth.shape[-1])
    flat = truth.reshape(-1, truth.shape[-1])
    return float(np.mean(np.sqrt(np.mean(err ** 2, axis=0)) / flat.std(axis=0)) * 100.0)


class Workload:
    """Shared flow; subclasses give the data shape, the model(s) and a round."""

    task = ""
    trajectories = 0
    ratios = (0.8, 0.1, 0.1)
    heldout = 16

    def __init__(self, hf, seed: int, workdir: Path):
        self.hf = hf
        self.seed = seed
        self.workdir = workdir

    # ---- set-up (timed as setup_s) --------------------------------------

    def setup(self, rep: int) -> None:
        hd = self.hf.hydrodata
        datadir = self.workdir / f"setup{rep}" / "data"
        self.generated = hd.generate(self.task, seed=self.seed,
                                     num_trajectories=self.trajectories)
        hd.save_dataset(self.generated, datadir)
        self.dataset = hd.load_dataset(datadir)
        self.train_set, self.val_set, self.test_set, _ = hd.split_dataset(
            self.dataset, self.ratios, seed=self.seed)
        self.build(self.workdir / f"setup{rep}")

    def model_config(self, encoder: str, solver: str):
        ds = self.dataset
        return self.hf.models.ModelConfig(encoder=encoder, n_in=ds.n, f_out=ds.f,
                                          solver=solver, dt=ds.dt, **DESK)

    def build(self, setupdir: Path) -> None:
        raise NotImplementedError

    # ---- timed phase ----------------------------------------------------

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self, k: int) -> tuple[int, float]:
        """Run round ``k``; return (trajectories, seconds)."""
        raise NotImplementedError

    def timed(self, ledger: ck.Ledger, seconds: float) -> list[tuple[int, float]]:
        """Start whole rounds, at least one, until ``seconds`` have passed;
        return the (trajectories, seconds) of every round that completed.
        At least one, because the checks read what the last set-up's rounds
        left behind (a trained model, its checkpoint), and earlier rounds can
        overrun a share of the run."""
        rounds = []
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            out = ledger.op(self.round, k)
            k += 1
            if out is not None:
                rounds.append(out)
        return rounds

    # ---- after the timed phase ------------------------------------------

    def heldout_rmse_pct(self) -> float:
        """Mean over the workload's models, on freshly generated trajectories:
        more of them than a split leaves over, and never seen in training.
        Also keeps the RMSE of the constant-F0 forecast on the same set, the
        error an ODE model has before any training."""
        heldout = self.hf.hydrodata.generate(self.task, seed=self.seed + HELDOUT_SEED_OFFSET,
                                             num_trajectories=self.heldout)
        self.heldout_data = x, forces, f0 = heldout.stack()
        self.f0_rmse_pct = rmse_pct(np.broadcast_to(f0[:, None, :], forces.shape), forces)
        Tensor = self.hf.autodiff.Tensor
        return statistics.mean(
            rmse_pct(m.predict_forces(Tensor(x), Tensor(f0)).data, forces)
            for m in self.forecasters())

    def run_checks(self, ledger: ck.Ledger) -> None:
        lost = self.dataset.records[0]
        flipped = dataclasses.replace(lost, forces=ck.flip_low_bit(lost.forces))
        broken = dataclasses.replace(self.dataset, records=[flipped] + self.dataset.records[1:])
        ledger.check("load_dataset(save_dataset(ds)) is bit-exact",
                     lambda: ck.dataset_diff(self.generated, self.dataset), 0.0)
        ledger.check("load_dataset(save_dataset(ds)) is bit-exact",
                     lambda: ck.dataset_diff(self.generated, broken), 0.0, negative=True)

    def probes(self) -> dict[str, tuple[float, str]]:
        return {"autodiff.backward_peak_mib": (0.0, "MiB"),
                "odeint.adjoint_backward_ms": (0.0, "ms"),
                "odeint.adjoint_peak_mib": (0.0, "MiB")}


class TrainWorkload(Workload):
    encoder = "attention"
    solver = ""
    epochs = 0
    fd_batch = BATCH

    def build(self, setupdir: Path) -> None:
        self.model = self.hf.models.build_model(self.model_config(self.encoder, self.solver))
        self.model.fit_normalizer(self.train_set)
        self.init = {n: t.data.copy() for n, t in self.model.params.items()}
        self.checkpoint = setupdir / "model.ckpt"
        self.cfg = self.hf.training.TrainConfig(batch_size=BATCH, max_epochs=self.epochs,
                                                early_stop_patience=self.epochs + 1)

    def _reset(self) -> None:
        for name, tensor in self.model.params.items():
            tensor.data = self.init[name].copy()

    def warm_up(self) -> None:
        one_step = dataclasses.replace(self.cfg, max_epochs=1)
        batch = self.train_set.subset(list(range(BATCH)))
        self.hf.training.train(self.model, batch, None, one_step)
        self._reset()

    def round(self, k: int) -> tuple[int, float]:
        self._reset()
        start = time.perf_counter()
        self.report = self.hf.training.train(self.model, self.train_set, self.val_set,
                                             self.cfg, checkpoint_path=self.checkpoint)
        return self.train_set.num_trajectories * self.epochs, time.perf_counter() - start

    def forecasters(self) -> list:
        return [self.model]

    def _batch(self, size: int):
        x, forces, f0 = self.train_set.stack()
        return x[:size], forces[:size], f0[:size]

    def _loss(self, x, forces, f0):
        Tensor, training = self.hf.autodiff.Tensor, self.hf.training
        return training.mse_loss(self.model.predict_forces(Tensor(x), Tensor(f0)),
                                 Tensor(forces))

    def run_checks(self, ledger: ck.Ledger) -> None:
        super().run_checks(ledger)
        model = self.model
        loaded = ledger.op(self.hf.models.checkpoint_load, self.checkpoint)
        if loaded is not None:
            ledger.check("checkpoint_load(checkpoint_save(m)) is bit-exact",
                         lambda: ck.params_diff(model, loaded), 0.0)
            ledger.check("checkpoint_load(checkpoint_save(m)) is bit-exact",
                         lambda: ck.params_diff(model, ck.with_flipped_bit(loaded)), 0.0,
                         negative=True)

        def loss_drop(losses):
            if not all(math.isfinite(v) for v in losses):
                return math.inf
            return (losses[-1] - losses[0]) / losses[0]
        losses = self.report.train_losses
        ledger.check("training loss is finite and ends below its start",
                     lambda: loss_drop(losses), -1e-6)
        ledger.check("training loss is finite and ends below its start",
                     lambda: loss_drop(losses[::-1]), -1e-6, negative=True)

        pairs = ledger.op(self._gradient_pairs)
        if pairs is None:
            return
        ledger.check("central differences match autodiff.backward",
                     lambda: max(abs(a - d) / abs(d) for a, d in pairs), 1e-5)
        ledger.check("central differences match autodiff.backward",
                     lambda: max(abs(a * 1.001 - d) / abs(d) for a, d in pairs), 1e-5,
                     negative=True)

    def _gradient_pairs(self) -> list[tuple[float, float]]:
        """(autodiff.backward, central difference) for seeded entries of the
        encoder's first, the kernel's first and the kernel's last weight, on
        one training batch."""
        model = self.model
        x, forces, f0 = self._batch(self.fd_batch)
        model.params.zero_grad()
        self.hf.autodiff.backward(self._loss(x, forces, f0))
        grads = {n: t.grad.copy() for n, t in model.params.items()}
        model.params.zero_grad()
        names = ("embed.weight", "kernel.layer0.weight",
                 f"kernel.layer{len(DESK['kernel_hidden'])}.weight")
        entries = ck.pick_entries(grads, names, np.random.default_rng([self.seed, 3]))
        return [(grads[n][np.unravel_index(i, grads[n].shape)],
                 ck.central_difference(lambda: self._loss(x, forces, f0).item(),
                                       model.params[n], i, FD_STEP))
                for n, i in entries]

    def probes(self) -> dict[str, tuple[float, str]]:
        out = super().probes()
        loss = self._loss(*self._batch(BATCH))
        tracemalloc.start()
        try:
            self.hf.autodiff.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.model.params.zero_grad()
        out["autodiff.backward_peak_mib"] = (_mib(peak), "MiB")
        return out


class Task1Train(TrainWorkload):
    """Task 1.2 switching data, Attention-ODE with Euler, fixed epochs."""

    task = "1.2"
    trajectories = 192  # 154 train (10 batches), 19 validation, 19 test
    heldout = 192
    solver = "euler"
    epochs = 5

    def _heldout_vs_f0(self, weights: dict) -> float:
        """Held-out RMSE of the model with ``weights``, over that of the
        constant-F0 forecast."""
        params = self.model.params
        trained = {n: t.data for n, t in params.items()}
        Tensor = self.hf.autodiff.Tensor
        x, forces, f0 = self.heldout_data
        try:
            for name, tensor in params.items():
                tensor.data = weights[name]
            pred = self.model.predict_forces(Tensor(x), Tensor(f0)).data
        finally:
            for name, tensor in params.items():
                tensor.data = trained[name]
        return rmse_pct(pred, forces) / self.f0_rmse_pct

    def run_checks(self, ledger: ck.Ledger) -> None:
        super().run_checks(ledger)
        # the untrained model forecasts exactly F0 (its last kernel layer is
        # zero), so it is the negative control. Task 2's two Adam steps move
        # the error by about 1%, too little for such a check there.
        trained = {n: t.data for n, t in self.model.params.items()}
        ledger.check("trained model beats the constant-F0 forecast on held-out data",
                     lambda: self._heldout_vs_f0(trained), 0.9)
        ledger.check("trained model beats the constant-F0 forecast on held-out data",
                     lambda: self._heldout_vs_f0(self.init), 0.9, negative=True)
        ds = self.dataset
        rec = ds.records[0]
        nudged = rec.forces.copy()
        nudged[5] += 1e-4 * np.max(np.abs(nudged))  # inside the first 10-step segment
        broken = dataclasses.replace(ds, records=[dataclasses.replace(rec, forces=nudged)]
                                     + ds.records[1:])
        ledger.check("F[k+1] - exp(-dt/tau) F[k] is constant within each segment",
                     lambda: ck.sensor_lag_spread(ds), 1e-8)
        ledger.check("F[k+1] - exp(-dt/tau) F[k] is constant within each segment",
                     lambda: ck.sensor_lag_spread(broken), 1e-8, negative=True)


class Task2Train(TrainWorkload):
    """Task 2 data, Attention-ODE with RK4, a fixed number of steps."""

    task = "2"
    trajectories = 20  # 16 train (one batch), 2 validation, 2 test
    solver = "rk4"
    epochs = 2  # one batch per epoch, so two Adam steps and two validations
    fd_batch = 4
    adjoint_batch = 2

    def _adjoint_case(self, size: int):
        """Unrolled trajectory, dL/dtrajectory and the kernel parameters for
        one batch, with the encoder's controls held fixed."""
        model, odeint, Tensor = self.model, self.hf.odeint, self.hf.autodiff.Tensor
        x, forces, f0 = self._batch(size)
        controls = Tensor(model.encode_conditions(Tensor(x)).data)
        f0n = Tensor(f0 / model.f_scale)
        grid = odeint.TimeGrid(0.0, model.config.dt, x.shape[1])
        params = [(n, t) for n, t in model.params.items() if n.startswith("kernel.")]
        traj = odeint.integrate(model.config.solver, f0n, model.kernel, grid, controls)
        resid = traj.data * model.f_scale - forces
        dl = 2.0 * resid * model.f_scale / resid.size
        return traj, f0n, grid, controls, dl, params

    def _adjoint(self, case):
        traj, f0n, grid, controls, dl, params = case
        return self.hf.odeint.adjoint_backward(traj.data, f0n, self.model.kernel, grid,
                                               controls, dl, params,
                                               solver=self.model.config.solver)

    def _kernel_gradients(self) -> tuple[dict, dict]:
        """Kernel-parameter gradients from adjoint_backward and from
        autodiff.backward through the unrolled solver, by name."""
        model = self.model
        case = self._adjoint_case(self.adjoint_batch)
        traj, dl, params = case[0], case[4], case[5]
        model.params.zero_grad()
        self.hf.autodiff.backward(traj, seed=dl)
        unrolled = {n: t.grad.copy() for n, t in params}
        model.params.zero_grad()
        return self._adjoint(case)[0], unrolled

    def run_checks(self, ledger: ck.Ledger) -> None:
        super().run_checks(ledger)
        grads = ledger.op(self._kernel_gradients)
        if grads is None:
            return
        adjoint, unrolled = grads
        bumped = {n: g.copy() for n, g in adjoint.items()}
        first = next(iter(bumped))
        bumped[first].reshape(-1)[0] += 1e-6 * np.max(np.abs(unrolled[first]))

        def worst(g):
            return max(ck.rel_err(g[n], unrolled[n]) for n in unrolled)
        ledger.check("adjoint_backward kernel gradients match the unrolled solver",
                     lambda: worst(adjoint), 1e-9)
        ledger.check("adjoint_backward kernel gradients match the unrolled solver",
                     lambda: worst(bumped), 1e-9, negative=True)

    def probes(self) -> dict[str, tuple[float, str]]:
        out = super().probes()
        case = self._adjoint_case(BATCH)
        start = time.perf_counter()
        self._adjoint(case)
        out["odeint.adjoint_backward_ms"] = ((time.perf_counter() - start) * 1e3, "ms")
        tracemalloc.start()
        try:
            self._adjoint(case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out["odeint.adjoint_peak_mib"] = (_mib(peak), "MiB")
        return out


class Task2Forecast(Workload):
    """Three seeded Task 2 models forecasting held-out trajectories at batch 1."""

    task = "2"
    trajectories = 12
    ratios = (0.5, 0.25, 0.25)  # 6 fit the normalizer, 6 held out

    def build(self, setupdir: Path) -> None:
        models = self.hf.models
        self.models, self.paths, self.saved = [], [], []
        for i, (tag, encoder, solver) in enumerate(FORECAST_MODELS):
            model = models.build_model(self.model_config(encoder, solver))
            model.fit_normalizer(self.train_set)
            # a fresh ODE model has a zeroed last kernel layer and forecasts
            # exactly F0; fixed-seed noise gives every model non-zero weights
            rng = np.random.default_rng([1000, i])
            for tensor in model.params.tensors():
                tensor.data = tensor.data + rng.normal(0.0, 0.02, tensor.shape)
            path = setupdir / f"{tag}.ckpt"
            models.checkpoint_save(model, path)
            self.saved.append(model)
            self.paths.append(path)
            self.models.append(models.checkpoint_load(path))
        held = self.val_set.records + self.test_set.records
        self.x = np.stack([r.conditions for r in held])
        self.forces = np.stack([r.forces for r in held])
        self.f0 = np.stack([r.f0 for r in held])

    def _forecast(self, model, j: int) -> np.ndarray:
        Tensor = self.hf.autodiff.Tensor
        out = model.predict_forces(Tensor(self.x[j:j + 1]), Tensor(self.f0[j:j + 1])).data
        if out.shape != self.forces[j:j + 1].shape or not np.all(np.isfinite(out)):
            raise ValueError(f"forecast has shape {out.shape} or non-finite values")
        return out[0]

    def warm_up(self) -> None:
        for model in self.models:
            self._forecast(model, 0)

    def round(self, k: int) -> tuple[int, float]:
        j = k % len(self.x)
        start = time.perf_counter()
        for model in self.models:
            self._forecast(model, j)
        return len(self.models), time.perf_counter() - start

    def forecasters(self) -> list:
        return self.models

    def run_checks(self, ledger: ck.Ledger) -> None:
        super().run_checks(ledger)
        x, f0 = self.x[0], self.f0[0]
        for (tag, _, _), saved, loaded, path in zip(FORECAST_MODELS, self.saved,
                                                    self.models, self.paths):
            ledger.check(f"{tag}: checkpoint_load(checkpoint_save(m)) is bit-exact",
                         lambda: ck.params_diff(saved, loaded), 0.0)
            ledger.check(f"{tag}: checkpoint_load(checkpoint_save(m)) is bit-exact",
                         lambda: ck.params_diff(saved, ck.with_flipped_bit(loaded)), 0.0,
                         negative=True)
            pred = ledger.op(self._forecast, loaded, 0)
            stored = ledger.op(ck.read_checkpoint, path)
            if pred is None or stored is None:
                continue
            header, weights = stored
            ledger.check(f"{tag}: plain-numpy forecast matches predict_forces",
                         lambda: ck.rel_err(ck.reference_forecast(header, weights, x, f0),
                                            pred), 1e-9)
            ledger.check(f"{tag}: plain-numpy forecast matches predict_forces",
                         lambda: ck.rel_err(ck.reference_forecast(
                             header, ck.nudge_first(weights), x, f0), pred), 1e-9,
                         negative=True)


WORKLOADS = {"task1-train": Task1Train, "task2-train": Task2Train,
             "task2-forecast": Task2Forecast}
