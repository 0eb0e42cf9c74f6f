import json
import math
import weakref

import numpy as np
import pytest

from hydroforecast import autodiff as ad
from hydroforecast import training
from hydroforecast.autodiff import ShapeError, Tensor
from hydroforecast.hydrodata import gen_task1
from hydroforecast.models import ModelConfig, build_model, checkpoint_load
from hydroforecast.training import (
    AdamState,
    DivergenceError,
    TrainConfig,
    adam_step,
    clip_gradients,
    evaluate_loss,
    mse_loss,
    train,
)

TINY = ModelConfig(encoder="mlp", n_in=4, f_out=2, d_model=8, latent=8,
                   kernel_hidden=(8,), solver="euler", dt=0.02)


class TestMseLoss:
    def test_zero_on_identical(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        assert mse_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_hand_value(self):
        pred = Tensor([[1.0, 2.0], [3.0, 4.0]])
        target = Tensor([[0.0, 0.0], [0.0, 0.0]])
        assert mse_loss(pred, target).item() == pytest.approx(7.5)

    def test_quadratic_homogeneity(self, rng):
        p = Tensor(rng.normal(size=(5,)))
        t = Tensor(np.zeros(5))
        base = mse_loss(p, t).item()
        scaled = mse_loss(Tensor(3.0 * p.data), t).item()
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestClip:
    def test_under_threshold_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        out = clip_gradients(grads, 1.0)
        assert np.array_equal(out["a"], grads["a"])

    def test_scales_to_max_norm(self):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0, 0.0])}
        out = clip_gradients(grads, 0.5)
        total = math.sqrt(sum(float(np.sum(g * g)) for g in out.values()))
        assert total == pytest.approx(0.5)

    def test_preserves_direction(self, rng):
        g = rng.normal(size=12)
        out = clip_gradients({"a": g}, 0.1)["a"]
        cos = np.dot(out, g) / (np.linalg.norm(out) * np.linalg.norm(g))
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_zero_gradients(self):
        out = clip_gradients({"a": np.zeros(3)}, 1.0)
        assert np.all(out["a"] == 0.0)


class TestAdam:
    def test_first_step_magnitude(self):
        # bias correction makes the first update exactly lr * sign(g)
        model = build_model(TINY)
        cfg = TrainConfig(learning_rate=0.1, grad_clip_norm=1e9)
        name = "kernel.layer0.weight"
        before = model.params[name].data.copy()
        grads = {n: np.zeros_like(t.data) for n, t in model.params.items()}
        grads[name][0, 0] = 0.5
        adam_step(model, grads, AdamState(), cfg)
        delta = model.params[name].data - before
        assert delta[0, 0] == pytest.approx(-0.1, rel=1e-6)
        assert np.all(delta.ravel()[1:] == 0.0)

    def test_zero_gradient_no_motion(self):
        model = build_model(TINY)
        before = {n: t.data.copy() for n, t in model.params.items()}
        adam_step(model, {n: np.zeros_like(t.data) for n, t in model.params.items()},
                  AdamState(), TrainConfig())
        assert all(np.array_equal(model.params[n].data, before[n]) for n in before)

    def test_nan_gradient_raises(self):
        model = build_model(TINY)
        grads = {n: np.zeros_like(t.data) for n, t in model.params.items()}
        bad = "kernel.layer0.bias"
        grads[bad][0] = np.nan
        with pytest.raises(DivergenceError, match=bad):
            adam_step(model, grads, AdamState(), TrainConfig())

    def test_minimizes_quadratic(self):
        model = build_model(TINY)
        name = "kernel.layer0.weight"
        model.params[name].data[:] = 5.0
        state = AdamState()
        cfg = TrainConfig(learning_rate=0.5, grad_clip_norm=1e9)
        for _ in range(100):
            grads = {name: 2.0 * model.params[name].data}
            adam_step(model, grads, state, cfg)
        assert np.max(np.abs(model.params[name].data)) < 0.5

    def test_partial_gradients(self):
        model = build_model(TINY)
        before = {n: t.data.copy() for n, t in model.params.items()}
        name = "kernel.layer0.weight"
        state = AdamState()
        adam_step(model, {name: np.ones_like(before[name])}, state, TrainConfig())
        assert set(state.m) == set(state.v) == {name}
        assert not np.array_equal(model.params[name].data, before[name])
        assert all(np.array_equal(model.params[n].data, before[n]) for n in before if n != name)

    def test_lr_decay_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=1.5)


class TestConfigValidation:
    def test_negative_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)

    @pytest.mark.parametrize("name", ["learning_rate", "grad_clip_norm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_rate_not_finite_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["batch_size", "max_epochs", "early_stop_patience"])
    @pytest.mark.parametrize("value", [0, -1, math.nan])
    def test_count_below_one(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})


@pytest.fixture(scope="module")
def small_data():
    ds = gen_task1("static", num_conditions=8, length=30, seed=0)
    return ds


class TestTrainLoop:
    def test_empty_training_set_rejected(self, small_data):
        model = build_model(TINY)
        with pytest.raises(ValueError):
            train(model, small_data.subset([]), None, TrainConfig(max_epochs=1))

    def test_dim_mismatch_rejected(self, small_data):
        model = build_model(ModelConfig(encoder="mlp", n_in=7, f_out=2,
                                        d_model=8, latent=8, kernel_hidden=(8,)))
        with pytest.raises(ShapeError):
            train(model, small_data, None, TrainConfig(max_epochs=1))

    def test_loss_decreases(self, small_data):
        model = build_model(TINY)
        model.fit_normalizer(small_data)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=40,
                          grad_clip_norm=1e9, early_stop_patience=100, seed=0)
        report = train(model, small_data, None, cfg)
        assert report.train_losses[-1] < 0.5 * report.train_losses[0]

    def test_deterministic_and_checkpoint(self, small_data, tmp_path):
        outs = []
        for tag in ("a", "b"):
            model = build_model(TINY)
            model.fit_normalizer(small_data)
            cfg = TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=3, seed=7)
            path = tmp_path / f"{tag}.ckpt"
            train(model, small_data, None, cfg, checkpoint_path=path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        loaded = checkpoint_load(tmp_path / "a.ckpt")
        assert loaded.config == TINY

    def test_log_file_format(self, small_data, tmp_path):
        model = build_model(TINY)
        log = tmp_path / "train_log.jsonl"
        cfg = TrainConfig(max_epochs=3, lr_decay=0.5, seed=0)
        train(model, small_data, small_data, cfg, log_path=log)
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(rows) == 3
        for i, row in enumerate(rows):
            assert set(row) == {"epoch", "train_loss", "val_loss", "wall_ms", "lr"}
            assert row["epoch"] == i
            assert row["lr"] == pytest.approx(cfg.learning_rate * 0.5 ** i)
        assert rows[0]["wall_ms"] <= rows[-1]["wall_ms"]

    def test_best_val_is_min(self, small_data):
        model = build_model(TINY)
        model.fit_normalizer(small_data)
        cfg = TrainConfig(learning_rate=3e-3, max_epochs=8, seed=1)
        report = train(model, small_data.subset(list(range(6))),
                       small_data.subset([6, 7]), cfg)
        assert report.best_val_loss == min(report.val_losses)
        assert report.val_losses[report.best_epoch] == report.best_val_loss

    def test_restores_best_params(self, small_data):
        model = build_model(TINY)
        model.fit_normalizer(small_data)
        cfg = TrainConfig(learning_rate=1e-2, max_epochs=10, grad_clip_norm=1e9, seed=2)
        val = small_data.subset([6, 7])
        report = train(model, small_data.subset(list(range(6))), val, cfg)
        assert evaluate_loss(model, val) == pytest.approx(report.best_val_loss, rel=1e-9)

    def test_patience_stop_restores_best(self, small_data, tmp_path):
        model = build_model(TINY)
        model.fit_normalizer(small_data)
        # a high learning rate overshoots: the validation loss falls, then rises
        cfg = TrainConfig(learning_rate=0.1, batch_size=2, max_epochs=60, grad_clip_norm=1e9,
                          early_stop_patience=3, seed=0)
        val = small_data.subset([0, 1])
        path = tmp_path / "best.ckpt"
        report = train(model, small_data.subset(list(range(2, 8))), val, cfg,
                       checkpoint_path=path)
        assert report.stopped_early
        assert 0 < report.best_epoch
        assert len(report.train_losses) == report.best_epoch + cfg.early_stop_patience + 1
        assert report.val_losses[-1] > report.best_val_loss
        assert evaluate_loss(model, val, cfg.batch_size) == report.best_val_loss
        loaded = checkpoint_load(path)
        assert all(np.array_equal(loaded.params[n].data, t.data)
                   for n, t in model.params.items())

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_keeps_best(self, small_data, tmp_path):
        model = build_model(TINY)
        model.fit_normalizer(small_data)
        # a huge learning rate with no clipping overflows the loss
        cfg = TrainConfig(learning_rate=1e200, max_epochs=50, grad_clip_norm=1e300,
                          seed=0)
        path = tmp_path / "diverged.ckpt"
        with pytest.raises(DivergenceError, match="best checkpoint retained"):
            train(model, small_data, None, cfg, checkpoint_path=path)
        loaded = checkpoint_load(path)
        for t in loaded.params.tensors():
            assert np.all(np.isfinite(t.data))


class TestEvaluateLoss:
    def test_matches_direct_mse(self, small_data):
        model = build_model(TINY)
        model.fit_normalizer(small_data)
        x, forces, f0 = small_data.stack()
        pred = model.predict_forces(Tensor(x), Tensor(f0))
        direct = mse_loss(pred, Tensor(forces)).item()
        assert evaluate_loss(model, small_data, batch_size=3) == pytest.approx(direct, rel=1e-12)


class TestGraphRelease:
    """Each batch's graph is dropped before the next batch's forward starts, so
    peak memory holds one graph, not two."""

    @staticmethod
    def _alive_at_each_forward(monkeypatch):
        """Wrap ``training._batch_loss``; the returned list gets, at every
        call, how many earlier losses' arrays are still alive."""
        batch_loss, refs, alive = training._batch_loss, [], []

        def counted(*args):
            alive.append(sum(ref() is not None for ref in refs))
            loss = batch_loss(*args)
            refs.append(weakref.ref(loss.data))
            return loss

        monkeypatch.setattr(training, "_batch_loss", counted)
        return alive

    @pytest.fixture
    def model_and_data(self):
        ds = gen_task1("switching", num_conditions=8, length=20, seed=0)
        model = build_model(ModelConfig(n_in=ds.n, f_out=ds.f, d_model=8, heads=2, latent=4,
                                        kernel_hidden=(8,), dt=ds.dt))
        return model, ds

    def test_train_step(self, model_and_data, monkeypatch):
        model, ds = model_and_data
        alive = self._alive_at_each_forward(monkeypatch)
        train(model, ds, None, TrainConfig(batch_size=2, max_epochs=2, seed=0))
        assert alive == [0] * 8

    def test_evaluate_loss(self, model_and_data, monkeypatch):
        model, ds = model_and_data
        alive = self._alive_at_each_forward(monkeypatch)
        evaluate_loss(model, ds, batch_size=2)
        assert alive == [0] * 4
