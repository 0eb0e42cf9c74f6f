import json
import struct

import numpy as np
import pytest

from hydroforecast import autodiff as ad
from hydroforecast.autodiff import ShapeError, Tensor
from hydroforecast.models import (
    RETIRED_CONFIG_KEYS,
    CheckpointError,
    ForecastModel,
    ModelConfig,
    build_model,
    checkpoint_load,
    checkpoint_save,
)
from hydroforecast.odeint import TimeGrid

TINY = ModelConfig(encoder="attention", n_in=4, f_out=2, d_model=8, heads=2,
                   latent=8, kernel_hidden=(8, 8), solver="euler", dt=0.02)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.encoder == "attention"
        assert cfg.solver == "euler"

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=10, heads=4)

    def test_unknown_encoder(self):
        with pytest.raises(ValueError):
            ModelConfig(encoder="transformer")

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            ModelConfig(solver="midpoint")

    def test_round_trip_dict(self):
        cfg = ModelConfig(encoder="mlp", kernel_hidden=(16, 32), dt=0.05)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestBuild:
    def test_deterministic(self):
        a = build_model(TINY)
        b = build_model(TINY)
        for name, t in a.params.items():
            assert np.array_equal(t.data, b.params[name].data)

    def test_seed_changes_weights(self):
        a = build_model(TINY)
        b = build_model(ModelConfig(**{**TINY.to_dict(), "seed": 1}))
        assert any(not np.array_equal(t.data, b.params[n].data)
                   for n, t in a.params.items()
                   if "bias" not in n and "kernel.layer" not in n)

    def test_param_count_closed_form(self):
        cfg = ModelConfig(encoder="mlp", n_in=4, f_out=2, d_model=16, latent=8,
                          kernel_hidden=(8,))
        model = build_model(cfg)
        enc = (4 * 16 + 16) + (16 * 16 + 16) + (16 * 8 + 8)
        kern = (10 * 8 + 8) + (8 * 2 + 2)
        assert model.num_params() == enc + kern

    def test_lstm_param_count_closed_form(self):
        cfg = ModelConfig(encoder="lstm-baseline", n_in=4, f_out=2,
                          lstm_hidden=8, lstm_layers=2)
        model = build_model(cfg)
        layer0 = (6 + 8) * 32 + 32
        layer1 = (8 + 8) * 32 + 32
        proj = 8 * 2 + 2
        assert model.num_params() == layer0 + layer1 + proj


class TestEncoder:
    def test_shapes(self, rng):
        model = build_model(TINY)
        assert model.encode_conditions(Tensor(rng.normal(size=(10, 4)))).shape == (10, 8)
        assert model.encode_conditions(Tensor(rng.normal(size=(3, 10, 4)))).shape == (3, 10, 8)

    def test_mlp_encoder_is_local(self, rng):
        model = build_model(ModelConfig(encoder="mlp", n_in=4, f_out=2,
                                        d_model=8, latent=8))
        x = rng.normal(size=(6, 4))
        base = model.encode_conditions(Tensor(x)).data
        x2 = x.copy()
        x2[3] += 1.0
        bumped = model.encode_conditions(Tensor(x2)).data
        changed = np.any(np.abs(base - bumped) > 0, axis=-1)
        assert list(changed) == [False, False, False, True, False, False]

    def test_attention_encoder_is_global(self, rng):
        model = build_model(TINY)
        x = rng.normal(size=(6, 4))
        base = model.encode_conditions(Tensor(x)).data
        x2 = x.copy()
        x2[3] += 1.0
        bumped = model.encode_conditions(Tensor(x2)).data
        changed = np.any(np.abs(base - bumped) > 1e-12, axis=-1)
        assert changed.all()

    def test_lstm_has_no_encoder(self):
        model = build_model(ModelConfig(encoder="lstm-baseline"))
        with pytest.raises(ValueError):
            model.encode_conditions(Tensor(np.zeros((5, 4))))

    def test_wrong_input_dim(self, rng):
        model = build_model(TINY)
        with pytest.raises(ShapeError):
            model.encode_conditions(Tensor(rng.normal(size=(5, 3))))


class TestPredict:
    def test_fresh_model_outputs_constant_f0(self, rng):
        # the zero-initialized kernel head makes a fresh ODE model integrate
        # a zero field, so every step equals F0 exactly
        model = build_model(TINY)
        f0 = np.array([1.25, -0.5])
        out = model.predict_forces(Tensor(rng.normal(size=(20, 4))), Tensor(f0))
        assert np.array_equal(out.data, np.tile(f0, (20, 1)))

    def test_fresh_model_rk4_constant(self, rng):
        cfg = ModelConfig(**{**TINY.to_dict(), "solver": "rk4"})
        model = build_model(cfg)
        f0 = np.array([2.0, 3.0])
        out = model.predict_forces(Tensor(rng.normal(size=(10, 4))), Tensor(f0))
        assert np.allclose(out.data, np.tile(f0, (10, 1)), atol=1e-14)

    def test_shapes_task_contracts(self, rng):
        m1 = build_model(TINY)
        out = m1.predict_forces(Tensor(rng.normal(size=(3, 100, 4))),
                                Tensor(rng.normal(size=(3, 2))))
        assert out.shape == (3, 100, 2)
        m2 = build_model(ModelConfig(encoder="mlp", n_in=35, f_out=6,
                                     d_model=8, latent=8, kernel_hidden=(8,)))
        out = m2.predict_forces(Tensor(rng.normal(size=(2, 40, 35))),
                                Tensor(rng.normal(size=(2, 6))))
        assert out.shape == (2, 40, 6)

    def test_grid_mismatch_rejected(self, rng):
        model = build_model(TINY)
        with pytest.raises(ShapeError):
            model.predict_forces(Tensor(rng.normal(size=(10, 4))),
                                 Tensor([0.0, 0.0]), grid=TimeGrid(0.0, 0.02, 5))

    def test_euler_prediction_is_causal(self, rng):
        model = build_model(ModelConfig(encoder="mlp", n_in=4, f_out=2,
                                        d_model=8, latent=8, kernel_hidden=(8,),
                                        seed=3))
        for t in model.params.tensors():  # non-trivial dynamics
            t.data = rng.uniform(-0.3, 0.3, t.shape)
        x = rng.normal(size=(12, 4))
        f0 = Tensor([0.1, 0.2])
        base = model.predict_forces(Tensor(x), f0).data
        x2 = x.copy()
        x2[8] += 1.0
        bumped = model.predict_forces(Tensor(x2), f0).data
        # forward Euler consumes control i when producing output i, so
        # outputs before index 8 are untouched by a change at row 8
        assert np.array_equal(base[:8], bumped[:8])
        assert np.max(np.abs(base[8:] - bumped[8:])) > 0

    def test_batched_matches_loop(self, rng):
        model = build_model(TINY)
        for t in model.params.tensors():
            t.data = rng.uniform(-0.2, 0.2, t.shape)
        x = rng.normal(size=(4, 15, 4))
        f0 = rng.normal(size=(4, 2))
        batched = model.predict_forces(Tensor(x), Tensor(f0)).data
        for b in range(4):
            single = model.predict_forces(Tensor(x[b]), Tensor(f0[b])).data
            assert np.allclose(batched[b], single, atol=1e-12)


class TestLSTMBaseline:
    def test_shapes(self, rng):
        model = build_model(ModelConfig(encoder="lstm-baseline", n_in=4, f_out=2,
                                        lstm_hidden=8))
        out = model.predict_forces(Tensor(rng.normal(size=(50, 4))),
                                   Tensor(rng.normal(size=(2,))))
        assert out.shape == (50, 2)

    def test_zero_weights_output_bias(self, rng):
        model = build_model(ModelConfig(encoder="lstm-baseline", n_in=4, f_out=2,
                                        lstm_hidden=8))
        for t in model.params.tensors():
            t.data[:] = 0.0
        model.params["proj.bias"].data = np.array([0.5, -0.25])
        out = model.predict_forces(Tensor(rng.normal(size=(6, 4))),
                                   Tensor([1.0, 1.0]))
        assert np.all(out.data == [0.5, -0.25])

    def test_gradients(self, rng):
        model = build_model(ModelConfig(encoder="lstm-baseline", n_in=3, f_out=2,
                                        lstm_hidden=4, lstm_layers=1))
        x = Tensor(rng.normal(size=(4, 3)))
        f0 = Tensor(rng.normal(size=(2,)))

        def f():
            return ad.reduce_mean(ad.square(model.predict_forces(x, f0)))

        assert ad.grad_check(f, model.params.tensors(), epsilon=1e-5) < 1e-4


class TestNormalizer:
    class _FakeDataset:
        def __init__(self, x, forces, f0):
            self._t = (x, forces, f0)

        def stack(self):
            return self._t

    def test_fit_sets_stats(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(5, 20, 4))
        forces = rng.normal(scale=7.0, size=(5, 20, 2))
        model = build_model(TINY)
        model.fit_normalizer(self._FakeDataset(x, forces, forces[:, 0]))
        assert np.allclose(model.x_mean, x.reshape(-1, 4).mean(axis=0))
        assert np.allclose(model.f_scale, forces.reshape(-1, 2).std(axis=0))

    def test_scaling_preserves_fresh_constant_property(self, rng):
        x = rng.normal(size=(5, 20, 4))
        forces = rng.normal(scale=4.0, size=(5, 20, 2))
        model = build_model(TINY)
        model.fit_normalizer(self._FakeDataset(x, forces, forces[:, 0]))
        f0 = np.array([2.5, -1.0])
        out = model.predict_forces(Tensor(rng.normal(size=(10, 4))), Tensor(f0))
        # scale divides out exactly on the constant trajectory
        assert np.allclose(out.data, np.tile(f0, (10, 1)), atol=1e-12)


class TestEndToEndGradients:
    def test_attention_ode_grad_check(self, rng):
        model = build_model(TINY)
        x = Tensor(rng.normal(size=(5, 4)))
        f0 = Tensor(rng.normal(size=(2,)))
        target = Tensor(rng.normal(size=(5, 2)))
        for t in model.params.tensors():
            t.data = rng.uniform(-0.3, 0.3, t.shape)

        def f():
            pred = model.predict_forces(x, f0)
            return ad.reduce_mean(ad.square(ad.sub(pred, target)))

        assert ad.grad_check(f, model.params.tensors(), epsilon=1e-5) < 1e-4


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        model = build_model(TINY)
        for t in model.params.tensors():
            t.data = rng.uniform(-0.5, 0.5, t.shape)
        model.x_mean = rng.normal(size=4)
        model.x_std = np.abs(rng.normal(size=4)) + 0.5
        model.f_scale = np.abs(rng.normal(size=2)) + 0.5
        path = tmp_path / "model.ckpt"
        checkpoint_save(model, path)
        loaded = checkpoint_load(path)
        assert loaded.config == model.config
        x = rng.normal(size=(12, 4))
        f0 = rng.normal(size=(2,))
        a = model.predict_forces(Tensor(x), Tensor(f0)).data
        b = loaded.predict_forces(Tensor(x), Tensor(f0)).data
        assert np.array_equal(a, b)

    def test_save_deterministic_bytes(self, tmp_path):
        model = build_model(TINY)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint_save(model, p1)
        checkpoint_save(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_detected(self, tmp_path):
        model = build_model(TINY)
        path = tmp_path / "model.ckpt"
        checkpoint_save(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_bitflip_detected(self, tmp_path):
        model = build_model(TINY)
        path = tmp_path / "model.ckpt"
        checkpoint_save(model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            checkpoint_load(path)

    @pytest.mark.parametrize("key,value", [
        ("x_mean", np.zeros(5)), ("x_std", np.ones(3)), ("f_scale", np.ones(4)),
        ("x_mean", np.zeros((2, 2))), ("x_std", np.array([1.0, np.nan, 1.0, 1.0])),
        ("x_mean", np.array([0.0, np.inf, 0.0, 0.0])), ("f_scale", np.array([1.0, np.nan])),
        ("x_std", np.array([1.0, 0.0, 1.0, 1.0])), ("f_scale", np.array([-1.0, 1.0])),
    ])
    def test_normalizer_that_does_not_fit_rejected(self, tmp_path, key, value):
        model = build_model(TINY)
        setattr(model, key, value)
        path = tmp_path / "model.ckpt"
        checkpoint_save(model, path)
        with pytest.raises(CheckpointError, match=key):
            checkpoint_load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        model = build_model(TINY)
        model.params["kernel.layer0.bias"].data[-1] = value
        path = tmp_path / "model.ckpt"
        checkpoint_save(model, path)
        with pytest.raises(CheckpointError, match="kernel.layer0.bias.*non-finite"):
            checkpoint_load(path)

    def test_normalizer_round_trip(self, tmp_path):
        model = build_model(TINY)
        model.x_mean, model.x_std = np.array([1.0, -2.0, 0.0, 3.0]), np.full(4, 0.5)
        model.f_scale = np.array([2.0, 1e-8])
        path = tmp_path / "model.ckpt"
        checkpoint_save(model, path)
        loaded = checkpoint_load(path)
        for key in ("x_mean", "x_std", "f_scale"):
            assert np.array_equal(getattr(loaded, key), getattr(model, key))

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(CheckpointError):
            checkpoint_load(path)

    def test_header_keeps_retired_switches_false(self, tmp_path):
        # version 1 headers always carry these keys, and readers of the
        # header rely on them
        path = tmp_path / "model.ckpt"
        checkpoint_save(build_model(TINY), path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[12:20])
        config = json.loads(blob[20:20 + hlen])["config"]
        assert {k: config[k] for k in RETIRED_CONFIG_KEYS} == dict.fromkeys(
            RETIRED_CONFIG_KEYS, False)
        assert checkpoint_load(path).config == TINY

    @pytest.mark.parametrize("key", RETIRED_CONFIG_KEYS)
    def test_retired_switch_set_rejected(self, tmp_path, reseal_checkpoint, key):
        path = tmp_path / "model.ckpt"
        checkpoint_save(build_model(TINY), path)
        reseal_checkpoint(path, lambda cfg: cfg.update({key: True}))
        with pytest.raises(CheckpointError, match=key):
            checkpoint_load(path)

    @pytest.mark.parametrize("edit,edit_first", [
        ({"heads": 0}, None),
        ({"heads": -4}, None),
        ({"heads": 0.5}, None),
        ({"dt": float("nan")}, None),
        ({"dt": float("inf")}, None),
        ({"dt": 10 ** 400}, None),
        ({"encoder": "lstm-baseline", "lstm_hidden": 0}, None),
        ({"lstm_layers": 0}, None),
        (None, lambda name, shape: (b"\xff" + name[1:], shape)),
        # 2**66 elements: a product in int64 would wrap to 0
        (None, lambda name, shape: (name, (2 ** 33, 2 ** 33))),
    ], ids=["heads-0", "heads-negative", "heads-fraction", "dt-nan", "dt-inf", "dt-huge-int",
            "lstm-hidden-0", "lstm-layers-0", "name-not-utf8", "shape-overflow"])
    def test_malformed_header_rejected(self, tmp_path, reseal_checkpoint, edit, edit_first):
        path = tmp_path / "model.ckpt"
        checkpoint_save(build_model(TINY), path)
        reseal_checkpoint(path, edit and (lambda cfg: cfg.update(edit)), edit_first)
        with pytest.raises(CheckpointError):
            checkpoint_load(path)
