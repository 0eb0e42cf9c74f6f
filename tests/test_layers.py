import math

import numpy as np
import pytest

from hydroforecast import autodiff as ad
from hydroforecast.autodiff import ShapeError, Tensor
from hydroforecast.layers import (
    LinearLayer,
    LSTMStack,
    MLPBlock,
    MultiHeadSelfAttention,
    ParamRegistry,
    collect_params,
)


class TestLinear:
    def test_init_bounds_and_zero_bias(self, rng):
        layer = LinearLayer(4, 8, rng)
        bound = math.sqrt(6.0 / 12.0)
        assert np.all(np.abs(layer.weight.data) < bound)
        assert np.all(layer.bias.data == 0.0)

    def test_same_seed_same_weights(self):
        a = LinearLayer(5, 3, np.random.default_rng(9))
        b = LinearLayer(5, 3, np.random.default_rng(9))
        assert np.array_equal(a.weight.data, b.weight.data)

    def test_zero_width_rejected(self, rng):
        with pytest.raises(ValueError):
            LinearLayer(0, 8, rng)

    def test_one_dim_input(self, rng):
        layer = LinearLayer(3, 2, rng)
        x1 = np.array([1.0, -2.0, 0.5])
        out1 = layer(Tensor(x1))
        out2 = layer(Tensor(x1[None, :]))
        assert out1.shape == (2,)
        assert np.allclose(out1.data, out2.data[0])

    def test_wrong_input_width(self, rng):
        layer = LinearLayer(3, 2, rng)
        for shape in [(4,), (2, 4), (2, 5, 2)]:
            with pytest.raises(ShapeError):
                layer(Tensor(np.zeros(shape)))

    def test_hand_value(self, rng):
        layer = LinearLayer(2, 1, rng)
        layer.weight.data = np.array([[2.0], [3.0]])
        layer.bias.data = np.array([-1.0])
        assert layer(Tensor([1.0, 1.0])).data == pytest.approx([4.0])


class TestMLP:
    def test_single_linear_is_identity_capable(self, rng):
        mlp = MLPBlock([3, 3], rng)
        mlp.layers[0].weight.data = np.eye(3)
        x = rng.normal(size=(4, 3))
        assert np.allclose(mlp(Tensor(x)).data, x)

    def test_zero_weights_give_bias(self, rng):
        mlp = MLPBlock([3, 5, 2], rng)
        for layer in mlp.layers:
            layer.weight.data[:] = 0.0
        mlp.layers[-1].bias.data = np.array([0.25, -0.5])
        out = mlp(Tensor(rng.normal(size=(7, 3))))
        assert np.all(out.data == [0.25, -0.5])

    def test_hand_network(self, rng):
        mlp = MLPBlock([2, 2, 1], rng)
        mlp.layers[0].weight.data = np.array([[1.0, 0.0], [0.0, 1.0]])
        mlp.layers[0].bias.data = np.zeros(2)
        mlp.layers[1].weight.data = np.array([[1.0], [1.0]])
        mlp.layers[1].bias.data = np.zeros(1)
        out = mlp(Tensor([1.0, -1.0]))
        assert out.data == pytest.approx([math.tanh(1.0) + math.tanh(-1.0)], abs=1e-15)

    def test_last_layer_not_activated(self, rng):
        mlp = MLPBlock([1, 1], rng)
        mlp.layers[0].weight.data = np.array([[100.0]])
        # tanh would saturate at 1; a linear head must pass 100 through
        assert mlp(Tensor([1.0])).data == pytest.approx([100.0])


class TestAttention:
    def test_output_shapes(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng)
        for n in (1, 5, 100):
            out = attn(Tensor(rng.normal(size=(n, 8))))
            assert out.shape == (n, 8)

    def test_batched_matches_loop(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng)
        x = rng.normal(size=(3, 6, 8))
        batched = attn(Tensor(x)).data
        for b in range(3):
            single = attn(Tensor(x[b])).data
            assert np.allclose(batched[b], single, atol=1e-12)

    def test_single_row_collapses_to_value_path(self, rng):
        # with one sequence element softmax weight is exactly 1, so the
        # output is W_o applied to the value projection
        attn = MultiHeadSelfAttention(8, 2, rng)
        x = Tensor(rng.normal(size=(1, 8)))
        expected = attn.w_o(attn.w_v(x))
        assert np.allclose(attn(x).data, expected.data, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        attn = MultiHeadSelfAttention(8, 4, rng)
        x = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        out = attn(Tensor(x)).data
        out_perm = attn(Tensor(x[perm])).data
        assert np.all(np.abs(out[perm] - out_perm) < 1e-10)

    def test_weights_rows_sum_to_one(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng)
        w = attn.attention_weights(Tensor(rng.normal(size=(7, 8))))
        assert w.shape == (2, 7, 7)
        assert np.all(np.abs(w.sum(axis=-1) - 1.0) < 1e-12)

    def test_indivisible_heads_rejected(self, rng):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(8, 3, rng)

    def test_gradients(self, rng):
        attn = MultiHeadSelfAttention(4, 2, rng)
        params = [t for _, t in attn.named_parameters()]
        x = Tensor(rng.normal(size=(3, 4)))

        def f():
            return ad.reduce_mean(ad.square(attn(x)))

        assert ad.grad_check(f, params, epsilon=1e-5) < 1e-4


class TestLSTM:
    def test_output_shapes(self, rng):
        lstm = LSTMStack(5, 6, rng)
        assert lstm(Tensor(rng.normal(size=(9, 5)))).shape == (9, 6)
        assert lstm(Tensor(rng.normal(size=(2, 9, 5)))).shape == (2, 9, 6)

    def test_wrong_input_width(self, rng):
        lstm = LSTMStack(3, 4, rng)
        for shape in [(6, 2), (2, 6, 4)]:
            with pytest.raises(ShapeError):
                lstm(Tensor(np.zeros(shape)))

    def test_zero_input_zero_weights(self, rng):
        lstm = LSTMStack(3, 4, rng, num_layers=1)
        lstm.weights[0].data[:] = 0.0
        lstm.biases[0].data[:] = 0.0
        out = lstm(Tensor(np.zeros((5, 3))))
        # all gates sit at sigmoid(0)=0.5 and tanh(0)=0, so the cell never moves
        assert np.all(out.data == 0.0)

    def test_single_cell_hand_computation(self, rng):
        lstm = LSTMStack(1, 1, rng, num_layers=1)
        lstm.weights[0].data = np.array([[0.5, -0.3, 0.8, 0.2],
                                         [0.1, 0.4, -0.2, 0.6]])
        lstm.biases[0].data = np.array([0.05, 1.0, -0.1, 0.3])
        x_val = 0.7
        out = lstm(Tensor([[x_val]]))

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        i = sig(0.5 * x_val + 0.05)
        f = sig(-0.3 * x_val + 1.0)
        g = math.tanh(0.8 * x_val - 0.1)
        o = sig(0.2 * x_val + 0.3)
        c = i * g  # initial cell state is zero, so the forget path drops out
        h = o * math.tanh(c)
        assert out.data[0, 0] == pytest.approx(h, abs=1e-14)

    def test_forget_bias_init(self, rng):
        lstm = LSTMStack(3, 4, rng)
        for b in lstm.biases:
            assert np.all(b.data[4:8] == 1.0)
            assert np.all(b.data[:4] == 0.0)
            assert np.all(b.data[8:] == 0.0)

    def test_causality(self, rng):
        lstm = LSTMStack(2, 3, rng)
        x = rng.normal(size=(6, 2))
        base = lstm(Tensor(x)).data
        x2 = x.copy()
        x2[4] += 5.0
        bumped = lstm(Tensor(x2)).data
        assert np.allclose(base[:4], bumped[:4], atol=1e-14)
        assert np.max(np.abs(base[4:] - bumped[4:])) > 1e-8

    def test_gradients(self, rng):
        lstm = LSTMStack(2, 3, rng, num_layers=2)
        params = [t for _, t in lstm.named_parameters()]
        x = Tensor(rng.normal(size=(4, 2)))

        def f():
            return ad.reduce_mean(ad.square(lstm(x)))

        assert ad.grad_check(f, params, epsilon=1e-5) < 1e-4


class TestRegistry:
    def test_collect_and_count(self, rng):
        mlp = MLPBlock([4, 8, 2], rng)
        reg = collect_params(("net", mlp))
        assert sum(t.size for t in reg.tensors()) == 4 * 8 + 8 + 8 * 2 + 2
        assert reg.names()[0] == "net.layer0.weight"

    def test_duplicate_name_rejected(self, rng):
        reg = ParamRegistry()
        reg.add("w", Tensor([1.0]))
        with pytest.raises(ValueError):
            reg.add("w", Tensor([2.0]))

    def test_empty_registry(self):
        reg = ParamRegistry()
        assert reg.names() == [] and reg.tensors() == []

    def test_zero_grad(self, rng):
        mlp = MLPBlock([2, 2], rng)
        reg = collect_params(("m", mlp))
        ad.backward(ad.reduce_sum(ad.square(mlp(Tensor([1.0, 2.0])))))
        assert any(t.grad is not None and np.any(t.grad) for t in reg.tensors())
        reg.zero_grad()
        assert all(t.grad is None or not np.any(t.grad) for t in reg.tensors())
