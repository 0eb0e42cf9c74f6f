import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroforecast import autodiff as ad
from hydroforecast.autodiff import GraphError, ShapeError, Tensor


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_hand_value(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_batched(self, rng):
        a = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(3, 4, 5))
        out = ad.matmul(Tensor(a), Tensor(b))
        assert np.allclose(out.data, a @ b)


class TestElementwise:
    def test_tanh_zero_grad_one(self):
        x = Tensor(0.0, requires_grad=True)
        y = ad.tanh(x)
        assert y.item() == 0.0
        ad.backward(y)
        assert x.grad == pytest.approx(1.0)

    def test_add(self):
        assert np.array_equal(ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data,
                              [4.0, 6.0])

    def test_square_sum_backward(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.backward(ad.reduce_sum(ad.square(x)))
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_binary_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_scalar_broadcast(self):
        out = ad.mul(Tensor([1.0, 2.0]), Tensor(3.0))
        assert np.array_equal(out.data, [3.0, 6.0])


class TestSoftmax:
    """The numpy softmax that attention's heads use; it writes into its input."""

    def test_symmetric(self):
        assert np.allclose(ad._softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_single_element(self):
        for c in (-7.0, 0.0, 123.4):
            assert ad._softmax(np.array([c])) == pytest.approx([1.0])

    def test_large_values_stable(self):
        out = ad._softmax(np.array([1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [0.5, 0.5])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, size=(3, 6))
        out = ad._softmax(x.copy())
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) < 1e-12)
        assert np.all(out >= 0.0)
        shifted = ad._softmax(x + rng.uniform(-10, 10))
        assert np.all(np.abs(out - shifted) < 1e-12)


class TestReduce:
    def test_mean(self):
        assert ad.reduce_mean(Tensor([3.0, 5.0])).item() == 4.0

    def test_mean_empty_slice(self):
        with pytest.raises(ShapeError):
            ad.reduce_mean(Tensor(np.zeros((0, 2))))


class TestStructural:
    def test_concat(self):
        out = ad.concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_reshape_count_violation(self):
        with pytest.raises(ShapeError):
            ad.reshape(Tensor(np.zeros((2, 3))), (7,))

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)

    def test_slice_gradient_routing(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        ad.backward(ad.reduce_sum(x[2:4]))
        assert np.array_equal(x.grad, [0, 0, 1, 1, 0, 0])


class TestBackward:
    def test_constant_loss_empty_map(self):
        grads = ad.backward(Tensor(5.0))
        assert grads == {}

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            ad.backward(ad.square(x))

    def test_fanout_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = ad.add(ad.square(x), ad.scale(x, 3.0))  # x^2 + 3x
        ad.backward(ad.reduce_sum(y))
        assert x.grad == pytest.approx([7.0])

    def test_composite_matches_finite_differences(self, rng):
        w = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        x = Tensor(rng.uniform(-1, 1, (2, 4)))

        def f():
            return ad.reduce_sum(ad.tanh(ad.matmul(x, w)))

        assert ad.grad_check(f, [w], epsilon=1e-5) < 1e-6

    def test_linearity(self, rng):
        x = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)

        def grad_of(fn):
            x.zero_grad()
            ad.backward(fn())
            return x.grad.copy()

        l1 = lambda: ad.reduce_sum(ad.square(x))
        l2 = lambda: ad.reduce_sum(ad.tanh(x))
        combo = lambda: ad.add(ad.scale(l1(), 2.5), ad.scale(l2(), -1.5))
        expected = 2.5 * grad_of(l1) - 1.5 * grad_of(l2)
        assert np.all(np.abs(grad_of(combo) - expected) < 1e-12)

    def test_forward_deterministic(self, rng):
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3)))
        a = ad.reduce_sum(ad.sigmoid(ad.matmul(x, w))).item()
        b = ad.reduce_sum(ad.sigmoid(ad.matmul(x, w))).item()
        assert a == b


class TestAccumulation:
    """Sparse slice gradients and in-place sums must give the same gradients."""

    def test_slices_and_dense_uses_share_a_parent(self, rng):
        p = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (4, 3)))

        def f():
            x = ad.tanh(p)  # interior, so its pending gradient is summed in place
            terms = [ad.reduce_sum(ad.mul(x, c))]
            terms += [ad.reduce_sum(ad.square(x[i])) for i in range(4)]
            terms += [ad.reduce_sum(ad.square(x[1:3, ::2])), ad.reduce_sum(ad.sigmoid(x))]
            total = terms[0]
            for t in terms[1:]:
                total = ad.add(total, t)
            return total

        assert ad.grad_check(f, [p], epsilon=1e-5) < 1e-6

    def test_fancy_index_repeats_accumulate(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([0, 2, 2, 2])
        w = Tensor([1.0, 2.0, 3.0, 4.0])
        loss = ad.add(ad.reduce_sum(ad.mul(x[idx], w)), ad.reduce_sum(x[1:3]))
        ad.backward(loss)
        assert np.array_equal(x.grad, [1.0, 1.0, 10.0, 0.0])

    @pytest.mark.parametrize("swap", [False, True])
    def test_add_of_self_leaves_shared_gradient_intact(self, rng, swap):
        p = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        q = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)

        def f():
            # add hands one gradient array to both operands; x + x then reaches
            # x twice while z still holds that same array
            x, z = ad.tanh(p), ad.sigmoid(q)
            w = ad.add(x, x)
            y = ad.add(z, w) if swap else ad.add(w, z)
            return ad.reduce_sum(ad.square(y))

        assert ad.grad_check(f, [p, q], epsilon=1e-5) < 1e-6

    @pytest.mark.parametrize("swap", [False, True])
    def test_reshape_input_with_another_consumer(self, rng, swap):
        p = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        q = Tensor(rng.uniform(-1, 1, 6), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, (2, 3)))

        def f():
            # a gets a view of the gradient z holds, and z is swept after a
            z = ad.sigmoid(q)
            a = ad.tanh(ad.mul(ad.reshape(z, (2, 3)), p))
            sq = ad.reduce_sum(ad.square(ad.add(ad.reshape(a, (6,)), z)))
            lin = ad.reduce_sum(ad.mul(a, c))
            return ad.add(lin, sq) if swap else ad.add(sq, lin)

        assert ad.grad_check(f, [p, q], epsilon=1e-5) < 1e-6

    def test_two_backward_calls_sum_into_grad(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        loss = ad.reduce_sum(ad.square(x[0:2]))
        grads = ad.backward(loss)
        first = x.grad
        assert set(grads) == {id(x)}
        ad.backward(loss)
        assert np.array_equal(x.grad, [4.0, -8.0, 0.0])
        assert np.array_equal(first, [2.0, -4.0, 0.0])


class TestLinear:
    """A one-layer, one-part ``mlp`` is the linear layer ``x @ w + b``."""

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 4, 3)])
    def test_gradients_match_finite_differences(self, rng, shape):
        x = Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        assert ad.grad_check(lambda: ad.reduce_sum(ad.tanh(ad.mlp([x], [w], [b]))),
                             [x, w, b], epsilon=1e-5) < 1e-6

    def test_forward_and_bias_gradient_over_batch_axes(self, rng):
        x = Tensor(rng.uniform(-1, 1, (2, 4, 3)))
        w = Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        c = rng.uniform(-1, 1, (2, 4, 5))
        y = ad.mlp([x], [w], [b])
        assert y.op == "mlp"
        assert np.array_equal(y.data, np.matmul(x.data, w.data) + b.data)
        ad.backward(ad.reduce_sum(ad.mul(y, Tensor(c))))
        assert np.allclose(b.grad, c.sum(axis=(0, 1)), atol=1e-15)
        assert np.allclose(w.grad, np.einsum("bti,btj->ij", x.data, c), atol=1e-14)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            ad.mlp([Tensor(np.zeros((2, 4)))], [Tensor(np.zeros((3, 5)))],
                   [Tensor(np.zeros(5))])
        with pytest.raises(ShapeError):
            ad.mlp([Tensor(np.zeros(3))], [Tensor(np.zeros((3, 5)))], [Tensor(np.zeros(4))])
        with pytest.raises(ShapeError):  # a 1-d weight
            ad.mlp([Tensor(np.zeros(3))], [Tensor(np.zeros(3))], [Tensor(np.zeros(()))])


@pytest.mark.parametrize("op", ["add", "sub", "mul", "tanh", "square", "sigmoid",
                                "attention", "matmul"])
def test_op_gradients_match_finite_differences(op, rng):
    x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    y = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    m = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
    proj = [Tensor(rng.uniform(-1, 1, (4, 4))) for _ in range(4)]
    bias = [Tensor(rng.uniform(-1, 1, 4)) for _ in range(4)]

    funcs = {
        "add": lambda: ad.reduce_sum(ad.square(ad.add(x, y))),
        "sub": lambda: ad.reduce_sum(ad.square(ad.sub(x, y))),
        "mul": lambda: ad.reduce_sum(ad.mul(x, y)),
        "tanh": lambda: ad.reduce_sum(ad.tanh(x)),
        "square": lambda: ad.reduce_sum(ad.square(x)),
        "sigmoid": lambda: ad.reduce_sum(ad.sigmoid(x)),
        "attention": lambda: ad.reduce_sum(ad.square(ad.attention(x, 2, proj, bias))),
        "matmul": lambda: ad.reduce_sum(ad.tanh(ad.matmul(x, m))),
    }
    assert ad.grad_check(funcs[op], [x, y, m], epsilon=1e-5) < 1e-4


class TestGradCheck:
    def test_quadratic_form(self, rng):
        a = rng.normal(size=(3, 3))
        x = Tensor(rng.normal(size=(1, 3)), requires_grad=True)

        def f():
            return ad.reduce_sum(ad.matmul(ad.matmul(x, Tensor(a)),
                                           ad.reshape(x, (3, 1))))

        assert ad.grad_check(f, [x], epsilon=1e-5) < 1e-8

    def test_three_layer_tanh_mlp(self, rng):
        ws = [Tensor(rng.uniform(-0.5, 0.5, s), requires_grad=True)
              for s in [(4, 8), (8, 8), (8, 1)]]
        x = Tensor(rng.uniform(-1, 1, (3, 4)))

        def f():
            h = x
            for w in ws:
                h = ad.tanh(ad.matmul(h, w))
            return ad.reduce_sum(h)

        assert ad.grad_check(f, ws, epsilon=1e-5) < 1e-6

    def test_constant_function_zero(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        assert ad.grad_check(lambda: Tensor(3.0), [p]) == 0.0


def test_finite_outputs_on_finite_inputs(rng):
    x = Tensor(rng.uniform(-100, 100, (4, 4)))
    eye, zero = Tensor(np.eye(4)), Tensor(np.zeros(4))
    for out in (ad.tanh(x), ad.sigmoid(x), ad.attention(x, 2, [eye] * 4, [zero] * 4),
                ad.square(x)):
        assert np.all(np.isfinite(out.data))
