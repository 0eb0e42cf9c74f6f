import math
import tracemalloc

import numpy as np
import pytest

from hydroforecast import autodiff as ad
from hydroforecast.autodiff import ShapeError, Tensor
from hydroforecast.layers import MLPBlock, collect_params
from hydroforecast.odeint import (
    MLPKernel,
    TimeGrid,
    adjoint_backward,
    integrate,
)


def decay_kernel(state, control, t):
    return ad.scale(state, -1.0)


def control_kernel(state, control, t):
    return control


class TestTimeGrid:
    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, -0.1, 5)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.1, 0)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf")])
    def test_dt_not_finite(self, dt):
        with pytest.raises(ValueError, match="dt must be a finite number above 0"):
            TimeGrid(0.0, dt, 5)


class TestEuler:
    def test_single_decay_step(self):
        grid = TimeGrid(0.0, 0.1, 1)
        out = integrate("euler", Tensor([1.0]), decay_kernel, grid, Tensor(np.zeros((1, 1))))
        assert out.data[0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_constant_derivative_is_exact(self):
        grid = TimeGrid(0.0, 0.25, 4)
        controls = Tensor(np.full((4, 1), 2.0))
        out = integrate("euler", Tensor([0.0]), control_kernel, grid, controls)
        assert np.allclose(out.data[:, 0], [0.5, 1.0, 1.5, 2.0], atol=1e-15)

    def test_hundred_decay_steps(self):
        grid = TimeGrid(0.0, 0.01, 100)
        out = integrate("euler", Tensor([1.0]), decay_kernel, grid, Tensor(np.zeros((100, 1))))
        assert out.data[-1, 0] == pytest.approx(0.99 ** 100, abs=1e-14)

    def test_trajectory_length(self):
        grid = TimeGrid(0.0, 0.1, 7)
        out = integrate("euler", Tensor([1.0, 2.0]), decay_kernel, grid,
                              Tensor(np.zeros((7, 1))))
        assert out.shape == (7, 2)

    def test_control_length_mismatch(self):
        grid = TimeGrid(0.0, 0.1, 5)
        with pytest.raises(ShapeError):
            integrate("euler", Tensor([1.0]), decay_kernel, grid, Tensor(np.zeros((4, 1))))


class TestRK4:
    def test_single_decay_step_hand_value(self):
        # k1=-1, k2=-0.95, k3=-0.9525, k4=-0.90475 for dt=0.1
        grid = TimeGrid(0.0, 0.1, 1)
        out = integrate("rk4", Tensor([1.0]), decay_kernel, grid, Tensor(np.zeros((1, 1))))
        assert out.data[0, 0] == pytest.approx(0.9048375, abs=1e-12)

    def test_unit_interval_accuracy(self):
        grid = TimeGrid(0.0, 0.01, 100)
        out = integrate("rk4", Tensor([1.0]), decay_kernel, grid, Tensor(np.zeros((100, 1))))
        assert abs(out.data[-1, 0] - math.exp(-1.0)) < 1e-9

    def test_matches_euler_on_constant_derivative(self):
        grid = TimeGrid(0.0, 0.5, 3)
        controls = Tensor(np.full((3, 1), -1.5))
        e = integrate("euler", Tensor([4.0]), control_kernel, grid, controls)
        r = integrate("rk4", Tensor([4.0]), control_kernel, grid, controls)
        assert np.allclose(e.data, r.data, atol=1e-14)


class TestDispatch:
    def test_unknown_solver(self):
        grid = TimeGrid(0.0, 0.1, 1)
        f0, controls = Tensor([1.0]), Tensor(np.zeros((1, 1)))
        with pytest.raises(ValueError, match="solver"):
            integrate("heun", f0, decay_kernel, grid, controls)
        mlp = MLPBlock([1 + 1, 4, 1], np.random.default_rng(0))
        kernel = MLPKernel([layer.weight for layer in mlp.layers],
                           [layer.bias for layer in mlp.layers])
        with pytest.raises(ValueError, match="solver"):
            integrate("heun", f0, kernel, grid, controls)  # the one-node solve
        with pytest.raises(ValueError, match="solver"):
            adjoint_backward(np.zeros((1, 1)), f0, decay_kernel, grid, controls,
                             np.zeros((1, 1)), [], solver="heun")

    def test_named_solvers_route(self):
        grid = TimeGrid(0.0, 0.1, 2)
        c = Tensor(np.zeros((2, 1)))
        assert np.array_equal(
            integrate("euler", Tensor([1.0]), decay_kernel, grid, c).data,
            integrate("euler", Tensor([1.0]), decay_kernel, grid, c).data)


class TestMLPKernelSolve:
    def test_solve_without_gradient_peaks_at_one_trajectory(self, rng):
        """An Euler solve of an MLP kernel that no gradient needs (B=64,
        L=800, f=6) allocates its trajectory once and works each evaluation
        in arrays made once per solve: tracemalloc's peak stays within 10% of
        the trajectory's bytes. Measured: 1.02; 2.1 when each state was kept
        in a list and then stacked."""
        batch, length, f, latent = 64, 800, 6, 8
        block = MLPBlock([f + latent, 16, 16, f], rng)
        kernel = MLPKernel([Tensor(layer.weight.data) for layer in block.layers],
                           [Tensor(layer.bias.data) for layer in block.layers])
        f0 = Tensor(rng.normal(size=(batch, f)))
        controls = Tensor(rng.normal(size=(batch, length, latent)))
        tracemalloc.start()
        try:
            out = integrate("euler", f0, kernel, TimeGrid(0.0, 0.01, length), controls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.op == "leaf" and out.data.nbytes == batch * length * f * 8
        assert peak < 1.1 * out.data.nbytes


class TestConvergence:
    def test_euler_first_order(self, convergence_slope):
        assert convergence_slope("euler") == pytest.approx(1.0, abs=0.1)

    def test_rk4_fourth_order(self, convergence_slope):
        assert convergence_slope("rk4") == pytest.approx(4.0, abs=0.3)


class TestLinearity:
    def test_linear_kernel_state_linearity(self, rng):
        a = rng.normal(size=(3, 3))

        def lin_kernel(state, control, t):
            return ad.matmul(state, Tensor(a))

        grid = TimeGrid(0.0, 0.05, 10)
        c = Tensor(np.zeros((10, 1)))
        f1 = rng.normal(size=(1, 3))
        f2 = rng.normal(size=(1, 3))
        out1 = integrate("euler", Tensor(f1), lin_kernel, grid, c).data
        out2 = integrate("euler", Tensor(f2), lin_kernel, grid, c).data
        combo = integrate("euler", Tensor(2.0 * f1 + 3.0 * f2), lin_kernel, grid, c).data
        assert np.all(np.abs(combo - 2.0 * out1 - 3.0 * out2) < 1e-10)


class TestAdjoint:
    def _unrolled_grads(self, f0, kernel, grid, controls, targets, params, solver):
        for _, t in params:
            t.zero_grad()
        f0.zero_grad()
        traj = integrate(solver, f0, kernel, grid, controls)
        loss = ad.reduce_sum(ad.square(ad.sub(traj, Tensor(targets))))
        ad.backward(loss)
        grads = {n: t.grad.copy() for n, t in params}
        return traj.data, grads, f0.grad.copy()

    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    def test_matches_unrolled_mlp_kernel(self, solver, rng):
        mlp = MLPBlock([2 + 3, 8, 2], rng)
        reg = collect_params(("k", mlp))
        params = list(reg.items())

        def kernel(state, control, t):
            return mlp(ad.concat([state, control], axis=-1))

        grid = TimeGrid(0.0, 0.01, 50)
        controls = Tensor(rng.normal(size=(50, 3)))
        f0 = Tensor(rng.normal(size=(2,)), requires_grad=True)
        targets = rng.normal(size=(50, 2))

        traj, grads, df0 = self._unrolled_grads(f0, kernel, grid, controls,
                                                targets, params, solver)
        dl = 2.0 * (traj - targets)
        pgrads, a0 = adjoint_backward(traj, f0, kernel, grid, controls, dl,
                                      params, solver=solver)
        for name, g in grads.items():
            denom = max(1.0, float(np.max(np.abs(g))))
            assert np.max(np.abs(pgrads[name] - g)) / denom < 1e-3
            cos = np.dot(pgrads[name].ravel(), g.ravel()) / (
                np.linalg.norm(pgrads[name]) * np.linalg.norm(g) + 1e-30)
            assert cos > 0.999
        assert np.max(np.abs(a0 - df0)) < 1e-3 * max(1.0, np.max(np.abs(df0)))

    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    def test_matches_unrolled_time_dependent_kernel(self, solver, rng):
        # the kernel reads t as an input column, so the adjoint must replay
        # each step and stage at the forward pass's time
        mlp = MLPBlock([2 + 8 + 1, 8, 8, 2], rng)
        params = list(collect_params(("k", mlp)).items())

        def kernel(state, control, t):
            return mlp(state, control, Tensor(np.full(state.shape[:-1] + (1,), t)))

        grid = TimeGrid(0.5, 0.02, 30)
        controls = Tensor(rng.normal(size=(30, 8)))
        f0 = Tensor(rng.normal(size=(2,)), requires_grad=True)
        targets = rng.normal(size=(30, 2))

        traj, grads, df0 = self._unrolled_grads(f0, kernel, grid, controls,
                                                targets, params, solver)
        pgrads, a0 = adjoint_backward(traj, f0, kernel, grid, controls,
                                      2.0 * (traj - targets), params, solver=solver)
        for name, g in grads.items():
            assert np.max(np.abs(pgrads[name] - g)) < 1e-9, name
        assert np.max(np.abs(a0 - df0)) < 1e-9

    def test_zero_loss_gradient_gives_zero(self, rng):
        mlp = MLPBlock([2 + 1, 4, 2], rng)
        params = list(collect_params(("k", mlp)).items())

        def kernel(state, control, t):
            return mlp(ad.concat([state, control], axis=-1))

        grid = TimeGrid(0.0, 0.1, 5)
        controls = Tensor(rng.normal(size=(5, 1)))
        f0 = Tensor(np.zeros(2))
        traj = integrate("euler", f0, kernel, grid, controls)
        pgrads, a0 = adjoint_backward(traj.data, f0, kernel, grid, controls,
                                      np.zeros_like(traj.data), params)
        assert all(np.all(g == 0.0) for g in pgrads.values())
        assert np.all(a0 == 0.0)

    def test_frozen_dynamics_terminal_loss(self):
        # with f == 0 the state never moves, so d(F_L^2)/dF0 = 2 F0
        def zero_kernel(state, control, t):
            return ad.scale(state, 0.0)

        grid = TimeGrid(0.0, 0.1, 8)
        f0 = Tensor([1.5, -2.0])
        traj = integrate("euler", f0, zero_kernel, grid, Tensor(np.zeros((8, 1))))
        dl = np.zeros_like(traj.data)
        dl[-1] = 2.0 * traj.data[-1]
        _, a0 = adjoint_backward(traj.data, f0, zero_kernel, grid,
                                 Tensor(np.zeros((8, 1))), dl, [])
        assert np.allclose(a0, [3.0, -4.0], atol=1e-14)

    def test_restores_existing_param_grads(self, rng):
        mlp = MLPBlock([3, 4, 2], rng)
        params = list(collect_params(("k", mlp)).items())
        marker = np.full_like(params[0][1].data, 7.0)
        params[0][1].grad = marker.copy()

        def kernel(state, control, t):
            return mlp(ad.concat([state, control], axis=-1))

        grid = TimeGrid(0.0, 0.1, 3)
        controls = Tensor(rng.normal(size=(3, 1)))
        f0 = Tensor(np.zeros(2))
        traj = integrate("euler", f0, kernel, grid, controls)
        adjoint_backward(traj.data, f0, kernel, grid, controls,
                         np.ones_like(traj.data), params)
        assert np.array_equal(params[0][1].grad, marker)

    def test_shape_validation(self, rng):
        grid = TimeGrid(0.0, 0.1, 4)
        c = Tensor(np.zeros((4, 1)))
        f0 = Tensor([1.0])
        traj = integrate("euler", f0, decay_kernel, grid, c)
        with pytest.raises(ShapeError):
            adjoint_backward(traj.data, f0, decay_kernel, grid, c,
                             np.zeros((3, 1)), [])
