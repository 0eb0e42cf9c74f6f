"""Fixed-step differentiable ODE integration (Forward Euler, classic RK4).

Two gradient paths are supported: backprop through the unrolled solver
(the default used in training) and a step-reversed adjoint sweep that
rebuilds one solver step at a time, so memory stays O(1) in the horizon.
Controls are zero-order held across a step, including RK4 substages. The
Euler update, each RK4 stage point, the RK4 update and the trajectory stack
are one tape node each, so with a one-node kernel a step adds three nodes
(Euler) or nine (RK4), counting the control slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    dt: float
    steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)


# A Kernel maps (state [..., f], control [..., latent], t) -> derivative [..., f].
Kernel = Callable[[Tensor, Tensor, float], Tensor]


def _control_at(controls: Tensor, i: int) -> Tensor:
    return controls[(Ellipsis, i, slice(None))]


def _check_lengths(controls: Tensor, grid: TimeGrid) -> None:
    if controls.shape[-2] != grid.steps:
        raise ShapeError(f"controls length {controls.shape[-2]} != grid steps {grid.steps}")


def _stack_states(states: Sequence[Tensor]) -> Tensor:
    """States [..., f] stacked on a new second-to-last axis, as one node."""
    out = np.stack([s.data for s in states], axis=-2)

    def vjp(g):
        return tuple(np.ascontiguousarray(g[..., i, :]) for i in range(len(states)))

    return Tensor._make(out, states, vjp, "stack")


def _check_derivatives(state: Tensor, ks: Sequence[Tensor]) -> None:
    for k in ks:
        if k.shape != state.shape:
            raise ShapeError(f"kernel output shape {k.shape} != state shape {state.shape}")


def _axpy(state: Tensor, k: Tensor, h: float) -> Tensor:
    """``state + h * k`` as one node: an Euler step or an RK4 stage point."""
    _check_derivatives(state, (k,))
    h = float(h)
    return Tensor._make(state.data + k.data * h, (state, k), lambda g: (g, g * h), "axpy")


def _rk4_update(state: Tensor, ks: Sequence[Tensor], dt: float) -> Tensor:
    """``state + dt/6 * ((k1 + 2 k2) + (2 k3 + k4))`` as one node."""
    _check_derivatives(state, ks)
    k1, k2, k3, k4 = ks
    h = float(dt / 6.0)
    incr = (k1.data + k2.data * 2.0) + (k3.data * 2.0 + k4.data)

    def vjp(g):
        g1 = g * h
        g2 = g1 * 2.0
        return g, g1, g2, g2, g1

    return Tensor._make(state.data + incr * h, (state, *ks), vjp, "rk4_update")


def _euler_step(state: Tensor, c: Tensor, t: float, dt: float, kernel: Kernel) -> Tensor:
    return _axpy(state, kernel(state, c, t), dt)


def _rk4_step(state: Tensor, c: Tensor, t: float, dt: float, kernel: Kernel) -> Tensor:
    k1 = kernel(state, c, t)
    k2 = kernel(_axpy(state, k1, dt / 2.0), c, t + dt / 2.0)
    k3 = kernel(_axpy(state, k2, dt / 2.0), c, t + dt / 2.0)
    k4 = kernel(_axpy(state, k3, dt), c, t + dt)
    return _rk4_update(state, (k1, k2, k3, k4), dt)


# One step per solver, shared by the forward loop and the adjoint sweep: the
# adjoint is exact only while it replays the forward pass's discrete step.
_STEPS = {"euler": _euler_step, "rk4": _rk4_step}


def _step_fn(solver: str):
    if solver not in _STEPS:
        raise ValueError(f"unknown solver {solver!r} (euler or rk4)")
    return _STEPS[solver]


def integrate(solver: str, f0: Tensor, kernel: Kernel, grid: TimeGrid,
              controls: Tensor) -> Tensor:
    """States at t1..t_steps; step i runs from t_i = t0 + i*dt with control c_i."""
    step = _step_fn(solver)
    _check_lengths(controls, grid)
    state = f0
    out = []
    for i in range(grid.steps):
        state = step(state, _control_at(controls, i), grid.t0 + i * grid.dt, grid.dt, kernel)
        out.append(state)
    return _stack_states(out)


def adjoint_backward(trajectory: np.ndarray, f0: Tensor, kernel: Kernel, grid: TimeGrid,
                     controls: Tensor, dl_dtrajectory: np.ndarray,
                     params: Sequence[tuple[str, Tensor]], solver: str = "euler"
                     ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Adjoint sweep matching the forward solver's discretization.

    Runs backward in time from the stored trajectory, rebuilding one solver
    step per iteration and pulling the adjoint state through its transpose,
    adding the per-observation loss gradients as impulses. Returns parameter
    gradients (by name) and dL/dF0.
    """
    step = _step_fn(solver)
    trajectory = np.asarray(trajectory, dtype=np.float64)
    dl = np.asarray(dl_dtrajectory, dtype=np.float64)
    if trajectory.shape[-2] != grid.steps:
        raise ShapeError(f"trajectory length {trajectory.shape[-2]} != grid steps {grid.steps}")
    if dl.shape != trajectory.shape:
        raise ShapeError(f"dL/dtrajectory shape {dl.shape} != trajectory {trajectory.shape}")
    _check_lengths(controls, grid)

    params = list(params)
    pgrads = {name: np.zeros_like(t.data) for name, t in params}
    saved = [(name, t, t.grad) for name, t in params]

    states = [f0.data] + [trajectory[(Ellipsis, i, slice(None))] for i in range(grid.steps)]
    a = dl[(Ellipsis, grid.steps - 1, slice(None))].copy()
    try:
        for name, t, _ in saved:
            t.grad = None
        for i in range(grid.steps - 1, -1, -1):
            s = Tensor(states[i], requires_grad=True)
            c = Tensor(_control_at(controls, i).data)
            nxt = step(s, c, grid.t0 + i * grid.dt, grid.dt, kernel)
            ad.backward(nxt, seed=a)
            a = s.grad.copy()
            for name, t, _ in saved:
                if t.grad is not None:
                    pgrads[name] += t.grad
                t.grad = None
            if i > 0:
                a += dl[(Ellipsis, i - 1, slice(None))]
    finally:
        for name, t, g in saved:
            t.grad = g
    return pgrads, a


def convergence_slope(solver: str, rates: Sequence[float] = (0.1, 0.05, 0.025)) -> float:
    """Empirical log-log order of the global error for dF/dt = -F on [0, 1]."""
    errors = []
    for dt in rates:
        steps = int(round(1.0 / dt))
        grid = TimeGrid(0.0, dt, steps)
        controls = Tensor(np.zeros((steps, 1)))
        traj = integrate(solver, Tensor(np.array([1.0])),
                         lambda s, c, t: ad.scale(s, -1.0), grid, controls)
        errors.append(abs(traj.data[-1, 0] - np.exp(-1.0)))
    logs_dt = np.log(np.asarray(rates))
    logs_err = np.log(np.asarray(errors))
    slope, _ = np.polyfit(logs_dt, logs_err, 1)
    return float(slope)
