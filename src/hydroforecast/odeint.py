"""Fixed-step differentiable ODE integration (Forward Euler, classic RK4).

Two gradient paths are supported: backprop through the unrolled solver
(the default used in training) and a step-reversed adjoint sweep that
rebuilds one solver step at a time, so memory stays O(1) in the horizon.
Controls are zero-order held across a step, including RK4 substages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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


def _stack_states(states: Sequence[Tensor], f: int) -> Tensor:
    rows = [ad.reshape(s, s.shape[:-1] + (1, f)) for s in states]
    return ad.concat(rows, axis=-2)


def _euler_step(state: Tensor, c: Tensor, t: float, dt: float, kernel: Kernel) -> Tensor:
    return ad.add(state, ad.scale(kernel(state, c, t), dt))


def _rk4_step(state: Tensor, c: Tensor, t: float, dt: float, kernel: Kernel) -> Tensor:
    k1 = kernel(state, c, t)
    k2 = kernel(ad.add(state, ad.scale(k1, dt / 2.0)), c, t + dt / 2.0)
    k3 = kernel(ad.add(state, ad.scale(k2, dt / 2.0)), c, t + dt / 2.0)
    k4 = kernel(ad.add(state, ad.scale(k3, dt)), c, t + dt)
    incr = ad.add(ad.add(k1, ad.scale(k2, 2.0)), ad.add(ad.scale(k3, 2.0), k4))
    return ad.add(state, ad.scale(incr, dt / 6.0))


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
    return _stack_states(out, f0.shape[-1])


euler_integrate = partial(integrate, "euler")
rk4_integrate = partial(integrate, "rk4")


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
