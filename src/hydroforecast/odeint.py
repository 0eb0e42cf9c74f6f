"""Fixed-step differentiable ODE integration (Forward Euler, classic RK4).

Two gradient paths are supported: backprop through the unrolled solver
(the default used in training) and a step-reversed adjoint sweep that
rebuilds one solver step at a time, so memory stays O(1) in the horizon.
Controls are zero-order held across a step, including RK4 substages.

With the model's vector field, an ``MLPKernel``, the whole solve is one tape
node: its forward runs the step loop on numpy arrays, and its VJP is the
discrete adjoint of that loop, each stage reversed through the MLP's
hand-written VJP. The node keeps only each kernel evaluation's stage state
and control row; the VJP reruns that evaluation's MLP forward just before
reversing it. It repeats the taped path's expressions and adds every
gradient in the order the tape sweep would, so trajectories and gradients
are bit-identical to it. Any other kernel is taped step by step: the Euler
update, each RK4 stage point, the RK4 update and the trajectory stack are
one node each, so with a one-node kernel a step adds three nodes (Euler) or
nine (RK4), counting the control slice.
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
        if not 0 < self.dt < float("inf"):
            raise ValueError(f"dt must be a finite number above 0, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)


# A Kernel maps (state [..., f], control [..., latent], t) -> derivative [..., f].
Kernel = Callable[[Tensor, Tensor, float], Tensor]


class MLPKernel:
    """The model's vector field: an MLP on ``[state, control]``. It is
    autonomous: it takes ``t`` to fit the ``Kernel`` signature and ignores it.

    Called, it is one taped ``autodiff.mlp`` node like any kernel;
    ``integrate`` instead runs a whole solve with it as one node.
    """

    def __init__(self, weights: Sequence[Tensor], biases: Sequence[Tensor]):
        self.weights, self.biases = list(weights), list(biases)

    def __call__(self, state: Tensor, control: Tensor, t: float) -> Tensor:
        return ad.mlp((state, control), self.weights, self.biases)


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
    """States at t1..t_steps; step i runs from t_i = t0 + i*dt with control c_i.

    An ``MLPKernel`` makes the whole solve one node (``_mlp_solve``); any
    other kernel is taped step by step.
    """
    step = _step_fn(solver)
    _check_lengths(controls, grid)
    if isinstance(kernel, MLPKernel):
        return _mlp_solve(solver, f0, kernel, grid, controls)
    state = f0
    out = []
    for i in range(grid.steps):
        state = step(state, _control_at(controls, i), grid.t0 + i * grid.dt, grid.dt, kernel)
        out.append(state)
    return _stack_states(out)


def _mlp_solve(solver: str, f0: Tensor, kernel: MLPKernel, grid: TimeGrid,
               controls: Tensor) -> Tensor:
    """The taped path's trajectory as one node, with the discrete adjoint as
    its VJP. Parents: F0, controls, the kernel's weights and its biases. The
    field is autonomous, so the solve reads ``grid.dt`` but never ``grid.t0``.
    Each kernel evaluation keeps its stage state, f wide, and a view of its
    control row; the VJP recomputes the MLP's activations from them."""
    lead = f0.shape[:-1]
    if f0.ndim == 0 or controls.shape[:-2] != lead:
        raise ShapeError(f"F0 {f0.shape} and controls {controls.shape} do not share "
                         "leading axes")
    f = f0.shape[-1]
    ad._check_layers(lead + (f + controls.shape[-1],),
                     kernel.weights, kernel.biases)
    if kernel.weights[-1].shape[1] != f:
        raise ShapeError(f"kernel output width {kernel.weights[-1].shape[1]} != state "
                         f"shape {f0.shape}")
    parents = (f0, controls, *kernel.weights, *kernel.biases)
    track = any(p.requires_grad for p in parents)
    ws, bs = [w.data for w in kernel.weights], [b.data for b in kernel.biases]
    caches = []  # per kernel evaluation: its stage state and control view

    def field(s, c):
        if track:
            caches.append((s, c))
        return ad._mlp_forward(np.concatenate([s, c], -1), ws, bs)[0]

    dt, s, states = grid.dt, f0.data, []
    for i in range(grid.steps):
        c = controls.data[..., i, :]
        if solver == "euler":
            s = s + field(s, c) * float(dt)
        else:
            k1 = field(s, c)
            k2 = field(s + k1 * float(dt / 2.0), c)
            k3 = field(s + k2 * float(dt / 2.0), c)
            k4 = field(s + k3 * float(dt), c)
            s = s + ((k1 + k2 * 2.0) + (k3 * 2.0 + k4)) * float(dt / 6.0)
        states.append(s)
    out = np.stack(states, axis=-2)
    if not track:
        return Tensor(out)

    def vjp(g):
        """Reverse every stage; each sum adds its terms in the order the tape
        sweep adds the gradients of the unfused nodes."""
        gws, gbs = [None] * len(ws), [None] * len(ws)
        gc_all = np.zeros(controls.shape) if controls.requires_grad else None

        def stage(j, gk, need_gx):
            """dL/d(state) and dL/d(control) of evaluation j, given dL/dk."""
            s, c = caches[j]  # rerun the evaluation as field ran it, for the same bytes
            _, inputs, acts = ad._mlp_forward(np.concatenate([s, c], -1), ws, bs)
            gx, gw_j, gb_j = ad._mlp_vjp(inputs, acts, ws, gk, need_gx)
            for acc, new in ((gws, gw_j), (gbs, gb_j)):
                for layer, a in enumerate(new):
                    if acc[layer] is None:
                        acc[layer] = np.array(a)
                    else:
                        acc[layer] += a
            if gx is None:
                return None, None
            gx = gx.reshape(lead + (-1,))
            return gx[..., :f], None if gc_all is None else gx[..., f:f + controls.shape[-1]]

        g_s = g[..., grid.steps - 1, :]
        for i in reversed(range(grid.steps)):
            # g_s is dL/d(state after step i); the first evaluation of step 0
            # reads F0, which may need no gradient
            first_gx = i > 0 or f0.requires_grad or gc_all is not None
            if solver == "euler":
                gs_k, gc = stage(i, g_s * float(dt), first_gx)
                terms = (g_s, gs_k)
            else:
                g1 = g_s * float(dt / 6.0)
                g2 = g1 * 2.0
                ga3, c4 = stage(4 * i + 3, g1, True)
                ga2, c3 = stage(4 * i + 2, g2 + ga3 * float(dt), True)
                ga1, c2 = stage(4 * i + 1, g2 + ga2 * float(dt / 2.0), True)
                gs_k, c1 = stage(4 * i, g1 + ga1 * float(dt / 2.0), first_gx)
                gc = None if gc_all is None else ((c4 + c3) + c2) + c1
                terms = (g_s, ga3, ga2, ga1, gs_k)
            if gc_all is not None:
                gc_all[..., i, :] += gc
            g_s = g[..., i - 1, :] if i > 0 else None
            if i > 0 or f0.requires_grad:
                for term in terms:
                    g_s = term if g_s is None else g_s + term
        return (g_s, gc_all, *gws, *gbs)

    return Tensor._make(out, parents, vjp, "solve")


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
