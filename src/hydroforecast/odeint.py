"""Fixed-step differentiable ODE integration (Forward Euler, classic RK4).

Each solver is one row of the chain-form stage table ``_STAGES``: stage 0
evaluates the field at the state, stage j > 0 at ``state + k_{j-1} * h_j *
dt``, and ``_update`` combines the stages' derivatives into the next state.
Every path walks the table through the one ``_step``, because the discrete
adjoint is exact only while it replays the forward pass's own step. Controls
are zero-order held across a step, including RK4 substages.

With the model's vector field, an ``MLPKernel``, the whole solve is one tape
node: ``_step`` runs on numpy arrays and keeps each kernel evaluation's stage
state. Its forward makes its working arrays once per solve: the
[state, control] input row, the hidden layers, the bias rows and the
trajectory. Each step writes its control row into the input row once, for
all its stages, and its new state into the trajectory; each evaluation
writes its stage state beside the control and runs the MLP over the hidden
layers. The VJP walks the evaluations in blocks of ``BLOCK``, last block
first. It reruns a block's MLP forwards as one stacked call, from the kept
stage states and the controls, and sweeps dL/dk back through them one
evaluation at a time, last first; only that chain is sequential. Then it
adds each evaluation's weight, bias and control gradients. Every gradient
is added in the taped path's order, so both give the same bytes. Any other
kernel is taped one node per stage point and update: with a one-node kernel,
three a step (Euler) or nine (RK4), counting the control slice, plus the
final stack.
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


def _check_solve(solver: str, controls: Tensor, grid: TimeGrid) -> None:
    if solver not in _STAGES:
        raise ValueError(f"unknown solver {solver!r} (euler or rk4)")
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
    """``state + h * k`` as one node: a stage point of the taped step."""
    _check_derivatives(state, (k,))
    h = float(h)
    return Tensor._make(state.data + k.data * h, (state, k), lambda g: (g, g * h), "axpy")


def _np_axpy(state: np.ndarray, k: np.ndarray, h: float) -> np.ndarray:
    return state + k * float(h)


# Each solver's h_2..h_m: stage j > 0 evaluates the field at
# state + k_{j-1} * h_j * dt, at time t + h_j * dt.
_STAGES = {"euler": (), "rk4": (0.5, 0.5, 1.0)}

# Kernel evaluations that the solve's VJP reruns in one stacked forward: a
# multiple of every solver's stage count, so a block holds whole steps.
BLOCK = 64


def _update(solver: str, state: np.ndarray, ks: Sequence[np.ndarray], dt: float) -> np.ndarray:
    """The next state from the stage derivatives ``ks``."""
    if solver == "euler":
        return state + ks[0] * float(dt)
    k1, k2, k3, k4 = ks
    return state + ((k1 + k2 * 2.0) + (k3 * 2.0 + k4)) * float(dt / 6.0)


def _update_vjp(solver: str, g: np.ndarray, dt: float) -> tuple[np.ndarray, ...]:
    """dL/dk of ``_update`` for each stage, given dL/d(next state); dL/d(state) is g."""
    if solver == "euler":
        return (g * float(dt),)
    g1 = g * float(dt / 6.0)
    g2 = g1 * 2.0
    return g1, g2, g2, g1


def _update_node(solver: str, state: Tensor, ks: Sequence[Tensor], dt: float) -> Tensor:
    """``_update`` as one node."""
    _check_derivatives(state, ks)
    out = _update(solver, state.data, [k.data for k in ks], dt)
    return Tensor._make(out, (state, *ks), lambda g: (g, *_update_vjp(solver, g, dt)),
                        f"{solver}_update")


def _step(solver: str, state, field, axpy, update, dt: float):
    """One step of ``solver``, on tensors or on arrays: ``field(s, h)`` is the derivative
    at stage point s, h * dt into the step, and ``axpy(s, k, h)`` is s + h * k."""
    ks = [field(state, 0.0)]
    for h in _STAGES[solver]:
        ks.append(field(axpy(state, ks[-1], h * dt), h))
    return update(solver, state, ks, dt)


def _taped_step(solver: str, state: Tensor, kernel: Kernel, c: Tensor, grid: TimeGrid,
                i: int) -> Tensor:
    """Step i of ``grid``, one node per stage point and update besides the kernel's."""
    t, dt = grid.t0 + i * grid.dt, grid.dt
    return _step(solver, state, lambda s, h: kernel(s, c, t + h * dt), _axpy, _update_node, dt)


def integrate(solver: str, f0: Tensor, kernel: Kernel, grid: TimeGrid,
              controls: Tensor) -> Tensor:
    """States at t1..t_steps; step i runs from t_i = t0 + i*dt with control c_i.

    An ``MLPKernel`` makes the whole solve one node (``_mlp_solve``); any
    other kernel is taped step by step.
    """
    _check_solve(solver, controls, grid)
    if isinstance(kernel, MLPKernel):
        return _mlp_solve(solver, f0, kernel, grid, controls)
    state = f0
    out = []
    for i in range(grid.steps):
        state = _taped_step(solver, state, kernel, _control_at(controls, i), grid, i)
        out.append(state)
    return _stack_states(out)


def _mlp_solve(solver: str, f0: Tensor, kernel: MLPKernel, grid: TimeGrid,
               controls: Tensor) -> Tensor:
    """The taped path's trajectory as one node, with the discrete adjoint as
    its VJP. Parents: F0, controls, the kernel's weights and its biases. The
    field is autonomous, so the solve reads ``grid.dt`` but never ``grid.t0``.
    The forward makes its working arrays once, so a solve that needs no
    gradient peaks at about its trajectory's bytes. Each kernel evaluation
    keeps its stage state, f wide, a new array from ``_step``; the VJP
    recomputes the MLP's activations from it and its step's control row,
    ``BLOCK`` evaluations at a time, so its transient memory is one block's."""
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
    rows = lead or (1,)  # a 1-d state runs as one row
    inp = np.empty(rows + (f + controls.shape[-1],))  # the MLP input [stage state, control]
    hidden = [np.empty(rows + w.shape[1:]) for w in ws[:-1]]
    brows = ad._bias_rows(bs, rows)
    out = np.empty(lead + (grid.steps, f))
    caches = []  # per kernel evaluation: its stage state

    def field(s, h):  # autonomous, so h goes unused
        if track:
            caches.append(s)
        inp[..., :f] = s
        return ad._mlp_forward(inp, ws, brows, hidden)[0].reshape(s.shape)

    dt, s = grid.dt, f0.data
    for i in range(grid.steps):
        inp[..., f:] = controls.data[..., i, :]  # held across the step's stages
        s = _step(solver, s, field, _np_axpy, _update, dt)
        out[..., i, :] = s
    if not track:
        return Tensor(out)

    def vjp(g):
        """Reverse the evaluations in blocks of ``BLOCK``, last block first.
        Each sum adds its terms in the order the tape sweep adds the gradients
        of the unfused nodes: last evaluation first."""
        hs, nc = _STAGES[solver], controls.shape[-1]
        stages = len(hs) + 1
        wts = [w.T for w in ws]
        gws, gbs = [None] * len(ws), [None] * len(ws)
        gc_all = np.zeros(controls.shape) if controls.requires_grad else None
        g_s = g[..., grid.steps - 1, :]
        for e0 in reversed(range(0, len(caches), BLOCK)):
            k = min(BLOCK, len(caches) - e0)
            i0, i1 = e0 // stages, (e0 + k) // stages
            # 1. Rerun the block's evaluations as one stacked forward. A stacked
            # matmul gives each evaluation the product, so the bytes, field gave it.
            x = np.empty((k, *rows, f + nc))
            x[..., :f] = np.stack(caches[e0:e0 + k]).reshape(k, *rows, f)
            x[..., f:] = np.repeat(np.moveaxis(controls.data[..., i0:i1, :], -2, 0), stages,
                                   0).reshape(k, *rows, nc)
            _, inputs, acts = ad._mlp_forward(x, ws, bs)
            slopes = [1.0 - a * a for a in acts]  # tanh' of each hidden layer
            # 2. Sweep dL/dk back to dL/d[state, control], one evaluation at a
            # time. gouts holds each layer's dL/d(pre-activation output).
            gouts = [np.empty((k, *rows, w.shape[1])) for w in ws]
            gx0 = np.empty_like(x)
            ga_rows = gx0.reshape(k, *lead, -1)[..., :f]
            for i in reversed(range(i0, i1)):
                # the first evaluation of step 0 reads F0, which may need no gradient
                first_gx = i > 0 or f0.requires_grad or gc_all is not None
                gks, ga = _update_vjp(solver, g_s, dt), None
                # g_s turns from dL/d(state after step i) into dL/d(state before it)
                g_s = g_s if i == 0 else g[..., i - 1, :] + g_s
                for j in reversed(range(stages)):
                    e = stages * i + j - e0
                    # k_j also moved stage j + 1's point, by h_{j+1} * dt
                    gouts[-1][e] = gks[j] if ga is None else gks[j] + ga * float(hs[j] * dt)
                    for layer in reversed(range(1, len(ws))):
                        np.multiply(np.matmul(gouts[layer][e], wts[layer]),
                                    slopes[layer - 1][e], out=gouts[layer - 1][e])
                    if j > 0 or first_gx:
                        np.matmul(gouts[0][e], wts[0], out=gx0[e])
                        ga = ga_rows[e]
                        g_s = g_s + ga
            # 3. Add each evaluation's weight and bias gradients, last first.
            # Only the sum over an evaluation's own rows is taken per block; a
            # 1-d state's one row is its bias gradient, unsummed, as in _dense_vjp.
            for layer, gout in enumerate(gouts):
                xts = np.swapaxes(inputs[layer], -1, -2)
                grows = gout.reshape(k, *lead, -1)
                if lead:
                    grows = grows.sum(axis=tuple(range(1, len(lead) + 1)))
                for e in reversed(range(k)):
                    gw = ad._reduce_to(np.matmul(xts[e], gout[e]), ws[layer].shape)
                    if gws[layer] is None:
                        gws[layer], gbs[layer] = gw.copy(), grows[e].copy()
                    else:
                        gws[layer] += gw
                        gbs[layer] += grows[e]
            if gc_all is not None:  # from a zero row: the bytes of ((c4 + c3) + c2) + c1
                gc = gx0[..., f:].reshape(i1 - i0, stages, *lead, nc)
                for j in reversed(range(stages)):
                    gc_all[..., i0:i1, :] += np.moveaxis(gc[:, j], 0, -2)
        return (g_s if f0.requires_grad else None, gc_all, *gws, *gbs)

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
    _check_solve(solver, controls, grid)
    trajectory = np.asarray(trajectory, dtype=np.float64)
    dl = np.asarray(dl_dtrajectory, dtype=np.float64)
    if trajectory.shape[-2] != grid.steps:
        raise ShapeError(f"trajectory length {trajectory.shape[-2]} != grid steps {grid.steps}")
    if dl.shape != trajectory.shape:
        raise ShapeError(f"dL/dtrajectory shape {dl.shape} != trajectory {trajectory.shape}")

    params = list(params)
    pgrads = {name: np.zeros_like(t.data) for name, t in params}
    saved = [(name, t, t.grad) for name, t in params]

    a = dl[(Ellipsis, grid.steps - 1, slice(None))].copy()
    try:
        for name, t, _ in saved:
            t.grad = None
        for i in range(grid.steps - 1, -1, -1):
            s = Tensor(trajectory[..., i - 1, :] if i > 0 else f0.data, requires_grad=True)
            c = Tensor(_control_at(controls, i).data)
            nxt = _taped_step(solver, s, kernel, c, grid, i)
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
