"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap float64 numpy arrays and record a define-by-run tape through
parent pointers. Calling ``backward`` on a scalar walks the tape in reverse
topological order and accumulates gradients (+=) into the ``.grad`` of every
reachable leaf with ``requires_grad``. Binary elementwise ops require exactly
matching shapes; anything else must be expanded explicitly with ``expand``.

Each node's VJP maps the gradient of its output to one gradient per parent:
a dense array shaped like the parent, or, for ``take``, a ``_Scatter`` record
``(index, g)`` that says ``g`` belongs at ``index`` of the parent. The sweep
keeps one pending gradient per node. The first dense gradient to reach a
node is kept as it comes; a second one, or any scatter record, starts a
buffer that the sweep owns, and later gradients are added into that buffer
in place. A node's gradient is released as soon as its VJP has run. So the
sweep's time and memory stay linear in the tape.

One layer call, one node: fused ops with hand-written VJPs stand for whole
layers, so a forecast's tape grows by a few nodes per solver step, not by
dozens. ``mlp`` is the one dense op: a whole MLP block on the
concatenation of its input parts, and with one layer a linear layer;
``attention`` is a whole multi-head self-attention layer, its four
projections included; it works its [L, L] scores one (tile, head) unit at a
time, a tile being one cache-sized group of trajectories (``_TILE_BYTES``,
a budget per share), and it keeps no softmax weights: its VJP recomputes
them unit by unit, moving no byte. Forward and VJP cut the units into one
contiguous share per CPU that BLAS's threads leave free, at most
``_MAX_SHARES``; the caller runs the first share and a thread pool made on
first use the others, and each share has its own tile buffers. Every
output element belongs to one unit, which runs the same numpy calls in the
same order on any thread, so the bytes do not depend on the share count;
``lstm_layer`` is one LSTM layer over every step, with backpropagation
through time as its VJP. All three write ``x @ w + b``
through ``mlp``'s numpy helper ``_mlp_forward`` (a linear layer is a
one-layer call) and its gradients through ``_dense_vjp``, so that math
exists once. Each computes its forward and gradients as the unfused chain
of small ops does, so both are bit-identical to that chain (``lstm_layer``'s
weight gradients up to the order of a batched sum). ``odeint`` adds a
whole-solve node for the model's MLP kernel, built on ``_mlp_forward``: its
forward writes every kernel evaluation into arrays made once per solve, and
its VJP takes each layer's products as ``_dense_vjp`` does, a block of
kernel evaluations at a time. For other kernels it tapes each step as one
node per stage point and one for the update, both read from its stage
table, and stacks the trajectory as one node.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Sequence

import numpy as np

from . import THREAD_VARS


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class GraphError(RuntimeError):
    """Raised on invalid backward calls (non-scalar loss, empty graph)."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None
        self.op = "leaf"

    # ---- basic introspection -------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op}, grad={self.requires_grad})"

    # ---- graph construction --------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], vjp, op: str) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
            out.op = op
        return out

    def __getitem__(self, index):
        return take(self, index)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_binary(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape``, undoing a broadcast over leading or
    size-1 axes (``expand``, or a matmul's batch axes)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---- elementwise ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_binary(a, b, "add")
    out = a.data + b.data
    return Tensor._make(out, (a, b), lambda g: (g, g), "add")


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_binary(a, b, "sub")
    out = a.data - b.data
    return Tensor._make(out, (a, b), lambda g: (g, -g), "sub")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_binary(a, b, "mul")
    out = a.data * b.data
    return Tensor._make(out, (a, b), lambda g: (g * b.data, g * a.data), "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor._make(a.data * c, (a,), lambda g: (g * c,), "scale")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return Tensor._make(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


def square(a: Tensor) -> Tensor:
    return Tensor._make(a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,), "square")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return Tensor._make(out, (a,), lambda g: (g * out * (1.0 - out),), "sigmoid")


# ---- matmul and attention -------------------------------------------------


def _dense_vjp(x2: np.ndarray, w: np.ndarray, g: np.ndarray, need_gx: bool):
    """Gradients of ``x2 @ w + b`` for output gradient ``g``: the input's (shaped
    as ``x2``, None unless ``need_gx``), the weight's and the bias's, the last
    two summed over every leading axis."""
    g2 = g.reshape(1, -1) if g.ndim == 1 else g
    gx = np.matmul(g2, w.T) if need_gx else None
    gw = _reduce_to(np.matmul(np.swapaxes(x2, -1, -2), g2), w.shape)
    return gx, gw, _reduce_to(g, w.shape[1:])


def _check_layers(shape: tuple[int, ...], weights: Sequence[Tensor],
                  biases: Sequence[Tensor]) -> None:
    """Raise ShapeError unless the layers chain from an input of ``shape``."""
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.ndim != 2 or shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
            raise ShapeError(f"mlp: layer {i} weight {w.shape} and bias {b.shape} do not "
                             f"fit an input of shape {shape}")
        shape = shape[:-1] + (w.shape[1],)


def _mlp_forward(x: np.ndarray, ws: Sequence[np.ndarray], bs: Sequence[np.ndarray],
                 hidden: Sequence[np.ndarray] | None = None):
    """The MLP's output for input ``x``, 1-d or with any leading axes, with
    what ``_mlp_vjp`` needs: each layer's input as the matmul saw it, and the
    hidden tanh outputs. This is the one ``x @ w + b``: a linear layer is a
    one-layer call.

    Each hidden layer is written into ``hidden[i]`` when given (shaped as the
    matmul's output, so a 1-d ``x`` needs [1, width] arrays), else into a new
    array. A 1-d ``x`` runs as one row, and its output and activations come
    back 1-d: a sum over a single row would turn a -0.0 bias gradient in
    ``_mlp_vjp`` into 0.0."""
    a = x.reshape(1, -1) if x.ndim == 1 else x
    inputs = [a]
    for i in range(len(ws) - 1):
        a = np.matmul(a, ws[i], None if hidden is None else hidden[i])
        np.add(a, bs[i], a)
        np.tanh(a, a)
        inputs.append(a)
    y = np.matmul(a, ws[-1])
    y += bs[-1]
    if x.ndim == 1:
        return y.reshape(-1), inputs, [h.reshape(-1) for h in inputs[1:]]
    return y, inputs, inputs[1:]


def _bias_rows(bs: Sequence[np.ndarray], rows: tuple) -> list:
    """Each bias repeated over ``rows``, for a caller that runs ``_mlp_forward``
    many times on inputs with these leading axes: the add then needs no
    broadcast."""
    return [np.broadcast_to(b, rows + b.shape).copy() for b in bs]


def _mlp_vjp(inputs, acts, ws: Sequence[np.ndarray], g: np.ndarray, need_gx: bool):
    """Gradients of ``_mlp_forward`` for output gradient ``g``: the input's
    (shaped as the first matmul saw it, None unless ``need_gx``), and lists of
    the weights' and the biases'."""
    gws, gbs = [None] * len(ws), [None] * len(ws)
    for i in reversed(range(len(ws))):
        if i < len(ws) - 1:
            g = g * (1.0 - acts[i] * acts[i])
        g, gws[i], gbs[i] = _dense_vjp(inputs[i], ws[i], g, i > 0 or need_gx)
        if i > 0:
            g = g.reshape(acts[i - 1].shape)
    return g, gws, gbs


def mlp(parts: Sequence[Tensor], weights: Sequence[Tensor], biases: Sequence[Tensor]) -> Tensor:
    """A whole MLP block as one node: dense layers ``x @ w + b`` with tanh
    between them (none after the last), applied to the concatenation of
    ``parts`` along their last axis. One layer and one part is a linear layer.

    Every part has the same leading axes (or all are 1-d); ``w`` is [in, out]
    and ``b`` [out], and bias gradients sum over every leading axis. Each
    layer's forward and gradients are computed as ``matmul``, ``add``,
    ``tanh`` and ``concat`` compute them, so the results are bit-identical to
    that chain.
    """
    parts = [_wrap(p) for p in parts]
    if not parts or any(p.ndim == 0 or p.shape[:-1] != parts[0].shape[:-1] for p in parts):
        raise ShapeError(f"mlp: parts {[p.shape for p in parts]} do not share leading axes")
    x = parts[0].data if len(parts) == 1 else np.concatenate([p.data for p in parts], -1)
    _check_layers(x.shape, weights, biases)
    ws = [w.data for w in weights]
    y, inputs, acts = _mlp_forward(x, ws, [b.data for b in biases])

    def vjp(g):
        need_gx = any(p.requires_grad for p in parts)
        g, gws, gbs = _mlp_vjp(inputs, acts, ws, g, need_gx)
        if not need_gx:
            gparts = [None] * len(parts)
        elif len(parts) == 1:
            gparts = [g.reshape(parts[0].shape)]
        else:
            gparts = _split(g.reshape(parts[0].shape[:-1] + (-1,)),
                            [p.shape[-1] for p in parts], -1)
        return (*gparts, *gws, *gbs)

    return Tensor._make(y, (*parts, *weights, *biases), vjp, "mlp")


def lstm_layer(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """One LSTM layer over every step of ``x`` [..., L, in] as one node.

    ``w`` is [in + hid, 4 hid] and ``b`` [4 hid], with the gates in the order
    input, forget, cell, output; h and c start at zero. Returns h at every
    step, [..., L, hid]. A 2-d ``x`` runs as a batch of one. Each step
    computes ``matmul``, ``add``, ``sigmoid``, ``tanh`` and ``mul`` as the
    unfused chain does; the VJP is backpropagation through time.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    hid = w.shape[1] // 4 if w.ndim == 2 else 0
    if x.ndim < 2 or w.ndim != 2 or w.shape != (x.shape[-1] + hid, 4 * hid) \
            or b.shape != (4 * hid,):
        raise ShapeError(f"lstm_layer: input {x.shape}, weight {w.shape} and bias "
                         f"{b.shape} do not fit")
    xs = x.data.reshape((1,) + x.shape) if x.ndim == 2 else x.data
    h = np.zeros(xs.shape[:-2] + (hid,))
    c = np.zeros_like(h)
    ws, bs = [w.data], _bias_rows([b.data], h.shape[:-1])
    steps = []  # (xh, i, f, g, o, c before, tanh(c)) per step
    hs = []
    for t in range(xs.shape[-2]):
        xh = np.concatenate([xs[..., t, :], h], axis=-1)
        z = _mlp_forward(xh, ws, bs)[0]
        gates = _sigmoid(z)  # the g quarter is unused: it is tanh(z) instead
        i, f, o = gates[..., :hid], gates[..., hid:2 * hid], gates[..., 3 * hid:]
        g = np.tanh(z[..., 2 * hid:3 * hid])
        c_prev, c = c, f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        steps.append((xh, i, f, g, o, c_prev, tc))
        hs.append(h)
    out = np.stack(hs, axis=-2)

    def vjp(gout):
        gout = gout.reshape(out.shape)
        gxs = np.zeros(xs.shape) if x.requires_grad else None
        gw = gb = dh_next = dc_next = None
        n_in = xs.shape[-1]
        for t in reversed(range(len(steps))):
            xh, i, f, g, o, c_prev, tc = steps[t]
            dh = gout[..., t, :] if dh_next is None else gout[..., t, :] + dh_next
            # products grouped as the chain's mul, sigmoid and tanh VJPs group them
            dc = (dh * o) * (1.0 - tc * tc)
            if dc_next is not None:
                dc = dc + dc_next
            dz = np.concatenate([(dc * g) * i * (1.0 - i), (dc * c_prev) * f * (1.0 - f),
                                 (dc * i) * (1.0 - g * g), (dh * tc) * o * (1.0 - o)],
                                axis=-1)
            dc_next = dc * f
            dxh, gw_t, gb_t = _dense_vjp(xh, w.data, dz, True)
            if gw is None:
                gw, gb = gw_t, gb_t
            else:
                gw += gw_t
                gb += gb_t
            if gxs is not None:
                gxs[..., t, :] = dxh[..., :n_in]
            dh_next = np.ascontiguousarray(dxh[..., n_in:])
        gx = None if gxs is None else gxs.reshape(x.shape)
        return gx, gw, gb

    return Tensor._make(out.reshape(x.shape[:-1] + (hid,)), (x, w, b), vjp, "lstm_layer")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree for shapes {a.shape} and {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as e:  # batch dims not broadcastable
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape}: {e}") from None

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _reduce_to(ga, a.shape), _reduce_to(gb, b.shape)

    return Tensor._make(out, (a, b), vjp, "matmul")


def _softmax(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``s``, shifted by its row maximum; written
    into ``s``, which is returned."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


_TILE_BYTES = 1 << 20
"""Bytes of [L, L] float64 score tiles that one share of attention's units
(``_in_shares``) takes through its softmax, or through the softmax's VJP,
before it moves on to the next group of trajectories: about half of a 2 MiB
L2 cache, so that a group's scores stay cached across the chain's
elementwise passes with room left for the q, k and v rows they read. Each
share has its own tile buffers, so the budget is per share."""

_ROW_BLOCK = 32
"""Rows of a tile whose ``gp * p`` products the softmax's VJP holds at once
to take their row sums."""

_MAX_SHARES = 2
"""The most shares ``_in_shares`` cuts attention's units into: the widest
cut measured. Each share holds its own tile buffers, two in the VJP, so
this also bounds attention's scratch whatever the CPU count."""


def _share_count() -> int:
    """One share per CPU this process may run on that BLAS's threads leave
    free, at least one and at most ``_MAX_SHARES``: a share beside two BLAS
    threads on two CPUs made Task 2 training slower. BLAS takes every CPU
    unless one of ``THREAD_VARS`` sets its threads; like numpy, this reads
    them when the module is imported."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    blas = next((int(v) for v in map(os.environ.get, THREAD_VARS)
                 if v and v.isdigit() and int(v) > 0), cpus)
    return max(1, min(_MAX_SHARES, cpus // blas))


_WORKERS = _share_count()
"""Shares that ``_in_shares`` cuts attention's units into."""

_POOL: ThreadPoolExecutor | None = None


def _forget_pool() -> None:
    """Drop the pool in a forked child, which inherits none of its threads."""
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _in_shares(units: list, run: Callable[[list], None]) -> None:
    """Call ``run`` on ``units`` cut into at most ``_WORKERS`` contiguous
    shares, in order. The caller runs the first share itself and a pool of
    ``_WORKERS - 1`` threads, made on first use, runs the others, so with
    one share no thread starts. Returns once every share is done; an
    exception from a share is raised here, the caller's first."""
    global _POOL
    n = min(_WORKERS, len(units))
    shares = [units[len(units) * i // n:len(units) * (i + 1) // n] for i in range(n)]
    if n > 1 and _POOL is None:
        _POOL = ThreadPoolExecutor(_WORKERS - 1)
    futures = [_POOL.submit(run, share) for share in shares[1:]]
    try:
        run(shares[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _tiles(n: int, length: int) -> list[slice]:
    """``n`` trajectories cut into consecutive groups whose [L, L] float64
    tiles take at most ``_TILE_BYTES`` together, one trajectory at least."""
    size = max(1, _TILE_BYTES // (8 * length * length))
    return [slice(a, min(a + size, n)) for a in range(0, n, size)]


def _units(n: int, length: int, heads: int, d_head: int) -> list:
    """Attention's (tile, head) units in order: each ``_tiles`` group's columns
    of one head, as an index of [n, L, d] arrays."""
    return [np.s_[t, :, h * d_head:(h + 1) * d_head] for t in _tiles(n, length)
            for h in range(heads)]


def _head_weights(q: np.ndarray, k: np.ndarray, cols, out=None) -> np.ndarray:
    """One head's softmax(q k^T / sqrt(d_head)) on ``cols`` of q, k [..., L, d], into ``out``."""
    qh = q[cols]
    s = np.matmul(qh, np.swapaxes(k[cols], -1, -2), out=out)
    s *= 1.0 / math.sqrt(qh.shape[-1])
    return _softmax(s)


def _attention_forward(x: np.ndarray, heads: int, ws: Sequence[np.ndarray],
                       bs: Sequence[np.ndarray]):
    """Multi-head self-attention of ``x`` [..., L, d] with projections
    ``ws``/``bs`` in the order q, k, v, output. Returns the output and what
    ``_attention_vjp`` needs: q, k, v, the head count and the heads joined.

    The leading axes are flattened into n trajectories, cut by ``_tiles``.
    Each (tile, head) unit runs one head's whole chain (scores, scale,
    softmax, product with v) on its group, so its scores are still in cache
    for each pass, and writes its columns of the joined heads. The units run
    in ``_in_shares``. Every row of scores lies whole in one tile, and each
    matmul works one trajectory at a time either way, so the bytes are those
    of running each op over all n at once."""
    q, k, v = (_mlp_forward(x, [w], [b])[0] for w, b in zip(ws[:3], bs[:3]))
    length, d = x.shape[-2:]
    q3, k3, v3 = (a.reshape(-1, length, d) for a in (q, k, v))
    joined = np.empty_like(q3)
    units = _units(q3.shape[0], length, heads, d // heads)

    def run(share):
        buf = np.empty((units[0][0].stop, length, length))
        for cols in share:
            p = _head_weights(q3, k3, cols, buf[:cols[0].stop - cols[0].start])
            np.matmul(p, v3[cols], out=joined[cols])

    _in_shares(units, run)
    joined = joined.reshape(x.shape)
    y = _mlp_forward(joined, ws[3:], bs[3:])[0]
    return y, (q, k, v, heads, joined)


def _attention_vjp(x: np.ndarray, cache, ws: Sequence[np.ndarray], g: np.ndarray,
                   need_gx: bool):
    """Gradients of ``_attention_forward`` for output gradient ``g``: the
    input's from q, k and v in turn (each None unless ``need_gx``), and lists
    of the weights' and the biases'. ``g`` is left intact. Runs the forward's
    units in ``_in_shares``, each share recomputing a unit's softmax weights
    into its own tile buffer just before reversing it."""
    q, k, v, heads, joined = cache
    length, d = q.shape[-2:]
    d_head = d // heads
    inv_sqrt = 1.0 / math.sqrt(d_head)
    gj, gw_o, gb_o = _dense_vjp(joined, ws[3], g, True)
    q3, k3, v3, gj3 = (a.reshape(-1, length, d) for a in (q, k, v, gj))
    gq, gk, gv = np.zeros_like(q3), np.zeros_like(k3), np.zeros_like(v3)
    units = _units(q3.shape[0], length, heads, d_head)

    def run(share):
        size = units[0][0].stop
        p_buf, gp_buf = np.empty((2, size, length, length))
        prod = np.empty((size, _ROW_BLOCK, length))
        dot = np.empty((size, length, 1))
        for cols in share:
            m = cols[0].stop - cols[0].start
            p = _head_weights(q3, k3, cols, p_buf[:m])
            gh = gj3[cols]
            gp = np.matmul(gh, np.swapaxes(v3[cols], -1, -2), out=gp_buf[:m])
            gv[cols] += np.matmul(np.swapaxes(p, -1, -2), gh)
            # softmax's VJP p * (gp - sum(gp * p)), then the scale's; the row
            # sums a block of rows at a time, each still one row's sum
            for r in range(0, length, _ROW_BLOCK):
                rows = slice(r, min(r + _ROW_BLOCK, length))
                part = np.multiply(gp[:, rows], p[:, rows], out=prod[:m, :rows.stop - r])
                part.sum(axis=-1, keepdims=True, out=dot[:m, rows])
            gp -= dot[:m]
            gp *= p
            gp *= inv_sqrt
            gq[cols] += np.matmul(gp, k3[cols])
            gk[cols] += np.swapaxes(np.matmul(np.swapaxes(q3[cols], -1, -2), gp), -1, -2)

    _in_shares(units, run)
    gxs, gws, gbs = zip(*(_dense_vjp(x, w, gi.reshape(q.shape), need_gx)
                          for w, gi in zip(ws, (gq, gk, gv))))
    return gxs, [*gws, gw_o], [*gbs, gb_o]


def attention(x: Tensor, heads: int, weights: Sequence[Tensor],
              biases: Sequence[Tensor]) -> Tensor:
    """Multi-head scaled dot-product self-attention as one node.

    ``x`` is [..., L, d]; ``weights`` are the q, k, v and output projections,
    each [d, d], and ``biases`` theirs, each [d]. Every head takes d / heads
    columns of q, k and v; its softmax(q k^T / sqrt(d / heads)) weights every
    query over every key, and the heads' weighted sums of v are joined and
    projected. The forward and gradients are computed as the chain of
    ``mlp``, slice, ``matmul``, ``scale``, softmax and ``concat`` nodes
    computes them, so both are bit-identical to it. ``x`` is listed as a
    parent three times, once per projection, so that its gradient is summed
    from q, k and v in the chain's order.

    The scores are worked through in tiles: the leading axes flattened into
    trajectories, and those cut into groups whose [L, L] float64 scores fit
    in ``_TILE_BYTES``. Each group's scores run the whole chain for one head,
    forward or backward, while they are in cache. A tile holds whole rows
    and every matmul already works one trajectory at a time, so each number
    is computed by the same operations as over the whole batch at once.
    The node keeps q, k, v and the joined heads, no softmax weights: the
    forward writes every (tile, head) unit's weights into a reused tile
    buffer, and the VJP recomputes each unit's by the same ``_head_weights``
    call just before reversing it. The units run in contiguous shares, one
    per CPU that BLAS leaves free, each with its own buffers
    (``_in_shares``); no two units write the same element, so the bytes
    are those of running them one after another.
    """
    x = _wrap(x)
    d = x.shape[-1] if x.ndim else 0
    if x.ndim < 2 or not 0 < heads <= d or d % heads or len(weights) != 4 \
            or len(biases) != 4 or any(w.shape != (d, d) for w in weights) \
            or any(b.shape != (d,) for b in biases):
        raise ShapeError(f"attention: input {x.shape}, {heads} heads, weights "
                         f"{[w.shape for w in weights]} and biases "
                         f"{[b.shape for b in biases]} do not fit")
    ws = [w.data for w in weights]
    y, cache = _attention_forward(x.data, heads, ws, [b.data for b in biases])

    def vjp(g):
        gxs, gws, gbs = _attention_vjp(x.data, cache, ws, g, x.requires_grad)
        return (*gxs, *gws, *gbs)

    return Tensor._make(y, (x, x, x, *weights, *biases), vjp, "attention")


# ---- reductions ----------------------------------------------------------


def reduce_sum(a: Tensor) -> Tensor:
    """The sum of every element, as a 0-d tensor."""
    def vjp(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor._make(np.asarray(a.data.sum(), dtype=np.float64), (a,), vjp, "sum")


def reduce_mean(a: Tensor) -> Tensor:
    if a.size == 0:
        raise ShapeError("reduce: mean of an empty tensor")
    return scale(reduce_sum(a), 1.0 / a.size)


# ---- structural ----------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    sizes = [t.shape[axis] for t in tensors]
    return Tensor._make(out, tensors, lambda g: _split(g, sizes, axis), "concat")


def _split(g: np.ndarray, sizes: Sequence[int], axis: int) -> tuple[np.ndarray, ...]:
    """``g`` cut along ``axis`` into contiguous pieces of the given sizes."""
    return tuple(np.ascontiguousarray(p) for p in np.split(g, np.cumsum(sizes)[:-1], axis=axis))


class _Scatter:
    """A slice's gradient: ``g`` added at ``index`` of a zero parent-shaped array."""

    __slots__ = ("index", "g")

    def __init__(self, index, g):
        self.index = index
        self.g = g


def take(a: Tensor, index) -> Tensor:
    out = a.data[index]
    return Tensor._make(np.asarray(out, dtype=np.float64), (a,),
                        lambda g: (_Scatter(index, g),), "slice")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"reshape: cannot reshape {a.shape} (size {a.size}) to {shape}")
    return Tensor._make(a.data.reshape(shape), (a,),
                        lambda g: (g.reshape(a.shape),), "reshape")


def expand(a: Tensor, shape) -> Tensor:
    """Explicit broadcast of ``a`` to ``shape``; gradient sums back."""
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError(f"expand: cannot broadcast {a.shape} to {shape}") from None
    return Tensor._make(out.copy(), (a,), lambda g: (_reduce_to(g, a.shape),), "expand")


# ---- backward pass -------------------------------------------------------


def _topo(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _accumulate(grads: dict[int, np.ndarray], owned: set[int], p: Tensor, pg) -> None:
    """Add one VJP result ``pg`` into the pending gradient of ``p``.

    Only buffers in ``owned`` are written in place: a VJP may hand its input
    gradient, or a view of it, to a parent, and that array must stay intact.
    ``np.add.at`` keeps repeated fancy-index entries accumulating.
    """
    key = id(p)
    if key not in owned:
        old = grads.get(key)
        if old is None and not isinstance(pg, _Scatter):
            grads[key] = pg
            return
        grads[key] = np.zeros_like(p.data) if old is None else np.array(old, dtype=np.float64)
        owned.add(key)
    if isinstance(pg, _Scatter):
        np.add.at(grads[key], pg.index, pg.g)
    else:
        grads[key] += pg


def backward(loss: Tensor, seed=None) -> None:
    """Reverse-mode sweep from ``loss``.

    Accumulates into ``.grad`` of every reachable leaf with requires_grad
    (a copy when ``.grad`` is None, else ``.grad + g``). Interior nodes'
    gradients are released as the sweep passes them. ``seed`` overrides the
    default all-ones seed (the default requires a scalar loss).
    """
    if seed is None:
        if loss.ndim != 0 and loss.size != 1:
            raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
        seed = np.ones_like(loss.data)
    else:
        seed = _as_array(seed)
        if seed.shape != loss.shape:
            raise GraphError(f"backward: seed shape {seed.shape} != loss shape {loss.shape}")
    if not loss.requires_grad:
        return
    grads: dict[int, np.ndarray] = {id(loss): seed.astype(np.float64)}
    owned: set[int] = set()
    for node in reversed(_topo(loss)):
        if node._vjp is None:  # a leaf: every consumer has been swept already
            g = grads.get(id(node))
            if g is not None:
                node.grad = (np.array(g, dtype=np.float64) if node.grad is None
                             else node.grad + g)
            continue
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if p.requires_grad:
                _accumulate(grads, owned, p, pg)


def grad_check(function: Callable[[], Tensor], params: Iterable[Tensor],
               epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``function`` must rebuild its graph on every call (define-by-run) and
    return a scalar Tensor; relative error uses max(1, |analytic|) in the
    denominator.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = function()
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = function().item()
            flat[i] = orig - epsilon
            down = function().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            err = abs(an_flat[i] - numeric) / max(1.0, abs(an_flat[i]))
            worst = max(worst, err)
    for p in params:
        p.zero_grad()
    return worst
