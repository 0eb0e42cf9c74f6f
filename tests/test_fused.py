"""Fused nodes against the unfused op chains they replace.

``autodiff.mlp``, ``autodiff.attention``, ``autodiff.lstm_layer`` and the
solver's update and stack nodes must give the same forward bytes as the
chains of small ops below, and gradients that match central differences.
The whole-solve node that ``integrate`` builds for an ``MLPKernel`` must
give the same bytes, forward and every gradient, as ``integrate`` taping the
same MLP step by step. The tape-budget tests hold a forecast to one node per
layer call and one for the solve.
"""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroforecast import autodiff as ad
from hydroforecast import odeint
from hydroforecast.autodiff import ShapeError, Tensor
from hydroforecast.hydrodata import generate
from hydroforecast.layers import LSTMStack, MLPBlock, MultiHeadSelfAttention
from hydroforecast.models import ModelConfig, build_model
from hydroforecast.odeint import MLPKernel, TimeGrid

EPS = 1e-6
TOL = 1e-5


# ---- the unfused compositions ---------------------------------------------


def unfused_dense(x, w, b):
    """``x @ w + b`` from ``matmul``, ``add`` and ``expand``; a 1-d ``x`` is
    multiplied as one row."""
    if x.ndim == 1:
        y = ad.reshape(ad.matmul(ad.reshape(x, (1, x.shape[0])), w), (w.shape[1],))
    else:
        y = ad.matmul(x, w)
    return ad.add(y, ad.expand(b, y.shape))


def unfused_mlp(parts, weights, biases):
    x = parts[0] if len(parts) == 1 else ad.concat(parts, axis=-1)
    for i, (w, b) in enumerate(zip(weights, biases)):
        x = unfused_dense(x, w, b)
        if i < len(weights) - 1:
            x = ad.tanh(x)
    return x


def unfused_softmax(a):
    """Softmax over the last axis as a node of its own."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return Tensor._make(out, (a,), vjp, "softmax")


def unfused_transpose(a):
    return Tensor._make(np.swapaxes(a.data, -1, -2), (a,),
                        lambda g: (np.swapaxes(g, -1, -2),), "transpose")


def unfused_attention(x, heads, weights, biases):
    """Per head a slice of q, k and v, softmax(q k^T / sqrt(d_head)) and its
    product with v; the heads joined and projected. Every projection is a
    one-layer ``mlp`` node."""
    q, k, v = (ad.mlp((x,), (w,), (b,)) for w, b in zip(weights[:3], biases[:3]))
    d_head = x.shape[-1] // heads
    inv_sqrt = 1.0 / math.sqrt(d_head)
    outs = []
    for h in range(heads):
        cols = (Ellipsis, slice(h * d_head, (h + 1) * d_head))
        scores = ad.scale(ad.matmul(q[cols], unfused_transpose(k[cols])), inv_sqrt)
        outs.append(ad.matmul(unfused_softmax(scores), v[cols]))
    return ad.mlp((ad.concat(outs, axis=-1),), weights[3:], biases[3:])


def unfused_lstm_layer(x, w, b):
    hid = b.shape[0] // 4
    squeeze = x.ndim == 2
    if squeeze:
        x = ad.reshape(x, (1,) + x.shape)
    batch, n = x.shape[:-2], x.shape[-2]
    h = Tensor(np.zeros(batch + (hid,)))
    c = Tensor(np.zeros(batch + (hid,)))
    outs = []
    for t in range(n):
        z = unfused_dense(ad.concat([x[(Ellipsis, t, slice(None))], h], axis=-1), w, b)
        i_g = ad.sigmoid(z[(Ellipsis, slice(0, hid))])
        f_g = ad.sigmoid(z[(Ellipsis, slice(hid, 2 * hid))])
        g_g = ad.tanh(z[(Ellipsis, slice(2 * hid, 3 * hid))])
        o_g = ad.sigmoid(z[(Ellipsis, slice(3 * hid, 4 * hid))])
        c = ad.add(ad.mul(f_g, c), ad.mul(i_g, g_g))
        h = ad.mul(o_g, ad.tanh(c))
        outs.append(ad.reshape(h, batch + (1, hid)))
    seq = ad.concat(outs, axis=-2)
    return ad.reshape(seq, (n, hid)) if squeeze else seq


def unfused_axpy(state, k, h):
    return ad.add(state, ad.scale(k, h))


def unfused_update(solver, state, ks, dt):
    if solver == "euler":
        return ad.add(state, ad.scale(ks[0], dt))
    k1, k2, k3, k4 = ks
    incr = ad.add(ad.add(k1, ad.scale(k2, 2.0)), ad.add(ad.scale(k3, 2.0), k4))
    return ad.add(state, ad.scale(incr, dt / 6.0))


def unfused_stack(states):
    return ad.concat([ad.reshape(s, s.shape[:-1] + (1, s.shape[-1])) for s in states],
                     axis=-2)


# ---- helpers ----------------------------------------------------------------


def _weighted_sum(y: Tensor, seed: int) -> Tensor:
    """A scalar loss whose gradient is a fixed random array."""
    c = np.random.default_rng([seed, 1]).normal(size=y.shape)
    return ad.reduce_sum(ad.mul(y, Tensor(c)))


def _grads(loss: Tensor, tensors) -> list[np.ndarray]:
    for t in tensors:
        t.zero_grad()
    ad.backward(loss)
    out = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]
    for t in tensors:
        t.zero_grad()
    return out


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _tape(root: Tensor) -> list[Tensor]:
    """Every tensor reachable from ``root``, leaves included."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _non_leaf(root: Tensor) -> int:
    return sum(node._vjp is not None for node in _tape(root))


lead_axes = st.lists(st.integers(1, 3), max_size=2).map(tuple)
seeds = st.integers(0, 2 ** 32 - 1)


# ---- mlp ----------------------------------------------------------------------


@st.composite
def mlp_cases(draw):
    """Leading axes (none for 1-d parts), part widths, layer widths."""
    return (draw(lead_axes), draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)),
            draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)), draw(seeds))


def _mlp_tensors(case):
    lead, widths, dims, seed = case
    rng = np.random.default_rng(seed)
    parts = [Tensor(rng.normal(size=lead + (w,)), requires_grad=True) for w in widths]
    ins = [sum(widths)] + dims[:-1]
    weights = [Tensor(rng.normal(size=(a, b)), requires_grad=True) for a, b in zip(ins, dims)]
    biases = [Tensor(rng.normal(size=b), requires_grad=True) for b in dims]
    return parts, weights, biases, seed


class TestMLP:
    @given(mlp_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_unfused_chain(self, case):
        parts, weights, biases, seed = _mlp_tensors(case)
        fused = ad.mlp(parts, weights, biases)
        chain = unfused_mlp(parts, weights, biases)
        assert _same_bytes(fused.data, chain.data)
        assert fused.op == "mlp" and _non_leaf(fused) == 1
        tensors = [*parts, *weights, *biases]
        for a, b in zip(_grads(_weighted_sum(fused, seed), tensors),
                        _grads(_weighted_sum(chain, seed), tensors)):
            assert _same_bytes(a, b)

    @given(mlp_cases())
    @settings(max_examples=25, deadline=None)
    def test_gradients_match_central_differences(self, case):
        parts, weights, biases, seed = _mlp_tensors(case)
        err = ad.grad_check(lambda: _weighted_sum(ad.mlp(parts, weights, biases), seed),
                            [*parts, *weights, *biases], epsilon=EPS)
        assert err < TOL

    def test_block_takes_parts(self, rng):
        mlp = MLPBlock([5, 4, 2], rng)
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 3))
        joined = mlp(Tensor(np.concatenate([a, b], axis=-1)))
        assert _same_bytes(mlp(Tensor(a), Tensor(b)).data, joined.data)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("dims", [[2], [4, 2], [4, 3, 2]])
    def test_forward_into_given_arrays(self, rng, lead, dims):
        """``_mlp_forward`` writing its hidden layers over arrays it is given,
        two calls in a row, gives the bytes of fresh arrays: the output, each
        layer's input and the activations, 1-d for a 1-d input."""
        ins = [5] + dims[:-1]
        ws = [rng.normal(size=(a, b)) for a, b in zip(ins, dims)]
        bs = [rng.normal(size=b) for b in dims]
        hidden = [np.full((lead or (1,)) + (d,), np.nan) for d in dims[:-1]]
        for _ in range(2):
            x = rng.normal(size=lead + (5,))
            y, inputs, acts = ad._mlp_forward(x, ws, bs, hidden)
            y_new, inputs_new, acts_new = ad._mlp_forward(x, ws, bs)
            assert y.shape == lead + (2,) and _same_bytes(y, y_new)
            assert all(_same_bytes(a, b) for a, b in zip(inputs, inputs_new))
            assert [a.shape for a in acts] == [lead + (d,) for d in dims[:-1]]
            assert all(_same_bytes(a, b) for a, b in zip(acts, acts_new))
            assert all(a is h for a, h in zip(inputs[1:], hidden))

    def test_weight_gradient_holds_no_stack(self):
        """``_dense_vjp`` at x [16, 8, 256] and w 256x256 peaks below 2 MiB:
        it adds each trajectory's ``x_b.T @ g_b`` into the weight gradient in
        turn and holds no [16, 256, 256] stack of them (8 MiB), with the
        bytes of the stack's sum."""
        rng = np.random.default_rng(0)
        x, g = rng.normal(size=(16, 8, 256)), rng.normal(size=(16, 8, 256))
        w = rng.normal(size=(256, 256))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gw = ad._dense_vjp(x, w, g, False)[1]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert _same_bytes(gw, np.matmul(np.swapaxes(x, -1, -2), g).sum(axis=0))

    def test_signed_zero_bias_gradients_of_1d_input(self):
        """A 1-d input keeps -0.0 in its bias gradients: the output gradient's
        -0.0 reaches the last bias, and a saturated tanh (slope 0.0) times a
        negative gradient reaches the hidden bias as -0.0. A sum over one row,
        as a 2-d activation would take in ``_mlp_vjp``, gives 0.0. Both match
        the unfused chain byte for byte."""
        x = Tensor(np.array([1.0, 0.2]), requires_grad=True)
        weights = [Tensor(np.array([[30.0, 0.5], [0.0, 0.3]]), requires_grad=True),
                   Tensor(np.array([[0.4, 0.7], [0.2, 0.9]]), requires_grad=True)]
        biases = [Tensor(np.zeros(2), requires_grad=True) for _ in range(2)]
        seed = np.array([-0.0, -1.0])
        grads = []
        for y in (ad.mlp([x], weights, biases), unfused_mlp([x], weights, biases)):
            for t in (x, *weights, *biases):
                t.zero_grad()
            ad.backward(y, seed=seed)
            grads.append([t.grad.copy() for t in (x, *weights, *biases)])
        assert all(_same_bytes(a, b) for a, b in zip(*grads))
        gb_hidden, gb_out = grads[0][-2:]
        assert gb_hidden[0] == 0.0 and np.signbit(gb_hidden[0])
        assert gb_out[0] == 0.0 and np.signbit(gb_out[0])

    def test_shape_errors(self, rng):
        w, b = Tensor(np.zeros((3, 2))), Tensor(np.zeros(2))
        with pytest.raises(ShapeError):  # parts' widths do not sum to the input width
            ad.mlp([Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 2)))], [w], [b])
        with pytest.raises(ShapeError):  # parts with different leading axes
            ad.mlp([Tensor(np.zeros((4, 1))), Tensor(np.zeros((5, 2)))], [w], [b])


# ---- attention ----------------------------------------------------------------


@st.composite
def attention_cases(draw):
    """Batch axes (none for a 2-d sequence), steps, heads, head width, whether
    the output goes through a residual add onto an embedding of the input as
    in the model's encoder, and a seed."""
    return (draw(lead_axes), draw(st.integers(1, 5)), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)), draw(st.booleans()), draw(seeds))


def _attention_tensors(case):
    """The input, the embedding's weight and bias, the four projections' weights
    and biases, and a function of the input and projections giving the op's or
    the chain's output, through the embedding and residual when drawn."""
    batch, steps, heads, d_head, residual, seed = case
    d = heads * d_head
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=batch + (steps, 3)), requires_grad=True)
    embed = [Tensor(rng.normal(size=(3, d)), requires_grad=True),
             Tensor(rng.normal(size=d), requires_grad=True)]
    weights = [Tensor(rng.normal(scale=0.7, size=(d, d)), requires_grad=True)
               for _ in range(4)]
    biases = [Tensor(rng.normal(size=d), requires_grad=True) for _ in range(4)]

    def run(op):
        emb = ad.mlp((x,), embed[:1], embed[1:])
        y = op(emb, heads, weights, biases)
        return ad.add(emb, y) if residual else y

    return x, embed, weights, biases, run


def _check_layer_weights(attn, x):
    """The layer's attention weights for ``x`` match each head's taped softmax."""
    d_head = attn.d_model // attn.heads
    q, k = attn.w_q(x), attn.w_k(x)
    for h, w in enumerate(attn.attention_weights(x)):
        cols = (Ellipsis, slice(h * d_head, (h + 1) * d_head))
        scores = ad.scale(ad.matmul(q[cols], unfused_transpose(k[cols])),
                          1.0 / math.sqrt(d_head))
        assert _same_bytes(w, unfused_softmax(scores).data)


@pytest.fixture
def share_count(monkeypatch):
    """Sets how many shares attention cuts its units into. Each count gets a
    pool of its own, shut down when the next count is set or the test ends."""
    original = ad._POOL

    def set_count(n):
        if ad._POOL not in (None, original):
            ad._POOL.shutdown()
        monkeypatch.setattr(ad, "_WORKERS", n)
        monkeypatch.setattr(ad, "_POOL", None)

    yield set_count
    if ad._POOL not in (None, original):
        ad._POOL.shutdown()


class TestAttention:
    @given(attention_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_unfused_chain(self, case):
        x, embed, weights, biases, run = _attention_tensors(case)
        fused, chain = run(ad.attention), run(unfused_attention)
        assert _same_bytes(fused.data, chain.data)
        tensors = [x, *embed, *weights, *biases]
        for a, b in zip(_grads(_weighted_sum(fused, case[-1]), tensors),
                        _grads(_weighted_sum(chain, case[-1]), tensors)):
            assert _same_bytes(a, b)

    @given(attention_cases())
    @settings(max_examples=15, deadline=None)
    def test_gradients_match_central_differences(self, case):
        x, embed, weights, biases, run = _attention_tensors(case)
        err = ad.grad_check(lambda: _weighted_sum(run(ad.attention), case[-1]),
                            [x, *embed, *weights, *biases], epsilon=EPS)
        assert err <= 1e-4

    def test_layer_weights_match_unfused_chain(self, rng):
        attn = MultiHeadSelfAttention(6, 3, rng)
        _check_layer_weights(attn, Tensor(rng.normal(size=(5, 6))))

    def test_matches_unfused_chain_across_tiles(self):
        """Batch axes (2, 4) at L=200: eight trajectories in score tiles of 3,
        3 and 2, with head widths that reach BLAS. The forward, the layer's
        attention weights and every gradient match the unfused chain."""
        assert ad._tiles(8, 200) == [slice(0, 3), slice(3, 6), slice(6, 8)]
        heads, d_head, seed = 4, 16, 5
        x, embed, weights, biases, run = _attention_tensors(
            ((2, 4), 200, heads, d_head, True, seed))
        fused, chain = run(ad.attention), run(unfused_attention)
        assert _same_bytes(fused.data, chain.data)
        tensors = [x, *embed, *weights, *biases]
        for a, b in zip(_grads(_weighted_sum(fused, seed), tensors),
                        _grads(_weighted_sum(chain, seed), tensors)):
            assert _same_bytes(a, b)
        attn = MultiHeadSelfAttention(heads * d_head, heads, np.random.default_rng(0))
        for layer, w, b in zip((attn.w_q, attn.w_k, attn.w_v, attn.w_o), weights, biases):
            layer.weight, layer.bias = w, b
        _check_layer_weights(attn, ad.mlp((x,), embed[:1], embed[1:]))

    def test_backward_transient_below_one_score_array(self):
        """Backward through one attention node at B=16, L=256 (two
        trajectories a tile) allocates less, beyond what is live before it,
        than one [B, L, L] float64 array."""
        batch, length, d = 16, 256, 16
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            x = Tensor(rng.normal(size=(batch, length, d)), requires_grad=True)
            weights = [Tensor(rng.normal(scale=0.3, size=(d, d)), requires_grad=True)
                       for _ in range(4)]
            biases = [Tensor(rng.normal(size=d), requires_grad=True) for _ in range(4)]
            loss = _weighted_sum(ad.attention(x, 4, weights, biases), 0)
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - live < batch * length * length * 8

    def test_backward_transient_below_six_input_arrays(self, share_count):
        """Backward through ``add(emb, attention(emb))`` at B=16, L=400,
        d=64, 4 heads and one share allocates, beyond what is live before it,
        at most six [B, L, d] float64 arrays: the VJP takes the joined-heads
        gradient one tile at a time and hands x's three input gradients to
        the sweep one at a time, dropping each of gq, gk and gv once its
        input gradient is made. Measured: 5.0 arrays; 8.2 with the whole
        joined-heads gradient and the three input gradients held at once."""
        batch, length, d = 16, 400, 64
        share_count(1)
        rng = np.random.default_rng(0)
        emb = Tensor(rng.normal(size=(batch, length, d)), requires_grad=True)
        weights = [Tensor(rng.normal(scale=0.3, size=(d, d)), requires_grad=True)
                   for _ in range(4)]
        biases = [Tensor(rng.normal(size=d), requires_grad=True) for _ in range(4)]
        tracemalloc.start()
        try:
            loss = _weighted_sum(ad.add(emb, ad.attention(emb, 4, weights, biases)), 0)
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - live <= 6 * batch * length * d * 8

    def test_forward_keeps_no_score_array_across_tiles(self):
        """One attention forward at B=16, L=256 (two trajectories a tile)
        leaves less alive, beyond its inputs, than one [B, L, L] float64
        array: with more than one tile, no head's softmax weights are kept."""
        batch, length, d = 16, 256, 16
        assert len(ad._tiles(batch, length)) == 8
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(batch, length, d)), requires_grad=True)
        weights = [Tensor(rng.normal(scale=0.3, size=(d, d)), requires_grad=True)
                   for _ in range(4)]
        biases = [Tensor(rng.normal(size=d), requires_grad=True) for _ in range(4)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.attention(x, 4, weights, biases)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert live < batch * length * length * 8

    @pytest.mark.parametrize("batch,length,tiles", [(3, 50, 1), (3, 400, 3), (16, 256, 8)])
    def test_vjp_recomputes_weights_once_per_unit_across_tiles(self, monkeypatch, share_count,
                                                               batch, length, tiles):
        """The VJP recomputes the softmax weights one (tile, head) unit at a
        time, each once, whether the batch is one tile or more: the forward
        keeps none. With 1, 2 or 3 workers, each thread's calls are one
        contiguous, in-order run of the units; the caller's is first, and
        the runs in order are the units."""
        heads, d = 2, 8
        assert len(ad._tiles(batch, length)) == tiles
        x, _, weights, biases, run = _attention_tensors(((batch,), length, heads,
                                                         d // heads, False, 3))
        loss = _weighted_sum(run(ad.attention), 3)
        units = [(t.start, t.stop, h * (d // heads)) for t in ad._tiles(batch, length)
                 for h in range(heads)]
        calls = []
        head_weights = ad._head_weights

        def counted(q3, k3, cols, out):
            unit = (cols[0].start, cols[0].stop, cols[2].start)
            calls.append((threading.get_ident(), unit))
            return head_weights(q3, k3, cols, out)

        monkeypatch.setattr(ad, "_head_weights", counted)
        for workers in (1, 2, 3):
            share_count(workers)
            calls.clear()
            ad.backward(loss)
            assert sorted(unit for _, unit in calls) == sorted(units)  # each unit once
            runs = {}
            for thread, unit in calls:
                runs.setdefault(thread, []).append(unit)
            assert len(runs) <= min(workers, len(units))
            assert all(units[units.index(r[0]):units.index(r[0]) + len(r)] == r
                       for r in runs.values())
            assert runs[threading.get_ident()][0] == units[0]
            assert sum(sorted(runs.values(), key=lambda r: units.index(r[0])), []) == units

    def test_same_bytes_for_any_worker_count(self, share_count):
        """At B=16, L=256 (8 tiles, 16 units), the forward, the input's
        gradient and every weight and bias gradient have the same bytes with
        1, 2, 3 or 8 workers, each count with a pool of its own size, and
        threads switched as often as the interpreter allows."""
        heads, d_head, seed = 4, 4, 7
        x, embed, weights, biases, run = _attention_tensors(
            ((16,), 256, heads, d_head, True, seed))
        tensors = [x, *embed, *weights, *biases]
        results = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 8):
                share_count(workers)
                y = run(ad.attention)
                results.append([y.data, *_grads(_weighted_sum(y, seed), tensors)])
        finally:
            sys.setswitchinterval(switch)
        for other in results[1:]:
            assert all(_same_bytes(a, b) for a, b in zip(results[0], other))

    def test_worker_error_reaches_caller(self, monkeypatch, share_count):
        """An error in a pool thread's share of the forward or the VJP is
        raised by the call, and the next attention call still runs."""
        x, _, weights, biases, run = _attention_tensors(((4,), 256, 2, 4, False, 1))
        expected = run(ad.attention).data
        loss = _weighted_sum(run(ad.attention), 1)
        share_count(2)
        head_weights, threads = ad._head_weights, []

        def failing(q3, k3, cols, out):
            if cols[0].stop == 4:  # a unit of the last tile: the pool's share
                threads.append(threading.get_ident())
                raise RuntimeError("unit failed")
            return head_weights(q3, k3, cols, out)

        monkeypatch.setattr(ad, "_head_weights", failing)
        with pytest.raises(RuntimeError, match="unit failed"):
            run(ad.attention)
        with pytest.raises(RuntimeError, match="unit failed"):
            ad.backward(loss)
        assert threads and threading.get_ident() not in threads
        monkeypatch.setattr(ad, "_head_weights", head_weights)
        assert _same_bytes(run(ad.attention).data, expected)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_attention(self, share_count):
        """A child forked after the pool has run holds none of its threads;
        its attention calls make a pool of their own."""
        share_count(2)
        x, _, weights, biases, run = _attention_tensors(((4,), 256, 2, 4, False, 2))
        expected = run(ad.attention).data
        assert ad._POOL is not None
        ctx = multiprocessing.get_context("fork")
        result = ctx.Queue()
        child = ctx.Process(target=lambda: result.put(run(ad.attention).data.tobytes()))
        child.start()
        try:
            assert result.get(timeout=60) == expected.tobytes()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()

    @pytest.mark.parametrize("cpus,blas,shares", [
        (1, "1", 1), (2, "1", 2), (2, "2", 1), (2, None, 1), (4, "2", 2), (64, "1", 2),
        (64, "0", 1), (64, "x", 1)])
    def test_share_count(self, monkeypatch, cpus, blas, shares):
        """One share per CPU that BLAS's threads leave free, at least one
        and at most ``_MAX_SHARES``; BLAS takes every CPU unless a thread
        variable holds a positive count."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        for var in ad.THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        if blas is not None:
            monkeypatch.setenv("OMP_NUM_THREADS", blas)
        assert ad._share_count() == shares

    def test_backward_transient_bound_on_many_cpus(self, monkeypatch, share_count):
        """With 64 usable CPUs and one BLAS thread, attention cuts its units
        into ``_MAX_SHARES`` shares, and the backward's transient stays below
        one [B, L, L] array at B=16, L=256, as with one share."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        for var in ad.THREAD_VARS:
            monkeypatch.setenv(var, "1")
        assert ad._share_count() == ad._MAX_SHARES == 2
        share_count(ad._share_count())
        self.test_backward_transient_below_one_score_array()

    def test_imports_without_affinity_or_fork_hooks(self):
        """Where ``os`` has no ``sched_getaffinity`` or ``register_at_fork``
        (macOS, Windows), the module imports and counts CPUs by
        ``os.cpu_count``."""
        code = ("import os\n"
                "for name in ('sched_getaffinity', 'register_at_fork'):\n"
                "    if hasattr(os, name):\n"
                "        delattr(os, name)\n"
                "os.cpu_count = lambda: 64\n"
                "os.environ['OMP_NUM_THREADS'] = '1'\n"
                "from hydroforecast import autodiff\n"
                "print(autodiff._WORKERS)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(ad.__file__)))
        env = {k: v for k, v in os.environ.items() if k not in ad.THREAD_VARS}
        env["PYTHONPATH"] = src
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [str(ad._MAX_SHARES)]

    def test_shape_errors(self, rng):
        attn = MultiHeadSelfAttention(4, 2, rng)
        for shape in [(3, 5), (4,), (2, 3, 3)]:
            with pytest.raises(ShapeError):
                attn(Tensor(np.zeros(shape)))
            with pytest.raises(ShapeError):
                attn.attention_weights(Tensor(np.zeros(shape)))
        weights, biases = attn._projections()
        with pytest.raises(ShapeError):  # 4 columns do not split into 3 heads
            ad.attention(Tensor(np.zeros((3, 4))), 3, weights, biases)
        with pytest.raises(ShapeError):  # no output projection
            ad.attention(Tensor(np.zeros((3, 4))), 2, weights[:3], biases[:3])

    def test_no_tape_without_gradients(self, rng):
        weights = [Tensor(rng.normal(size=(4, 4))) for _ in range(4)]
        biases = [Tensor(np.zeros(4)) for _ in range(4)]
        out = ad.attention(Tensor(rng.normal(size=(2, 3, 4))), 2, weights, biases)
        assert out.shape == (2, 3, 4) and out._vjp is None and not out.requires_grad
        assert out._parents == ()


# ---- lstm_layer ---------------------------------------------------------------


@st.composite
def lstm_cases(draw):
    """Batch axes (none for a 2-d sequence), steps, input and hidden widths."""
    return (draw(lead_axes), draw(st.integers(1, 4)), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)), draw(seeds))


def _lstm_tensors(case):
    batch, steps, n_in, hid, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=batch + (steps, n_in)), requires_grad=True)
    w = Tensor(rng.normal(scale=0.7, size=(n_in + hid, 4 * hid)), requires_grad=True)
    b = Tensor(rng.normal(size=4 * hid), requires_grad=True)
    return x, w, b, seed


class TestLSTMLayer:
    @given(lstm_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_unfused_chain(self, case):
        x, w, b, seed = _lstm_tensors(case)
        fused = ad.lstm_layer(x, w, b)
        chain = unfused_lstm_layer(x, w, b)
        assert _same_bytes(fused.data, chain.data)
        assert fused.op == "lstm_layer" and _non_leaf(fused) == 1
        # weight gradients sum per-step terms as 2-d matmuls, which may round
        # differently from the chain's batched ones on more than one batch axis
        for a, c in zip(_grads(_weighted_sum(fused, seed), [x, w, b]),
                        _grads(_weighted_sum(chain, seed), [x, w, b])):
            assert np.allclose(a, c, rtol=1e-12, atol=1e-13)

    @given(lstm_cases())
    @settings(max_examples=25, deadline=None)
    def test_gradients_match_central_differences(self, case):
        x, w, b, seed = _lstm_tensors(case)
        err = ad.grad_check(lambda: _weighted_sum(ad.lstm_layer(x, w, b), seed), [x, w, b],
                            epsilon=EPS)
        assert err < TOL

    def test_shape_errors(self):
        w, b = Tensor(np.zeros((5, 8))), Tensor(np.zeros(8))
        for shape in [(4, 2), (3,), (2, 4, 4)]:
            with pytest.raises(ShapeError):
                ad.lstm_layer(Tensor(np.zeros(shape)), w, b)
        with pytest.raises(ShapeError):
            ad.lstm_layer(Tensor(np.zeros((4, 3))), w, Tensor(np.zeros(4)))


# ---- solver nodes -------------------------------------------------------------


@st.composite
def state_cases(draw):
    """Leading axes (none for a 1-d state), state width, step size, states."""
    return (draw(lead_axes), draw(st.integers(1, 4)),
            draw(st.floats(1e-3, 0.5, allow_nan=False)), draw(st.integers(1, 4)),
            draw(seeds))


def _states(case, count):
    lead, f, _, _, seed = case
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=lead + (f,)), requires_grad=True) for _ in range(count)]


class TestSolverNodes:
    @given(state_cases())
    @settings(max_examples=30, deadline=None)
    def test_axpy(self, case):
        h, seed = case[2], case[4]
        state, k = _states(case, 2)
        fused, chain = odeint._axpy(state, k, h), unfused_axpy(state, k, h)
        self._check(fused, chain, [state, k], seed,
                    lambda: _weighted_sum(odeint._axpy(state, k, h), seed))

    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    @given(case=state_cases())
    @settings(max_examples=30, deadline=None)
    def test_update(self, solver, case):
        dt, seed = case[2], case[4]
        stages = len(odeint._STAGES[solver]) + 1
        state, *ks = _states(case, 1 + stages)
        fused = odeint._update_node(solver, state, ks, dt)
        chain = unfused_update(solver, state, ks, dt)
        self._check(fused, chain, [state, *ks], seed,
                    lambda: _weighted_sum(odeint._update_node(solver, state, ks, dt), seed))

    @given(state_cases())
    @settings(max_examples=30, deadline=None)
    def test_stack(self, case):
        seed = case[4]
        states = _states(case, case[3])
        fused, chain = odeint._stack_states(states), unfused_stack(states)
        self._check(fused, chain, states, seed,
                    lambda: _weighted_sum(odeint._stack_states(states), seed))

    @staticmethod
    def _check(fused, chain, inputs, seed, loss_fn):
        assert _same_bytes(fused.data, chain.data)
        assert _non_leaf(fused) == 1
        for a, b in zip(_grads(_weighted_sum(fused, seed), inputs),
                        _grads(_weighted_sum(chain, seed), inputs)):
            assert _same_bytes(a, b)
        assert ad.grad_check(loss_fn, inputs, epsilon=EPS) < TOL

    def test_kernel_output_shape_checked(self):
        state = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            odeint._axpy(state, Tensor(np.zeros((2, 2))), 0.1)
        with pytest.raises(ShapeError):
            odeint._update_node("rk4", state, [state, state, state, Tensor(np.zeros(3))], 0.1)


# ---- the whole solve ------------------------------------------------------------


@st.composite
def solve_cases(draw):
    """Solver, leading axes (none for a 1-d state), state and control widths,
    hidden widths, steps, t0, dt, whether F0 and the controls require a
    gradient, and a seed."""
    return (draw(st.sampled_from(["euler", "rk4"])), draw(st.sampled_from([(), (2,), (2, 3)])),
            draw(st.integers(1, 3)), draw(st.integers(1, 3)),
            draw(st.lists(st.integers(1, 4), max_size=2)), draw(st.integers(1, 4)),
            draw(st.floats(-1.0, 1.0, allow_nan=False)),
            draw(st.floats(1e-3, 0.5, allow_nan=False)), draw(st.booleans()),
            draw(st.booleans()), draw(seeds))


def _solve_inputs(case, grads=None):
    """F0, controls, the MLP, its ``MLPKernel`` and an independent plain
    closure over the same MLP; ``grads`` overrides the drawn requires_grad."""
    solver, lead, f, latent, hidden, steps, t0, dt, f0_grad, c_grad, seed = case
    if grads is not None:
        f0_grad = c_grad = grads
    rng = np.random.default_rng(seed)
    block = MLPBlock([f + latent, *hidden, f], rng)
    kernel = MLPKernel([layer.weight for layer in block.layers],
                       [layer.bias for layer in block.layers])

    def closure(state, control, t):
        return block(state, control)

    f0 = Tensor(rng.normal(size=lead + (f,)), requires_grad=f0_grad)
    controls = Tensor(rng.normal(size=lead + (steps, latent)), requires_grad=c_grad)
    return f0, controls, block, kernel, closure, TimeGrid(t0, dt, steps)


def _task2_solve(length: int):
    """A Task 2-shaped RK4 solve (B=16, f=6, latent 64, three hidden layers
    of 64) over ``length`` steps, with a gradient to its controls: F0, the
    kernel, the controls and the grid."""
    batch, f, latent = 16, 6, 64
    rng = np.random.default_rng(0)
    block = MLPBlock([f + latent, 64, 64, 64, f], rng)
    kernel = MLPKernel([layer.weight for layer in block.layers],
                       [layer.bias for layer in block.layers])
    f0 = Tensor(rng.normal(size=(batch, f)))
    controls = Tensor(rng.normal(size=(batch, length, latent)), requires_grad=True)
    return f0, kernel, controls, TimeGrid(0.0, 0.02, length)


def _task2_solve_growth() -> int:
    """Live bytes that the ``_task2_solve`` solve at L=400 adds."""
    f0, kernel, controls, grid = _task2_solve(400)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = odeint.integrate("rk4", f0, kernel, grid, controls)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.op == "solve"
    return live


def _task2_backward_peak(length: int) -> int:
    """Peak traced bytes that backward through the ``_task2_solve`` solve
    over ``length`` steps allocates."""
    f0, kernel, controls, grid = _task2_solve(length)
    loss = ad.reduce_sum(odeint.integrate("rk4", f0, kernel, grid, controls))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ad.backward(loss)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestSolve:
    @given(solve_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_taped_solve(self, case):
        solver, seed = case[0], case[-1]
        f0, controls, block, kernel, closure, grid = _solve_inputs(case)
        fused = odeint.integrate(solver, f0, kernel, grid, controls)
        taped = odeint.integrate(solver, f0, closure, grid, controls)
        assert _same_bytes(fused.data, taped.data)
        assert fused.op == "solve" and _non_leaf(fused) == 1
        tensors = [f0, controls, *(t for _, t in block.named_parameters())]
        for a, b in zip(_grads(_weighted_sum(fused, seed), tensors),
                        _grads(_weighted_sum(taped, seed), tensors)):
            assert _same_bytes(a, b)

    @pytest.mark.parametrize("solver,steps", [("euler", 64), ("euler", 65), ("euler", 129),
                                              ("rk4", 16), ("rk4", 17), ("rk4", 33)])
    @pytest.mark.parametrize("lead,f", [((), 2), ((1,), 3), ((2, 3), 2), ((9,), 1)])
    @pytest.mark.parametrize("f0_grad,c_grad", [(False, False), (True, False), (False, True),
                                                (True, True)])
    def test_matches_taped_solve_across_blocks(self, solver, steps, lead, f, f0_grad, c_grad):
        """Solves that fill one VJP block of 64 evaluations exactly, spill
        one step into a second, or one into a third give the taped path's
        trajectory and gradients byte for byte."""
        seed = steps * 10 + f
        case = (solver, lead, f, 3, [4, 1], steps, 0.0, 0.05, f0_grad, c_grad, seed)
        f0, controls, block, kernel, closure, grid = _solve_inputs(case)
        fused = odeint.integrate(solver, f0, kernel, grid, controls)
        taped = odeint.integrate(solver, f0, closure, grid, controls)
        assert _same_bytes(fused.data, taped.data)
        tensors = [f0, controls, *(t for _, t in block.named_parameters())]
        for a, b in zip(_grads(_weighted_sum(fused, seed), tensors),
                        _grads(_weighted_sum(taped, seed), tensors)):
            assert _same_bytes(a, b)

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_signed_zero_gradients_match_taped_solve(self, lead):
        """A -0.0 output gradient through one Euler step reaches the last
        bias gradient as -0.0 for a 1-d state, which no sum may turn into
        0.0; both paths give the same bytes."""
        case = ("euler", lead, 2, 3, [4], 1, 0.0, 0.05, True, True, 5)
        f0, controls, block, kernel, closure, grid = _solve_inputs(case)
        tensors = [f0, controls, *(t for _, t in block.named_parameters())]
        grads = []
        for k in (kernel, closure):
            out = odeint.integrate("euler", f0, k, grid, controls)
            for t in tensors:
                t.zero_grad()
            ad.backward(out, seed=np.full(out.shape, -0.0))
            grads.append([t.grad.copy() for t in tensors])
        assert all(_same_bytes(a, b) for a, b in zip(*grads))
        assert np.signbit(grads[1][-1]).all() == (lead == ())

    @given(solve_cases())
    @settings(max_examples=15, deadline=None)
    def test_gradients_match_central_differences(self, case):
        solver, seed = case[0], case[-1]
        f0, controls, block, kernel, _, grid = _solve_inputs(case, grads=True)
        params = [f0, controls, *(t for _, t in block.named_parameters())]
        err = ad.grad_check(
            lambda: _weighted_sum(odeint.integrate(solver, f0, kernel, grid, controls), seed),
            params, epsilon=EPS)
        assert err <= 1e-4

    def test_no_tape_without_gradients(self, rng):
        kernel = MLPKernel([Tensor(rng.normal(size=(5, 2)))], [Tensor(np.zeros(2))])
        out = odeint.integrate("rk4", Tensor(np.ones(2)), kernel, TimeGrid(0.0, 0.1, 3),
                               Tensor(np.ones((3, 3))))
        assert out.shape == (3, 2) and out._vjp is None and not out.requires_grad

    def test_caches_hold_no_control_columns(self):
        """A Task 2-shaped RK4 solve (see ``_task2_solve``) keeps, per kernel
        evaluation, its stage state only, not the [state, control] row: less
        live growth than 1600 evaluations of 16 rows of 6 + 3 * 64 floats and
        half the 64 control columns, which the [state, control] rows would
        exceed. The VJP reads each step's control row from the controls."""
        batch, length, f, latent = 16, 400, 6, 64
        assert _task2_solve_growth() < 4 * length * batch * (f + 3 * 64 + latent // 2) * 8

    def test_forward_keeps_no_activations(self):
        """The same solve grows live memory by less than one hidden layer's
        activations across its 1600 evaluations (12.5 MiB): the VJP rebuilds
        each evaluation's activations from its stage state."""
        batch, length, hidden = 16, 400, 64
        assert _task2_solve_growth() < 4 * length * batch * hidden * 8

    @pytest.mark.parametrize("solver,stages", [("euler", 1), ("rk4", 4)])
    def test_vjp_recomputes_each_evaluation_once(self, monkeypatch, rng, solver, stages):
        """The VJP reruns the kernel in stacked blocks of at most ``BLOCK``
        evaluations (the leading axis of each ``_mlp_forward`` input), and
        the blocks cover every evaluation exactly once: 17 RK4 steps take
        two blocks."""
        steps = 17
        block = MLPBlock([2 + 3, 4, 4, 2], rng)
        kernel = MLPKernel([layer.weight for layer in block.layers],
                           [layer.bias for layer in block.layers])
        f0 = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        controls = Tensor(rng.normal(size=(2, steps, 3)), requires_grad=True)
        loss = ad.reduce_sum(odeint.integrate(solver, f0, kernel, TimeGrid(0.0, 0.1, steps),
                                              controls))
        evaluations = []
        forward = ad._mlp_forward
        monkeypatch.setattr(ad, "_mlp_forward",
                            lambda x, *args: evaluations.append(x.shape[0]) or forward(x, *args))
        ad.backward(loss)
        assert sum(evaluations) == stages * steps
        assert max(evaluations) <= odeint.BLOCK
        assert len(evaluations) == -(-stages * steps // odeint.BLOCK)

    def test_vjp_transient_is_one_block(self):
        """Backward through the ``_task2_solve`` solve peaks at L=800 above
        its peak at L=400 by at most the 400 extra rows of the control
        gradient (3.1 MiB) plus a 1 MiB margin: the VJP holds one block of 64
        evaluations' activations and gradients, whatever the horizon.
        Measured: 11.8 and 15.3 MiB, 0.3 MiB over the control rows, which the
        output gradient's extra rows account for. A block spanning the whole
        horizon reads 147 and 294 MiB."""
        batch, latent = 16, 64
        extra_control_rows = 400 * batch * latent * 8
        growth = _task2_backward_peak(800) - _task2_backward_peak(400)
        assert growth < extra_control_rows + 2 ** 20

    @pytest.mark.parametrize("solver", ["euler", "rk4"])
    def test_second_backward_gives_same_gradients(self, solver):
        case = (solver, (2,), 2, 3, [4, 4], 5, 0.0, 0.1, True, True, 7)
        f0, controls, block, kernel, _, grid = _solve_inputs(case)
        loss = _weighted_sum(odeint.integrate(solver, f0, kernel, grid, controls), 7)
        tensors = [f0, controls, *(t for _, t in block.named_parameters())]
        first, second = _grads(loss, tensors), _grads(loss, tensors)
        assert all(_same_bytes(a, b) for a, b in zip(first, second))

    @pytest.mark.parametrize("f0_shape,controls_shape,widths", [
        ((2, 2), (3, 4, 3), (2, 3)),  # leading axes differ
        ((2,), (2, 4, 3), (2, 3)),  # a 1-d state with batched controls
        ((2, 2), (2, 5, 3), (2, 3)),  # controls longer than the grid
        ((2, 2), (2, 4, 4), (2, 3)),  # a control width the kernel does not take
        ((2, 2), (2, 4, 3), (3, 3)),  # a kernel output wider than the state
    ])
    def test_shape_errors(self, rng, f0_shape, controls_shape, widths):
        f, latent = widths
        block = MLPBlock([2 + latent, 4, f], rng)
        kernel = MLPKernel([layer.weight for layer in block.layers],
                           [layer.bias for layer in block.layers])
        f0, controls = Tensor(np.zeros(f0_shape)), Tensor(np.zeros(controls_shape))
        for k in (kernel, lambda s, c, t: block(s, c)):  # fused, then taped
            for solver in ("euler", "rk4"):
                with pytest.raises(ShapeError):
                    odeint.integrate(solver, f0, k, TimeGrid(0.0, 0.1, 4), controls)


# ---- tape budget ---------------------------------------------------------------


class TestTapeBudget:
    @pytest.mark.parametrize("solver,per_step", [("euler", 3), ("rk4", 9)])
    def test_forecast_nodes_per_step(self, solver, per_step):
        """A Task-2-shaped attention forecast: an encoder whose size does not
        depend on L, then at most 16 nodes whatever L is (the solve, kernel
        parameters, F0 and output scaling). The same kernel called through a
        plain closure is taped step by step, at most ``per_step`` nodes a
        step plus the stack."""
        extra = {}
        for length in (40, 80):
            ds = generate("2", seed=0, num_trajectories=1, length=length)
            x, _, f0 = ds.stack()
            model = build_model(ModelConfig(encoder="attention", solver=solver, n_in=ds.n,
                                            f_out=ds.f, dt=ds.dt))
            forecast = len(_tape(model.predict_forces(Tensor(x), Tensor(f0))))
            extra[length] = forecast - len(_tape(model.encode_conditions(Tensor(x))))
            assert extra[length] <= 16
            controls = Tensor(model.encode_conditions(Tensor(x)).data, requires_grad=True)
            taped = odeint.integrate(solver, Tensor(f0), lambda s, c, t: model.kernel(s, c, t),
                                     TimeGrid(0.0, ds.dt, length), controls)
            assert _non_leaf(taped) <= per_step * length + 1
        assert extra[80] == extra[40]

    def test_attention_layer_one_node(self, rng):
        attn = MultiHeadSelfAttention(8, 4, rng)
        for shape in [(6, 8), (2, 6, 8)]:
            out = attn(Tensor(rng.normal(size=shape)))
            assert out.op == "attention" and _non_leaf(out) == 1

    def test_lstm_stack_one_node_per_layer(self, rng):
        for layers in (1, 3):
            lstm = LSTMStack(4, 5, rng, num_layers=layers)
            for shape in [(6, 4), (2, 6, 4)]:
                assert _non_leaf(lstm(Tensor(rng.normal(size=shape)))) == layers
