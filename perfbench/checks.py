"""Correctness checks run outside the timed phase.

Every check compares the program against a computation made here, apart
from the program, or against a property the method must have; none compares
against stored output. Each check has a negative control that feeds the
same comparison a perturbed weight or datum and must be rejected, which
shows the check can fail.
"""

from __future__ import annotations

import copy
import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np


class Ledger:
    """Operations attempted and failed, and the outcome of every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.errors: list[str] = []

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def op(self, fn, *args, **kwargs):
        """Run one operation; an exception counts it failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # a failed operation is counted, the run goes on
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', 'op')}: {type(e).__name__}: {e}")
            return None

    def check(self, name: str, error_fn, tol: float, negative: bool = False) -> None:
        """``error_fn()`` must be <= tol, or > tol for a negative control."""
        err = self.op(error_fn)
        if err is None:
            return
        ok = (err > tol) if negative else (err <= tol)
        self.checks.append({"name": name + (" [negative control]" if negative else ""),
                            "ok": bool(ok), "error": float(err), "tol": tol})


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return math.inf
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def bits_differ(a, b) -> float:
    """Count of elements whose dtype, shape or bytes differ (0 = bit-exact)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return math.inf
    av = a.reshape(-1).view(np.uint8).reshape(a.size, -1)
    bv = b.reshape(-1).view(np.uint8).reshape(b.size, -1)
    return float(np.count_nonzero(np.any(av != bv, axis=1)))


def flip_low_bit(a: np.ndarray) -> np.ndarray:
    """A copy of a float64 array with the lowest bit of its first element flipped."""
    out = np.array(a, dtype=np.float64, copy=True)
    out.reshape(-1).view(np.uint64)[0] ^= 1
    return out


# ---- dataset and checkpoint round trips ----------------------------------


RECORD_FIELDS = ("times", "conditions", "forces", "f0", "condition_ids")


def dataset_diff(a, b) -> float:
    """Elements that differ between two datasets' records (0 = bit-exact)."""
    if a.num_trajectories != b.num_trajectories:
        return math.inf
    total = 0.0
    for ra, rb in zip(a.records, b.records):
        total += sum(bits_differ(getattr(ra, f), getattr(rb, f)) for f in RECORD_FIELDS)
        total += float(ra.direction != rb.direction)
    return total


def with_flipped_bit(model):
    """A copy of ``model`` with one bit of its first parameter flipped."""
    out = copy.deepcopy(model)
    first = out.params.names()[0]
    out.params[first].data = flip_low_bit(out.params[first].data)
    return out


def params_diff(model_a, model_b) -> float:
    if model_a.params.names() != model_b.params.names():
        return math.inf
    total = sum(bits_differ(t.data, model_b.params[n].data) for n, t in model_a.params.items())
    for field in ("x_mean", "x_std", "f_scale"):
        total += bits_differ(getattr(model_a, field), getattr(model_b, field))
    return total + float(model_a.config != model_b.config)


# ---- first-order sensor lag in Task 1.2 data ------------------------------


def sensor_lag_spread(ds) -> float:
    """Largest spread of F[k+1] - exp(-dt/tau) F[k] within a constant-condition
    segment, relative to the largest force. The oracle relaxes the sensor
    toward a held steady wrench with time constant tau, so inside a segment
    the difference is constant up to the solver's truncation error."""
    r = math.exp(-ds.dt / ds.oracle.tau_relax)
    scale = max(float(np.max(np.abs(rec.forces))) for rec in ds.records)
    worst = 0.0
    for rec in ds.records:
        resid = rec.forces[1:] - r * rec.forces[:-1]
        same = rec.condition_ids[1:] == rec.condition_ids[:-1]
        seg = np.cumsum(np.concatenate([[0], ~same[:-1]]))  # segment of each pair
        for s in np.unique(seg[same]):
            block = resid[same & (seg == s)]
            worst = max(worst, float(np.max(block.max(axis=0) - block.min(axis=0))))
    return worst / scale


# ---- finite differences ---------------------------------------------------


def pick_entries(grads: dict[str, np.ndarray], names, rng) -> list[tuple[str, int]]:
    """One seeded entry per named parameter, among entries whose gradient is
    at least 1% of that parameter's largest, so round-off cannot hide it."""
    out = []
    for name in names:
        g = np.abs(grads[name]).reshape(-1)
        big = np.flatnonzero(g >= 0.01 * g.max())
        out.append((name, int(rng.choice(big))))
    return out


def central_difference(loss_fn, tensor, index: int, h: float) -> float:
    pos = np.unravel_index(index, tensor.shape)
    orig = tensor.data[pos]
    try:
        tensor.data[pos] = orig + h
        up = loss_fn()
        tensor.data[pos] = orig - h
        down = loss_fn()
    finally:
        tensor.data[pos] = orig
    return (up - down) / (2.0 * h)


# ---- plain-numpy forecast from a checkpoint file --------------------------


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and tensors of a checkpoint, read by a parser of its own."""
    raw = Path(path).read_bytes()
    body = raw[:-4]
    if zlib.crc32(body) & 0xFFFFFFFF != struct.unpack("<I", raw[-4:])[0]:
        raise ValueError("checkpoint CRC mismatch")
    if body[:8] != b"HYDROFC\x01" or struct.unpack_from("<I", body, 8)[0] != 1:
        raise ValueError("not a version-1 checkpoint")
    (hlen,) = struct.unpack_from("<Q", body, 12)
    pos = 20 + hlen
    header = json.loads(body[20:pos])
    tensors = {}
    while pos < len(body):
        (nlen,) = struct.unpack_from("<I", body, pos)
        name = body[pos + 4:pos + 4 + nlen].decode()
        pos += 4 + nlen
        (ndim,) = struct.unpack_from("<I", body, pos)
        shape = struct.unpack_from(f"<{ndim}Q", body, pos + 4)
        pos += 4 + 8 * ndim
        count = int(np.prod(shape, dtype=np.int64))
        tensors[name] = np.frombuffer(body, "<f8", count, pos).reshape(shape).copy()
        pos += 8 * count
    return header, tensors


def nudge_first(weights: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A copy of checkpoint weights with the first entry of the first tensor
    scaled by 1.001."""
    out = dict(weights)
    first = next(iter(weights))
    out[first] = weights[first].copy()
    out[first].reshape(-1)[0] *= 1.001
    return out


def _mlp(x, w, prefix):
    depth = sum(1 for k in w if k.startswith(prefix + ".") and k.endswith(".weight"))
    for i in range(depth):
        x = x @ w[f"{prefix}.layer{i}.weight"] + w[f"{prefix}.layer{i}.bias"]
        if i < depth - 1:
            x = np.tanh(x)
    return x


def _linear(x, w, prefix):
    return x @ w[f"{prefix}.weight"] + w[f"{prefix}.bias"]


def _softmax(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference_forecast(header: dict, w: dict[str, np.ndarray], x: np.ndarray,
                       f0: np.ndarray) -> np.ndarray:
    """Forecast [L, f] for one trajectory x [L, n], F0 [f], in plain numpy."""
    cfg, norm = header["config"], header["normalizer"]
    if cfg["positional_encoding"] or cfg["causal_attention"] or cfg["time_input"]:
        raise ValueError("reference covers the default encoder and kernel only")
    x_mean, x_std = np.asarray(norm["x_mean"]), np.asarray(norm["x_std"])
    f_scale = np.asarray(norm["f_scale"])
    xn = (x - x_mean) / x_std
    s = f0 / f_scale
    if cfg["encoder"] == "lstm-baseline":
        seq = np.concatenate([xn, np.tile(s, (len(x), 1))], axis=1)
        hid = cfg["lstm_hidden"]
        for layer in range(cfg["lstm_layers"]):
            h, c = np.zeros(hid), np.zeros(hid)
            outs = []
            for x_t in seq:
                z = np.concatenate([x_t, h]) @ w[f"lstm.layer{layer}.weight"] \
                    + w[f"lstm.layer{layer}.bias"]
                i, f, g, o = (z[k * hid:(k + 1) * hid] for k in range(4))
                c = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
                h = _sigmoid(o) * np.tanh(c)
                outs.append(h)
            seq = np.stack(outs)
        return _linear(seq, w, "proj") * f_scale
    if cfg["encoder"] == "mlp":
        controls = _mlp(xn, w, "enc_mlp")
    else:
        emb = _linear(xn, w, "embed")
        q, k, v = (_linear(emb, w, f"attn.{p}") for p in ("w_q", "w_k", "w_v"))
        dh = cfg["d_model"] // cfg["heads"]
        heads = [_softmax(q[:, j * dh:(j + 1) * dh] @ k[:, j * dh:(j + 1) * dh].T
                          / math.sqrt(dh)) @ v[:, j * dh:(j + 1) * dh]
                 for j in range(cfg["heads"])]
        ctx = emb + _linear(np.concatenate(heads, axis=1), w, "attn.w_o")
        controls = _mlp(ctx, w, "enc_head")

    def field(state, c):
        return _mlp(np.concatenate([state, c]), w, "kernel")

    dt = cfg["dt"]
    out = []
    for c in controls:
        if cfg["solver"] == "euler":
            s = s + dt * field(s, c)
        else:
            k1 = field(s, c)
            k2 = field(s + 0.5 * dt * k1, c)
            k3 = field(s + 0.5 * dt * k2, c)
            k4 = field(s + dt * k3, c)
            s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(s)
    return np.stack(out) * f_scale
