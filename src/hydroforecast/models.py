"""Forecasting models: Attention-ODE, MLP-ODE, and the LSTM baseline.

Each model maps a kinematic condition sequence plus a true initial force to
a predicted force trajectory of the same length. ODE variants encode the
conditions into per-step latent controls and integrate a learned vector
field, an ``odeint.MLPKernel`` on ``[state, control]``, from F0, so the
whole solve is one tape node; the LSTM baseline sees F0 concatenated onto
every input row. The attention encoder is unmasked self-attention with no
positional encoding: time order enters through the solve, which reads step
i's control at step i.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .fileio import atomic_write
from .layers import (LSTMStack, LinearLayer, MLPBlock, MultiHeadSelfAttention,
                     ParamRegistry, collect_params)
from .odeint import _STAGES, MLPKernel, TimeGrid, integrate

ENCODERS = ("attention", "mlp", "lstm-baseline")
SOLVERS = tuple(_STAGES)


@dataclass(frozen=True)
class ModelConfig:
    encoder: str = "attention"
    n_in: int = 4
    f_out: int = 2
    d_model: int = 64
    heads: int = 4
    latent: int = 64
    kernel_hidden: tuple[int, ...] = (64, 64, 64)
    solver: str = "euler"
    dt: float = 0.02
    lstm_hidden: int = 64
    lstm_layers: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.encoder not in ENCODERS:
            raise ValueError(f"encoder must be one of {ENCODERS}, got {self.encoder!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        for name in ("n_in", "f_out", "d_model", "heads", "latent", "lstm_hidden",
                     "lstm_layers"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Integral) and v > 0):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if not all(isinstance(w, numbers.Integral) and w > 0 for w in self.kernel_hidden):
            raise ValueError("kernel widths must be positive integers")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        object.__setattr__(self, "kernel_hidden", tuple(self.kernel_hidden))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["kernel_hidden"] = list(self.kernel_hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["kernel_hidden"] = tuple(d.get("kernel_hidden", (64, 64, 64)))
        return cls(**d)


class ForecastModel:
    def __init__(self, config: ModelConfig):
        self.config = config
        # input standardization and per-axis force scale; identity until
        # fit_normalizer is called, persisted with the checkpoint
        self.x_mean = np.zeros(config.n_in)
        self.x_std = np.ones(config.n_in)
        self.f_scale = np.ones(config.f_out)
        rng = np.random.default_rng(config.seed)
        components: list[tuple[str, object]] = []
        if config.encoder == "attention":
            self.embed = LinearLayer(config.n_in, config.d_model, rng)
            self.attn = MultiHeadSelfAttention(config.d_model, config.heads, rng)
            self.enc_head = MLPBlock([config.d_model, config.d_model, config.latent], rng)
            components += [("embed", self.embed), ("attn", self.attn),
                           ("enc_head", self.enc_head)]
        elif config.encoder == "mlp":
            self.enc_mlp = MLPBlock([config.n_in, config.d_model, config.d_model,
                                     config.latent], rng)
            components.append(("enc_mlp", self.enc_mlp))
        if config.encoder == "lstm-baseline":
            self.lstm = LSTMStack(config.n_in + config.f_out, config.lstm_hidden, rng,
                                  num_layers=config.lstm_layers)
            self.proj = LinearLayer(config.lstm_hidden, config.f_out, rng)
            components += [("lstm", self.lstm), ("proj", self.proj)]
        else:
            self.kernel_mlp = MLPBlock([config.f_out + config.latent, *config.kernel_hidden,
                                        config.f_out], rng)
            # zero final layer: a fresh model integrates the zero field, so
            # its prediction starts at exactly F0
            self.kernel_mlp.layers[-1].weight.data[:] = 0.0
            self.kernel_mlp.layers[-1].bias.data[:] = 0.0
            components.append(("kernel", self.kernel_mlp))
            self.kernel = MLPKernel([layer.weight for layer in self.kernel_mlp.layers],
                                    [layer.bias for layer in self.kernel_mlp.layers])
        self.params: ParamRegistry = collect_params(*components)

    # ---- normalization --------------------------------------------------

    def fit_normalizer(self, dataset) -> None:
        """Set input standardization and force scale from a training split."""
        x, forces, _ = dataset.stack()
        flat_x = x.reshape(-1, x.shape[-1])
        self.x_mean = flat_x.mean(axis=0)
        self.x_std = np.maximum(flat_x.std(axis=0), 1e-8)
        self.f_scale = np.maximum(forces.reshape(-1, forces.shape[-1]).std(axis=0), 1e-8)

    def _norm_x(self, x: Tensor) -> Tensor:
        centered = ad.sub(x, ad.expand(Tensor(self.x_mean), x.shape))
        return ad.mul(centered, ad.expand(Tensor(1.0 / self.x_std), x.shape))

    # ---- inference ------------------------------------------------------

    def encode_conditions(self, x: Tensor) -> Tensor:
        cfg = self.config
        if cfg.encoder == "lstm-baseline":
            raise ValueError("lstm-baseline has no condition encoder")
        if x.shape[-1] != cfg.n_in:
            raise ShapeError(f"condition dim {x.shape[-1]} != configured n_in {cfg.n_in}")
        x = self._norm_x(x)
        if cfg.encoder == "mlp":
            return self.enc_mlp(x)
        emb = self.embed(x)
        ctx = ad.add(emb, self.attn(emb))
        return self.enc_head(ctx)

    def predict_forces(self, x: Tensor, f0: Tensor, grid: TimeGrid | None = None) -> Tensor:
        """Forces [..., L, f_out] from raw conditions [..., L, n_in] and F0 [..., f_out]."""
        cfg = self.config
        x = x if isinstance(x, Tensor) else Tensor(x)
        f0 = f0 if isinstance(f0, Tensor) else Tensor(f0)
        if x.shape[-1] != cfg.n_in:
            raise ShapeError(f"condition dim {x.shape[-1]} != configured n_in {cfg.n_in}")
        if f0.shape[-1] != cfg.f_out:
            raise ShapeError(f"F0 dim {f0.shape[-1]} != configured f_out {cfg.f_out}")
        # forecast in per-axis normalised force space
        f0 = ad.mul(f0, ad.expand(Tensor(1.0 / self.f_scale), f0.shape))
        if cfg.encoder == "lstm-baseline":  # F0 is fed alongside every input row
            f0e = ad.expand(ad.reshape(f0, f0.shape[:-1] + (1, cfg.f_out)),
                            x.shape[:-1] + (cfg.f_out,))
            out = self.proj(self.lstm(ad.concat([self._norm_x(x), f0e], axis=-1)))
        else:
            n = x.shape[-2]
            if grid is None:
                grid = TimeGrid(0.0, cfg.dt, n)
            if grid.steps != n:
                raise ShapeError(f"grid steps {grid.steps} != condition length {n}")
            out = integrate(cfg.solver, f0, self.kernel, grid, self.encode_conditions(x))
        return ad.mul(out, ad.expand(Tensor(self.f_scale), out.shape))

    def num_params(self) -> int:
        return sum(t.size for t in self.params.tensors())


def build_model(config: ModelConfig) -> ForecastModel:
    return ForecastModel(config)


# ---- checkpoint persistence ---------------------------------------------
#
# Layout: 8-byte magic, u32 version, u64 header length + JSON config,
# then per tensor: u32 name length, name, u32 ndim, u64 dims, f64 LE data;
# trailing u32 CRC32 of everything before it.

CHECKPOINT_MAGIC = b"HYDROFC\x01"
CHECKPOINT_VERSION = 1


# Model switches this code no longer has. Version 1 headers keep them, always
# false, so saved bytes and readers of the header are unchanged.
RETIRED_CONFIG_KEYS = ("causal_attention", "positional_encoding", "time_input")


class CheckpointError(RuntimeError):
    """Corrupt, truncated, or incompatible checkpoint file."""


def checkpoint_save(model: ForecastModel, path) -> None:
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    header = json.dumps({
        "config": {**model.config.to_dict(), **dict.fromkeys(RETIRED_CONFIG_KEYS, False)},
        "normalizer": {"x_mean": model.x_mean.tolist(),
                       "x_std": model.x_std.tolist(),
                       "f_scale": model.f_scale.tolist()},
    }, sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<Q", len(header)))
    chunks.append(header)
    for name, tensor in model.params.items():
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", tensor.ndim))
        chunks.append(struct.pack(f"<{tensor.ndim}Q", *tensor.shape))
        chunks.append(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    body = b"".join(chunks)
    with atomic_write(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("truncated checkpoint file")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))


def _load_normalizer(model: ForecastModel, norm) -> None:
    """Set the model's normalizer from a checkpoint header, or raise
    CheckpointError unless every array has the model's width, every value is
    finite and both scales are positive."""
    widths = {"x_mean": model.config.n_in, "x_std": model.config.n_in,
              "f_scale": model.config.f_out}
    try:
        stats = {k: np.asarray(norm[k], dtype=np.float64) for k in widths}
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"invalid normalizer: {e!r}") from None
    for k, v in stats.items():
        if v.shape != (widths[k],):
            raise CheckpointError(f"normalizer {k} has shape {v.shape}, expected "
                                  f"({widths[k]},)")
        if not np.all(np.isfinite(v)):
            raise CheckpointError(f"normalizer {k} has non-finite values")
        if k != "x_mean" and not np.all(v > 0):
            raise CheckpointError(f"normalizer {k} has values <= 0")
    model.x_mean, model.x_std, model.f_scale = stats["x_mean"], stats["x_std"], stats["f_scale"]


def checkpoint_load(path) -> ForecastModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CHECKPOINT_MAGIC) + 8:
        raise CheckpointError("file too short to be a checkpoint")
    body, (crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CheckpointError("checksum mismatch (corrupt checkpoint)")
    r = _Reader(body)
    if r.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic bytes (not a checkpoint file)")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (hlen,) = r.unpack("<Q")
    try:
        header = json.loads(r.read(hlen).decode("utf-8"))
        config = dict(header["config"])
        for key in RETIRED_CONFIG_KEYS:
            if config.pop(key, False) is not False:
                raise CheckpointError(f"config sets {key}, which this version cannot build")
        model = build_model(ModelConfig.from_dict(config))
    except (ValueError, TypeError, KeyError, OverflowError) as e:
        raise CheckpointError(f"invalid config header: {e}") from None
    norm = header.get("normalizer")
    if norm:
        _load_normalizer(model, norm)
    loaded: set[str] = set()
    while r.pos < len(body):
        (nlen,) = r.unpack("<I")
        try:
            name = r.read(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("tensor name is not UTF-8") from None
        (ndim,) = r.unpack("<I")
        shape = r.unpack(f"<{ndim}Q")
        data = np.frombuffer(r.read(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if name not in model.params:
            raise CheckpointError(f"unexpected tensor {name!r} in checkpoint")
        if model.params[name].shape != tuple(shape):
            raise CheckpointError(f"tensor {name!r} shape {tuple(shape)} != "
                                  f"expected {model.params[name].shape}")
        if not np.all(np.isfinite(data)):
            raise CheckpointError(f"tensor {name!r} has non-finite values")
        model.params[name].data = np.array(data, dtype=np.float64)
        loaded.add(name)
    missing = set(model.params.names()) - loaded
    if missing:
        raise CheckpointError(f"missing tensors in checkpoint: {sorted(missing)}")
    return model
