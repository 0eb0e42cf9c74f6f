"""Neural building blocks: linear, MLP, multi-head self-attention, LSTM.

All layers operate on trailing dimensions, so any number of leading batch
dimensions is accepted. Parameters are created Xavier-uniform from a numpy
Generator and exposed through ``named_parameters`` for registry collection.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


class ParamRegistry:
    """Named map from dotted path to parameter Tensor, insertion-ordered."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> None:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = True
        self._params[name] = tensor

    def items(self):
        return self._params.items()

    def names(self):
        return list(self._params.keys())

    def tensors(self):
        return list(self._params.values())

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()


def collect_params(*components: tuple[str, "object"]) -> ParamRegistry:
    """Build a registry from (prefix, layer) pairs in deterministic order."""
    reg = ParamRegistry()
    for prefix, comp in components:
        for name, tensor in comp.named_parameters():
            reg.add(f"{prefix}.{name}", tensor)
    return reg


def xavier_uniform(fan_in: int, fan_out: int, shape, rng: np.random.Generator) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class LinearLayer:
    """``x @ weight + bias`` on the last axis: a one-layer ``autodiff.mlp`` node."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(f"LinearLayer dims must be positive, got {in_dim}->{out_dim}")
        self.weight = Tensor(xavier_uniform(in_dim, out_dim, (in_dim, out_dim), rng),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def named_parameters(self):
        yield "weight", self.weight
        yield "bias", self.bias

    def __call__(self, x: Tensor) -> Tensor:
        return ad.mlp((x,), (self.weight,), (self.bias,))


class MLPBlock:
    """Linear layers with tanh between them (none after the last).

    Called on one or more input parts, which are joined along the last axis;
    the whole block is one ``autodiff.mlp`` node.
    """

    def __init__(self, dims: list[int], rng: np.random.Generator):
        if len(dims) < 2:
            raise ValueError("MLPBlock needs at least input and output dims")
        self.layers = [LinearLayer(a, b, rng) for a, b in zip(dims[:-1], dims[1:])]

    def named_parameters(self):
        for i, layer in enumerate(self.layers):
            for name, t in layer.named_parameters():
                yield f"layer{i}.{name}", t

    def __call__(self, *parts: Tensor) -> Tensor:
        return ad.mlp(parts, [layer.weight for layer in self.layers],
                      [layer.bias for layer in self.layers])


class MultiHeadSelfAttention:
    """Scaled dot-product self-attention; Q, K and V come from the same input.

    The whole layer is one ``autodiff.attention`` node.
    """

    def __init__(self, d_model: int, heads: int, rng: np.random.Generator):
        if d_model % heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by heads {heads}")
        self.d_model = d_model
        self.heads = heads
        self.w_q = LinearLayer(d_model, d_model, rng)
        self.w_k = LinearLayer(d_model, d_model, rng)
        self.w_v = LinearLayer(d_model, d_model, rng)
        self.w_o = LinearLayer(d_model, d_model, rng)

    def named_parameters(self):
        for tag, layer in (("w_q", self.w_q), ("w_k", self.w_k),
                           ("w_v", self.w_v), ("w_o", self.w_o)):
            for name, t in layer.named_parameters():
                yield f"{tag}.{name}", t

    def _projections(self) -> tuple[list[Tensor], list[Tensor]]:
        """Weights and biases of the q, k, v and output projections."""
        layers = (self.w_q, self.w_k, self.w_v, self.w_o)
        return [layer.weight for layer in layers], [layer.bias for layer in layers]

    def __call__(self, x: Tensor) -> Tensor:
        return ad.attention(x, self.heads, *self._projections())

    def attention_weights(self, x: Tensor) -> np.ndarray:
        """Per-head softmax weights, stacked on a new leading axis (diagnostic)."""
        if x.ndim < 2 or x.shape[-1] != self.d_model:
            raise ShapeError(f"attention: input {x.shape} does not fit d_model {self.d_model}")
        weights, biases = self._projections()
        q, k = (ad._mlp_forward(x.data, [w.data], [b.data])[0]
                for w, b in zip(weights[:2], biases[:2]))
        d_head = self.d_model // self.heads
        return np.stack([ad._head_weights(q, k, np.s_[..., h * d_head:(h + 1) * d_head])
                         for h in range(self.heads)])


class LSTMStack:
    """Stacked LSTM; returns the top layer's hidden state at every step.

    Each layer is one ``autodiff.lstm_layer`` node over the whole sequence.

    Forget-gate biases start at 1 so early training does not flush the cell.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator,
                 num_layers: int = 2):
        if input_size <= 0 or hidden_size <= 0 or num_layers <= 0:
            raise ValueError("LSTMStack dims must be positive")
        self.num_layers = num_layers
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for layer in range(num_layers):
            in_dim = input_size if layer == 0 else hidden_size
            w = xavier_uniform(in_dim + hidden_size, 4 * hidden_size,
                               (in_dim + hidden_size, 4 * hidden_size), rng)
            b = np.zeros(4 * hidden_size)
            b[hidden_size:2 * hidden_size] = 1.0
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(b, requires_grad=True))

    def named_parameters(self):
        for i in range(self.num_layers):
            yield f"layer{i}.weight", self.weights[i]
            yield f"layer{i}.bias", self.biases[i]

    def __call__(self, x: Tensor) -> Tensor:
        for w, b in zip(self.weights, self.biases):
            x = ad.lstm_layer(x, w, b)
        return x
