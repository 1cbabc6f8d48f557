"""Parameterized layers: linear, conv, residual basic block, small MLP.

Weights use Kaiming-uniform initialization (bound sqrt(6/fan_in)) drawn
in float64 from a caller-supplied generator; biases start at zero. Every
layer is built in float64: the model that owns it decides its precision
and casts its parameters once. Blocks follow the pre-activation-free
ResNet basic-block shape without batch norm.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .tensor import Tensor


class Module:
    """Base class providing recursive, insertion-ordered parameter discovery."""

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                if value.requires_grad:
                    out.append((attr, value))
            elif isinstance(value, Module):
                out.extend((f"{attr}.{n}", p) for n, p in value.named_parameters())
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(
                            (f"{attr}.{i}.{n}", p) for n, p in item.named_parameters()
                        )
        return out

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                    fan_in: int) -> Tensor:
    bound = math.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class Linear(Module):
    """y = x Wᵀ + b with W: [out, in], b: [out]."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features = in_features
        self.out_features = out_features
        self.w = kaiming_uniform(rng, (out_features, in_features), in_features)
        self.b = Tensor(np.zeros(out_features), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise DimensionError(
                f"linear expects [B, {self.in_features}], got {x.shape}"
            )
        return x @ self.w.T + self.b


class Conv2d(Module):
    """3x3/1x1-style conv with bias, thin wrapper over the conv2d op.

    ``conv(x, residual=r, relu=True)`` is ``relu(conv(x) + b + r)`` as one
    graph node: the op adds the bias, the residual and the relu to each
    output chunk right after its GEMM.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, pad: int = 0):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        fan_in = in_channels * kernel_size * kernel_size
        self.w = kaiming_uniform(
            rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in
        )
        self.b = Tensor(np.zeros(out_channels), requires_grad=True)

    def __call__(self, x: Tensor, residual: Tensor | None = None, relu: bool = False) -> Tensor:
        return T.conv2d(x, self.w, stride=self.stride, pad=self.pad, bias=self.b,
                        residual=residual, relu=relu)


class ResidualBasicBlock(Module):
    """y = relu(conv2(relu(conv1(x))) + skip(x)).

    Both convs are 3x3; conv1 carries the stride. The skip path is the
    identity when shapes line up, otherwise a strided 1x1 projection.
    """

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator,
                 stride: int = 1):
        self.conv1 = Conv2d(in_channels, out_channels, 3, rng, stride=stride, pad=1)
        self.conv2 = Conv2d(out_channels, out_channels, 3, rng, stride=1, pad=1)
        self.proj = None
        if stride != 1 or in_channels != out_channels:
            self.proj = Conv2d(in_channels, out_channels, 1, rng, stride=stride, pad=0)

    def __call__(self, x: Tensor) -> Tensor:
        skip = x if self.proj is None else self.proj(x)
        return self.conv2(self.conv1(x, relu=True), residual=skip, relu=True)


class Mlp(Module):
    """Linear layers with relu between, no activation after the last."""

    def __init__(self, widths: list[int], rng: np.random.Generator):
        if len(widths) < 2:
            raise ContractError(f"mlp needs at least [in, out] widths, got {widths}")
        self.layers = [
            Linear(widths[i], widths[i + 1], rng) for i in range(len(widths) - 1)
        ]

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i + 1 < len(self.layers):
                x = T.relu(x)
        return x


def router_mlp(feature_width: int, num_experts: int, rng: np.random.Generator) -> Mlp:
    """Two-layer scoring MLP: d -> max(8, d//2) -> N."""
    hidden = max(8, feature_width // 2)
    return Mlp([feature_width, hidden, num_experts], rng)
