"""Adam with bias correction, plus a stepped learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericsError
from .tensor import Tensor


class Adam:
    """Adam over named parameters; updates Tensor data in place.

    m <- b1*m + (1-b1)*g          v <- b2*v + (1-b2)*g^2
    theta <- theta - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    A parameter whose grad is None is skipped for the step (its moment
    buffers stay put). A non-finite gradient aborts the step before it
    changes any parameter, moment or ``t``, naming the offending parameter.
    """

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        self.named_params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for _, p in self.named_params]
        self._v = [np.zeros_like(p.data) for _, p in self.named_params]

    def step(self) -> None:
        for name, p in self.named_params:
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NumericsError(f"non-finite gradient in parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, (_, p) in enumerate(self.named_params):
            if p.grad is None:
                continue
            g = p.grad
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * g * g
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None


def step_lr(epoch: int, base_lr: float, step_size: int, gamma: float) -> float:
    """Learning rate at a given epoch: base * gamma^floor(epoch/step_size)."""
    if step_size < 1:
        raise ConfigError(f"step_size must be >= 1, got {step_size}")
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return base_lr * gamma ** (epoch // step_size)
