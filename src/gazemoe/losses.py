"""Training objective: cross-entropy plus weighted load-balance penalty.

The balance term is the dot product of per-expert usage frequencies f
(discrete top-1 counts, treated as constants) with mean routing
probabilities p_bar (differentiable). One term per MoE branch per hybrid
block, summed, scaled by the balance weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, ValidationError
from .tensor import Tensor


@dataclass(frozen=True)
class LossBreakdown:
    cls: float
    lb: float
    total: float
    lb_weight: float


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-probability of the true class, log-sum-exp stable."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ContractError(
            f"cross_entropy expects logits [B,C] with B labels, "
            f"got {logits.shape} and {labels.shape}"
        )
    num_classes = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        bad = labels[(labels < 0) | (labels >= num_classes)][0]
        raise ValidationError(f"label {bad} outside [0, {num_classes})")
    log_probs = T.log_softmax(logits, axis=1)
    picked = T.take_rows(log_probs.reshape(-1), np.arange(labels.size) * num_classes + labels)
    return T.scale(picked.mean(), -1.0)


def load_balance_loss(f, p_bar) -> Tensor:
    """sum_i f_i * p_bar_i over one branch's experts.

    Both inputs must already be normalized distributions; f is detached,
    gradient flows through p_bar only.
    """
    p_tensor = p_bar if isinstance(p_bar, Tensor) else Tensor(p_bar)
    f_arr = np.asarray(f.data if isinstance(f, Tensor) else f, dtype=p_tensor.dtype)
    if f_arr.shape != p_tensor.shape:
        raise ContractError(
            f"f has shape {f_arr.shape}, p_bar has shape {p_tensor.shape}"
        )
    if abs(f_arr.sum() - 1.0) > 1e-6:
        raise ContractError(f"usage frequencies must sum to 1, got {f_arr.sum()!r}")
    if abs(float(p_tensor.data.sum()) - 1.0) > 1e-6:
        raise ContractError(
            f"routing probabilities must sum to 1, got {float(p_tensor.data.sum())!r}"
        )
    return (Tensor(f_arr) * p_tensor).sum()


def total_loss(cls: Tensor, lb_terms: Sequence[Tensor],
               lb_weight: float) -> tuple[Tensor, LossBreakdown]:
    """total = cls + lb_weight * (sum of per-branch balance terms)."""
    if lb_weight < 0:
        raise ContractError(f"lb_weight must be >= 0, got {lb_weight}")
    lb_value = sum(t.item() for t in lb_terms)
    if lb_terms and lb_weight != 0.0:
        lb_sum = lb_terms[0]
        for t in lb_terms[1:]:
            lb_sum = lb_sum + t
        total = cls + T.scale(lb_sum, lb_weight)
    else:
        total = cls
    breakdown = LossBreakdown(
        cls=cls.item(),
        lb=lb_value,
        total=total.item(),
        lb_weight=lb_weight,
    )
    return total, breakdown
