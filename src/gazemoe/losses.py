"""Training objective: cross-entropy plus weighted load-balance penalty.

The balance term is the dot product of per-expert usage frequencies f
(discrete top-1 counts, treated as constants) with mean routing
probabilities p_bar (differentiable). p_bar uses the full softmax over
all N raw scores regardless of k. One term per MoE branch per hybrid
block, summed, scaled by the balance weight.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, ValidationError
from .moe import RoutingRecord
from .tensor import Tensor


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


def load_balance_loss(f: np.ndarray, p_bar: Tensor) -> Tensor:
    """sum_i f_i * p_bar_i over one branch's experts.

    Both inputs must already be normalized distributions; f is a
    constant, gradient flows through p_bar only.
    """
    f = np.asarray(f, dtype=p_bar.dtype)
    if f.shape != p_bar.shape:
        raise ContractError(f"f has shape {f.shape}, p_bar has shape {p_bar.shape}")
    # written as `not <=` so that a NaN sum fails the check too
    if not abs(f.sum() - 1.0) <= 1e-6:
        raise ContractError(f"usage frequencies must sum to 1, got {f.sum()!r}")
    if not abs(float(p_bar.data.sum()) - 1.0) <= 1e-6:
        raise ContractError(
            f"routing probabilities must sum to 1, got {float(p_bar.data.sum())!r}"
        )
    return (Tensor(f) * p_bar).sum()


def objective(logits: Tensor, records: Sequence[RoutingRecord], labels,
              lb_weight: float) -> tuple[Tensor, float, float]:
    """(total, cls, lb) for one batch, where
    total = cross_entropy + lb_weight * (sum of per-branch balance terms).

    ``cls`` and the unweighted ``lb`` are plain floats for logging; at
    ``lb_weight == 0`` the total is the cross-entropy tensor itself.
    """
    if lb_weight < 0:
        raise ContractError(f"lb_weight must be >= 0, got {lb_weight}")
    cls = cross_entropy(logits, labels)
    if not np.isfinite(cls.item()):  # diverged: no balance term; the caller reports it
        return cls, cls.item(), np.nan
    terms = []
    for rec in records:
        if rec.batch_size == 0:
            raise ContractError("routing stats need a nonempty batch")
        p_bar = T.softmax(rec.raw_scores, axis=1).mean(axis=0)
        terms.append(load_balance_loss(rec.usage, p_bar))
    lb = 0.0
    for t in terms:  # a plain loop: from Python 3.12 sum() compensates float error
        lb += t.item()
    total = cls
    if terms and lb_weight != 0.0:
        total = cls + T.scale(sum(terms[1:], terms[0]), lb_weight)
    return total, cls.item(), lb
