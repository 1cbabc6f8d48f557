"""Evaluation metrics: accuracy, macro one-vs-rest AUC, routing purity."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, MetricUndefinedError
from .tensor import Tensor


def _as_array(x) -> np.ndarray:
    return np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)


def accuracy(logits, labels) -> float:
    """Percent of samples whose argmax logit matches the label (ties -> lowest)."""
    scores = _as_array(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape[0] == 0:
        raise ContractError("accuracy needs at least one sample")
    predictions = np.argmax(scores, axis=1)
    return 100.0 * float(np.mean(predictions == labels))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    # return_index makes np.unique sort stably, so each NaN (its own group)
    # keeps input order; a group at sorted positions i..j has cumsum j + 1
    _, _, group, counts = np.unique(values, return_index=True, return_inverse=True,
                                    return_counts=True, equal_nan=False)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def binary_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Rank-statistic AUC; ties contribute 0.5 per pair."""
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC needs at least one positive and one negative")
    ranks = _average_ranks(scores)
    return (ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def macro_auc(scores, labels) -> float:
    """Macro-averaged one-vs-rest AUC x100, skipping absent classes."""
    scores = _as_array(scores)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or labels.shape[0] != scores.shape[0]:
        raise ContractError(
            f"macro_auc expects scores [M,C] with M labels, "
            f"got {scores.shape} and {labels.shape}"
        )
    if np.unique(labels).size < 2:
        raise MetricUndefinedError(
            "macro AUC undefined with fewer than 2 distinct labels"
        )
    aucs = []
    for c in range(scores.shape[1]):
        positives = labels == c
        if not positives.any():
            continue
        aucs.append(binary_auc(scores[:, c], positives))
    return 100.0 * float(np.mean(aucs))


def routing_purity(top1, group_labels, num_experts: int) -> float:
    """Size-weighted mean over groups of the modal expert's share.

    1.0 means every group routes entirely to a single expert; routing
    independent of groups concentrates near the experts' global shares.
    """
    top1 = np.asarray(top1, dtype=np.int64)
    groups = np.asarray(group_labels, dtype=np.int64)
    if top1.size == 0 or top1.shape != groups.shape:
        raise ContractError(
            f"routing_purity needs matching nonempty arrays, "
            f"got {top1.shape} and {groups.shape}"
        )
    if top1.size and (top1.min() < 0 or top1.max() >= num_experts):
        raise ContractError(
            f"top1 indices must lie in [0, {num_experts}), found {top1.min()}..{top1.max()}"
        )
    total = 0.0
    for g in np.unique(groups):
        counts = np.bincount(top1[groups == g], minlength=num_experts)
        total += counts.max()
    return total / top1.size


def usage_entropy(f) -> float:
    """Shannon entropy (nats) of an expert-usage distribution; 0 log 0 = 0."""
    f = np.asarray(f, dtype=np.float64)
    nz = f[f > 0]
    return float(-(nz * np.log(nz)).sum())
