"""Mixture-of-experts core: top-k routing, dual-branch block, fusion gate.

A hybrid block runs two MoE branches over the same image features: the
DD branch routes on the globally pooled image feature, the DE branch
routes on the block's own linear projection of the gaze feature. A
sigmoid gate conditioned on the pooled and projected features mixes the
branch outputs convexly. The two branches share nothing until the gate,
so the block runs them as two items of ``tensor._split_map``: side by
side on the calling thread and the helper, each with its own graph.

Routing is per sample. The router scores all N experts; the k highest
scores are selected (ties to the lowest index) and their softmax becomes
the combination weights, so k=1 degenerates to weight 1.0 on the argmax
expert. Unselected experts never enter the graph and receive no
gradient; the selected ones' weighted rows are summed in ascending expert
index.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .layers import Linear, Module, ResidualBasicBlock, router_mlp
from .tensor import Tensor


@dataclass
class RoutingRecord:
    """One branch's routing outcome for a whole batch.

    ``raw_scores`` stays graph-connected so the balance loss can
    differentiate through the full softmax. ``gate_p`` is filled by the
    owning block once the fusion gate has run.
    """

    block_id: int
    branch: str  # "DD" | "DE"
    raw_scores: Tensor  # [B, N]
    indices: np.ndarray  # [B, k], descending score order
    gate_p: np.ndarray = field(default=None)  # [B]

    @property
    def top1(self) -> np.ndarray:
        return self.indices[:, 0]

    @property
    def batch_size(self) -> int:
        return self.indices.shape[0]

    @property
    def num_experts(self) -> int:
        return self.raw_scores.shape[1]

    @property
    def usage(self) -> np.ndarray:
        """Per-expert share of top-1 assignments over the batch; sums to 1."""
        return np.bincount(self.top1, minlength=self.num_experts) / self.batch_size


class ExpertBank(Module):
    """N residual blocks with independent parameters and identical shapes.

    ``eval_count`` tallies how many sample rows each forward actually
    pushed through an expert, proving sparse activation.
    """

    def __init__(self, num_experts: int, in_channels: int, out_channels: int,
                 rng: np.random.Generator, stride: int = 1):
        self.num_experts = num_experts
        self.experts = [
            ResidualBasicBlock(in_channels, out_channels, rng, stride=stride)
            for _ in range(num_experts)
        ]
        self.eval_count = 0

    def run_expert(self, index: int, x: Tensor) -> Tensor:
        self.eval_count += x.shape[0]
        return self.experts[index](x)


class MoeBranch(Module):
    """One routed expert mixture: router + bank + sparsity level k.

    ``router`` is any callable from a routing feature [B, d] to raw scores [B, N].
    """

    def __init__(self, router, experts: ExpertBank, top_k: int):
        n = experts.num_experts
        if not 1 <= top_k <= n:
            raise ConfigError(f"top_k must be in [1, {n}], got {top_k}")
        self.router = router
        self.experts = experts
        self.top_k = top_k

    def route(self, routing_feature: Tensor) -> tuple[np.ndarray, Tensor, Tensor]:
        """Select the k highest-scoring experts per sample.

        Returns (indices [B,k], weights Tensor [B,k], raw_scores Tensor
        [B,N]). Weights are the softmax of the selected raw scores, ties
        break toward the lowest expert index.
        """
        raw = self.router(routing_feature)
        order = np.argsort(-raw.data, axis=1, kind="stable")
        indices = np.ascontiguousarray(order[:, : self.top_k])
        batch, n = raw.shape  # sample b's scores are flat entries b*n .. b*n + n-1
        selected = T.take_rows(raw.reshape(-1), np.arange(batch)[:, None] * n + indices)
        weights = T.softmax(selected, axis=1)
        return indices, weights, raw

    def __call__(self, x: Tensor, routing_feature: Tensor, block_id: int,
                 branch: str) -> tuple[Tensor, RoutingRecord]:
        """h[b] = sum over selected j of weight[b,j] * expert_j(x[b]): one ``put_rows``
        adds each active expert's weighted rows, in ascending expert index."""
        indices, weights, raw = self.route(routing_feature)
        batch, k = indices.shape
        flat = weights.reshape(batch * k, 1, 1, 1)  # row b*k + j holds weight[b, j]
        parts, blocks = [], []
        for i in np.unique(indices).tolist():
            # experts are distinct within a row, so rows come out unique and sorted
            rows, slots = np.nonzero(indices == i)
            h_i = self.experts.run_expert(i, T.take_rows(x, rows))
            parts.append(h_i * T.take_rows(flat, rows * k + slots))
            blocks.append(rows)
        return T.put_rows(parts, blocks, batch), RoutingRecord(block_id, branch, raw, indices)


class FusionGate(Module):
    """p = sigmoid(w_p([x_f || x_exp])), one scalar per sample in (0,1)."""

    def __init__(self, image_width: int, gaze_width: int, rng: np.random.Generator):
        self.proj = Linear(image_width + gaze_width, 1, rng)

    def __call__(self, x_f: Tensor, x_exp: Tensor) -> Tensor:
        return T.sigmoid(self.proj(T.concat([x_f, x_exp], axis=1)))


class HybridMoeBlock(Module):
    """Drop-in residual-block replacement mixing two routed expert branches.

    Output x_hat = p * h_DE + (1 - p) * h_DD where p comes from the
    fusion gate and both h's are expert mixtures over the same input
    feature map. The block projects the gaze feature it is given through
    its own ``gaze_proj`` before routing and gating. The gaze feature is
    mandatory; there is no silent image-only fallback.
    """

    def __init__(self, in_channels: int, out_channels: int, num_experts: int,
                 top_k: int, gaze_width: int, rng: np.random.Generator,
                 stride: int = 1, block_id: int = 0):
        self.block_id = block_id
        self.dd = MoeBranch(
            router_mlp(in_channels, num_experts, rng),
            ExpertBank(num_experts, in_channels, out_channels, rng, stride),
            top_k,
        )
        self.de = MoeBranch(
            router_mlp(gaze_width, num_experts, rng),
            ExpertBank(num_experts, in_channels, out_channels, rng, stride),
            top_k,
        )
        self.gate = FusionGate(in_channels, gaze_width, rng)
        self.gaze_proj = Linear(gaze_width, gaze_width, rng)

    def __call__(self, x: Tensor, x_exp: Tensor) -> tuple[Tensor, tuple[RoutingRecord, RoutingRecord]]:
        if x_exp is None:
            raise ContractError("hybrid block requires a gaze feature; none provided")
        if x_exp.shape[0] != x.shape[0]:
            raise ContractError(
                f"batch mismatch: image features {x.shape[0]} rows, "
                f"gaze features {x_exp.shape[0]} rows"
            )
        x_exp = self.gaze_proj(x_exp)
        x_f = x.mean(axis=(2, 3))

        def run(branch):
            moe, routing_feature, name = branch
            return moe(x, routing_feature, self.block_id, name)

        (h_dd, rec_dd), (h_de, rec_de) = T._split_map(
            run, [(self.dd, x_f, "DD"), (self.de, x_exp, "DE")])
        p = self.gate(x_f, x_exp)  # [B, 1]
        rec_dd.gate_p = rec_de.gate_p = p.data[:, 0].copy()
        pb = p.reshape(x.shape[0], 1, 1, 1)
        x_hat = pb * h_de + (1.0 - pb) * h_dd
        return x_hat, (rec_dd, rec_de)


def write_routing_csv(path, records: list[RoutingRecord], sample_ids: list[str]) -> None:
    """Dump per-sample routing rows for every record.

    Columns: sample_id, block_id, branch, raw_score_0..N-1, top1_index,
    gate_p.
    """
    if not records:
        raise ContractError("no routing records to export")
    n = records[0].num_experts
    header = (
        ["sample_id", "block_id", "branch"]
        + [f"raw_score_{i}" for i in range(n)]
        + ["top1_index", "gate_p"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in records:
            if rec.batch_size != len(sample_ids):
                raise ContractError(
                    f"record batch {rec.batch_size} != {len(sample_ids)} sample ids"
                )
            for b, sid in enumerate(sample_ids):
                row = [sid, str(rec.block_id), rec.branch]
                row += [repr(float(v)) for v in rec.raw_scores.data[b]]
                row += [str(int(rec.top1[b])), repr(float(rec.gate_p[b]))]
                writer.writerow(row)
