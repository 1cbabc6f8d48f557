"""The classifier: conv stem, one flat list of residual blocks with hybrid
MoE blocks swapped in at configured (stage, block) positions, a gaze
encoder feeding those blocks, and a linear classification head.

The gaze feature is computed once per forward and passed to every hybrid
block, which adapts it through its own learned projection. Nothing on the
image path needs it before the first hybrid block, so the gaze encoder and
the image path up to that block run as two items of ``tensor._split_map``,
side by side on the calling thread and the helper. A config with no
hybrid positions degenerates to a plain residual network that never
touches the heatmap (baseline mode).

Precision is decided here and nowhere else: every layer is built in
float64 from one seeded draw, then the network casts each parameter once
to the requested precision, so a float32 model starts from the float64
weights rounded once.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import PRECISIONS, ModelConfig
from .errors import ConfigError, ContractError, DimensionError, ValidationError
from .layers import Conv2d, Linear, Module, ResidualBasicBlock
from .moe import HybridMoeBlock, RoutingRecord
from .tensor import Tensor


class GazeEncoder(Module):
    """Heatmap -> fixed-width feature: stride-2 convs, relu, pool, linear."""

    def __init__(self, in_channels: int, conv_channels: tuple[int, ...],
                 out_width: int, rng: np.random.Generator):
        convs = []
        prev = in_channels
        for ch in conv_channels:
            convs.append(Conv2d(prev, ch, 3, rng, stride=2, pad=1))
            prev = ch
        self.convs = convs
        self.proj = Linear(prev, out_width, rng)

    def __call__(self, heatmap: Tensor) -> Tensor:
        if heatmap.ndim != 4:
            raise DimensionError(f"heatmap must be [B,C,H,W], got {heatmap.shape}")
        lo, hi = heatmap.data.min(), heatmap.data.max()
        if lo < 0.0 or hi > 1.0:
            raise ValidationError(
                f"heatmap values must lie in [0,1], found range [{lo}, {hi}]"
            )
        x = heatmap
        for conv in self.convs:
            x = conv(x, relu=True)
        return self.proj(x.mean(axis=(2, 3)))


class HybridMoeNet(Module):
    """Gaze-conditioned residual classifier with routed expert blocks."""

    def __init__(self, config: ModelConfig, precision: str = "float64"):
        config.validate()
        if precision not in PRECISIONS:
            raise ConfigError(
                f"precision must be one of {', '.join(PRECISIONS)}, got {precision!r}"
            )
        self.config = config
        self.dtype = np.dtype(precision).type
        rng = np.random.default_rng(config.seed)
        hybrid_at = set(config.hybrid_positions)

        self.stem = Conv2d(config.in_channels, config.stem_channels, 3, rng,
                           stride=config.stem_stride, pad=1)
        blocks = []
        in_ch = config.stem_channels
        block_id = 0
        for s, (out_ch, n_blocks, stage_stride) in enumerate(
            zip(config.stage_channels, config.blocks_per_stage, config.stage_strides)
        ):
            for b in range(n_blocks):
                stride = stage_stride if b == 0 else 1
                if (s, b) in hybrid_at:
                    blocks.append(HybridMoeBlock(
                        in_ch, out_ch, config.num_experts, config.top_k,
                        config.gaze_feature_width, rng, stride=stride, block_id=block_id,
                    ))
                    block_id += 1
                else:
                    blocks.append(ResidualBasicBlock(in_ch, out_ch, rng, stride=stride))
                in_ch = out_ch
        self.blocks = blocks
        self.gaze_encoder = GazeEncoder(1, config.gaze_encoder_channels,
                                        config.gaze_feature_width, rng)
        self.head = Linear(in_ch, config.num_classes, rng)
        for p in self.parameters():
            p.data = p.data.astype(self.dtype, copy=False)

    # -- structure helpers ------------------------------------------------

    def hybrid_blocks(self) -> list[HybridMoeBlock]:
        return [blk for blk in self.blocks if isinstance(blk, HybridMoeBlock)]

    @property
    def is_baseline(self) -> bool:
        return not self.hybrid_blocks()

    def count_expert_evals(self, image: Tensor, heatmap: Tensor | None) -> int:
        """Expert-block evaluations in one forward over this batch."""
        banks = [br.experts for blk in self.hybrid_blocks() for br in (blk.dd, blk.de)]
        for bank in banks:
            bank.eval_count = 0
        with T.no_grad():
            self(image, heatmap)
        return sum(bank.eval_count for bank in banks)

    # -- forward ------------------------------------------------------------

    def __call__(self, image: Tensor,
                 heatmap: Tensor | None) -> tuple[Tensor, list[RoutingRecord]]:
        if image.ndim != 4:
            raise DimensionError(f"image must be [B,C,H,W], got {image.shape}")
        first = next((i for i, blk in enumerate(self.blocks)
                      if isinstance(blk, HybridMoeBlock)), len(self.blocks))

        def image_path():
            x = self.stem(image, relu=True)
            for blk in self.blocks[:first]:
                x = blk(x)
            return x

        if self.is_baseline:
            x, x_exp = image_path(), None  # heatmap deliberately untouched
        else:
            if heatmap is None:
                raise ContractError("model has hybrid blocks; heatmap is required")
            if heatmap.shape[0] != image.shape[0]:
                raise ContractError(
                    f"batch mismatch: {image.shape[0]} images, "
                    f"{heatmap.shape[0]} heatmaps"
                )
            x_exp, x = T._split_map(lambda path: path(),
                                    [lambda: self.gaze_encoder(heatmap), image_path])
        records: list[RoutingRecord] = []
        for blk in self.blocks[first:]:
            if isinstance(blk, HybridMoeBlock):
                x, branch_records = blk(x, x_exp)
                records.extend(branch_records)
            else:
                x = blk(x)
        logits = self.head(x.mean(axis=(2, 3)))
        return logits, records
