"""The benchmark workloads and the inputs each one is given.

BENCHMARK.json times ``train_quickstart`` and ``eval_large``;
``train_many_experts`` is run with ``--trace 1`` for its per-layer split
(see perfbench/README.md).

A workload is a dataset recipe plus a training config. The dataset is
generated from the run's ``--seed``; the config is fixed, so every seed
trains the same model recipe on a fresh sample of the same task.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from gazemoe.config import SyntheticSpec, TrainConfig, config_from_text
from gazemoe.data import generate_synthetic, load_manifest, write_manifest

# The README quickstart model and recipe (README "Quickstart", train.cfg).
README_TRAIN_CFG = """\
lr=2e-3
step_size=12
gamma=0.3
lambda=0.01
model.num_experts=4
model.top_k=1
model.stem_channels=8
model.stage_channels=8,16
model.blocks_per_stage=1,1
model.stage_strides=1,2
model.hybrid_positions=1:0
model.gaze_encoder_channels=4,8,16
fold=0
folds=5
"""

# Narrow stages, every block hybrid, 16 experts at top-2 and batch 16:
# many tiny ops per step and 636 parameter tensors per checkpoint. Two
# folds give a 160-sample test split, so test AUC varies less by seed.
MANY_EXPERTS_TRAIN_CFG = """\
lr=2e-3
step_size=12
gamma=0.3
lambda=0.01
batch_size=16
model.num_experts=16
model.top_k=2
model.stem_channels=4
model.stage_channels=4,8
model.blocks_per_stage=2,2
model.stage_strides=1,2
model.hybrid_positions=0:0,0:1,1:0,1:1
model.num_classes=4
fold=0
folds=2
"""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train": timed call is train.train; "eval": train.evaluate
    spec: dict  # SyntheticSpec fields, seed excluded
    config_text: str  # TrainConfig of the timed train call, or of the checkpoint
    epochs: int
    # eval only: subjects of the dataset the evaluated checkpoint is trained on
    ckpt_subjects: int = 0

    def train_config(self) -> TrainConfig:
        cfg = config_from_text(self.config_text + f"epochs={self.epochs}\n")
        cfg.validate()
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_quickstart",
            kind="train",
            spec=dict(task="blob", num_subjects=20, samples_per_subject=20,
                      image_size=64, num_classes=3),
            config_text=README_TRAIN_CFG,
            epochs=1,
        ),
        Workload(
            name="train_many_experts",
            kind="train",
            spec=dict(task="patterns", num_subjects=40, samples_per_subject=8,
                      image_size=16, num_classes=4),
            config_text=MANY_EXPERTS_TRAIN_CFG,
            epochs=2,
        ),
        Workload(
            name="eval_large",
            kind="eval",
            spec=dict(task="blob", num_subjects=50, samples_per_subject=20,
                      image_size=64, num_classes=3),
            config_text=README_TRAIN_CFG,
            epochs=1,
            ckpt_subjects=20,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    manifest: str  # what every timed call reads
    ckpt_manifest: str = ""  # eval only: the subset the checkpoint trains on


def generate_inputs(workload: Workload, seed: int, out_dir: str) -> Inputs:
    """Write the seeded dataset (and, for eval, the checkpoint's training
    subset: the first ``ckpt_subjects`` subjects of the same dataset)."""
    manifest = generate_synthetic(SyntheticSpec(seed=seed, **workload.spec),
                                  os.path.join(out_dir, "data"))
    if workload.kind != "eval":
        return Inputs(manifest)
    rows = load_manifest(manifest)
    subjects = sorted({r.subject_id for r in rows})[: workload.ckpt_subjects]
    data_dir = os.path.dirname(manifest)
    subset = [
        replace(r, image_path=os.path.relpath(r.image_path, data_dir),
                heatmap_path=os.path.relpath(r.heatmap_path, data_dir))
        for r in rows if r.subject_id in subjects
    ]
    ckpt_manifest = os.path.join(data_dir, "ckpt_manifest.csv")
    write_manifest(ckpt_manifest, subset)
    return Inputs(manifest, ckpt_manifest)
