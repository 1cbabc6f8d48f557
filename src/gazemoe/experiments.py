"""The headline experiments, one definition each.

``EXPERIMENTS`` maps a name to ``(spec, run)``. ``spec`` is the dataset
the experiment trains on (None when it needs none); a sweep generates it
once. ``run(seed, manifest, out_dir)`` trains one seed under ``out_dir``
and returns named numbers.

Seed rule: ``seed`` sets ``ModelConfig.seed`` only. The dataset seed,
``TrainConfig.seed`` (fold split, batch order, augmentation) and every
other constant below are pinned. The acceptance gates run these
definitions at their pinned model seeds: gradcheck at 3, blob and
gaze_ablation at 0, specialization at 28. The recipes were selected by
measurement and are frozen.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import replace

from .config import AugmentConfig, ModelConfig, SyntheticSpec, TrainConfig
from .train import evaluate, run_gradcheck, train

# Toy network: 2 stages, one hybrid block in the second.
TOY_MODEL = ModelConfig(
    stem_channels=4, stage_channels=(4, 8), blocks_per_stage=(1, 1),
    stage_strides=(1, 2), hybrid_positions=((1, 0),), num_experts=2,
    top_k=1, gaze_encoder_channels=(4, 8), gaze_feature_width=8,
    num_classes=3, seed=3,
)

# Experiment-scale network used by the training experiments.
_MODEL = ModelConfig(
    stem_channels=8, stage_channels=(8, 16), blocks_per_stage=(1, 1),
    stage_strides=(1, 2), hybrid_positions=((1, 0),), num_experts=4,
    top_k=1, gaze_encoder_channels=(4, 8, 16), gaze_feature_width=16,
    num_classes=3,
)

# Image-solvable task: blob (radius, intensity) defines the class.
BLOB_SPEC = SyntheticSpec(
    num_subjects=20, samples_per_subject=20, image_size=64, num_classes=3,
    task="blob", blob_radii=(4.0, 7.0, 10.0),
    blob_intensities=(0.6, 0.8, 1.0), gaze_fidelity=1.0,
    heatmap_sigma=6.0, image_noise=0.05, seed=0,
)

# Gaze-dependent variant: label = blob-size bit × heatmap-peak bit, so an
# image-only model caps near 50% and the gaze pathway must close the rest.
GAZE_SPEC = replace(BLOB_SPEC, num_classes=4, task="gaze",
                    blob_radii=(4.0, 8.0), blob_intensities=(0.6, 0.9))

# Class lives only in the heatmap's gaze pattern; images are class-free.
PATTERNS_SPEC = SyntheticSpec(
    num_subjects=20, samples_per_subject=10, image_size=64, num_classes=4,
    task="patterns", blob_radii=(4.0,), blob_intensities=(0.8,),
    image_noise=0.1, seed=0,
)


def gradcheck_config(seed: int, top_k: int) -> TrainConfig:
    return TrainConfig(model=replace(TOY_MODEL, top_k=top_k, seed=seed),
                       lb_weight=0.01, seed=3)


def gradcheck(seed: int, manifest=None, out_dir=None) -> dict[str, float]:
    """Finite-difference check of the full training loss at top-1 and
    top-2 routing (float64, 3 coordinates per parameter)."""
    return {f"max_rel_err_k{k}": run_gradcheck(gradcheck_config(seed, k)).max_rel_err
            for k in (1, 2)}


def blob(seed: int, manifest: str, out_dir: str) -> dict[str, float]:
    """Train on the blob task. ``epoch_90_95`` is the first epoch whose
    test split reaches acc ≥ 90 and auc ≥ 95 (inf if none does)."""
    cfg = TrainConfig(model=replace(_MODEL, seed=seed), lr=2e-3, step_size=12,
                      gamma=0.3, epochs=30, batch_size=64, lb_weight=0.01,
                      seed=0, fold=0, folds=5,
                      augment=AugmentConfig(noise_sigma=0.03))
    result = train(cfg, manifest, out_dir)
    with open(result.metrics_path) as fh:
        rows = [r for r in csv.DictReader(fh)
                if r["split"] == "test" and int(r["epoch"]) >= 1]
    hits = [int(r["epoch"]) for r in rows
            if float(r["acc"]) >= 90.0 and float(r["auc"]) >= 95.0]
    return {
        "epoch_90_95": hits[0] if hits else math.inf,
        "final_acc": result.final_test.acc,
        "best_acc": max(float(r["acc"]) for r in rows),
    }


def gaze_ablation(seed: int, manifest: str, out_dir: str) -> dict[str, float]:
    """Train the hybrid network and an image-only baseline (every hybrid
    block a plain residual block) on the gaze task; compare test acc."""
    cfg = TrainConfig(model=replace(_MODEL, num_classes=4, seed=seed), lr=1e-3,
                      step_size=8, gamma=0.3, epochs=16, batch_size=64,
                      lb_weight=0.01, seed=0, fold=0, folds=5,
                      augment=AugmentConfig(noise_sigma=0.03))
    hybrid = train(cfg, manifest, os.path.join(out_dir, "hybrid"))
    baseline_cfg = replace(cfg, model=replace(cfg.model, hybrid_positions=()))
    baseline = train(baseline_cfg, manifest, os.path.join(out_dir, "baseline"))
    return {
        "hybrid_acc": hybrid.final_test.acc,
        "baseline_acc": baseline.final_test.acc,
        "margin": hybrid.final_test.acc - baseline.final_test.acc,
    }


def specialization(seed: int, manifest: str, out_dir: str) -> dict[str, float]:
    """Train the two-hybrid-block network on the patterns task, then
    measure each DE branch's routing purity against the gaze-pattern
    groups and the largest expert traffic share, for the trained model
    and for the same model untrained (0 epochs)."""
    model = replace(_MODEL, num_classes=4, seed=seed, blocks_per_stage=(1, 2),
                    hybrid_positions=((1, 0), (1, 1)))
    cfg = TrainConfig(model=model, lr=2e-3, step_size=24, gamma=0.3,
                      epochs=60, batch_size=64, lb_weight=0.01, seed=0,
                      fold=0, folds=5, augment=AugmentConfig(enabled=False))
    out = {}
    for tag, run_cfg in (("trained", cfg), ("fresh", replace(cfg, epochs=0))):
        result = train(run_cfg, manifest, os.path.join(out_dir, tag))
        ev = evaluate(result.final_dir, manifest)
        for b in (0, 1):
            out[f"{tag}_purity_b{b}"] = ev.purity[(b, "DE")]
        out[f"{tag}_max_usage"] = max(ev.report.expert_fracs[(b, "DE")].max()
                                      for b in (0, 1))
    return out


EXPERIMENTS = {
    "gradcheck": (None, gradcheck),
    "blob": (BLOB_SPEC, blob),
    "gaze_ablation": (GAZE_SPEC, gaze_ablation),
    "specialization": (PATTERNS_SPEC, specialization),
}
