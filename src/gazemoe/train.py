"""Training and evaluation loops: Adam + stepped LR, class-uniform
batches, per-epoch CSV metrics, and best/final checkpoints.

The per-epoch metrics, ``eval`` and ``route-dump`` share one
gradient-free chunked pass over a split (``_forward_split``), which
stitches each branch's routing into one record covering every row. It
shares its chunks with the tensor module's helper thread and combines
them in chunk order, so its floats are those of a serial loop. Pixels
are decoded once per run and cached as the PGM's integers and maxval
(an eighth of float64 for 8-bit files); each batch is scaled to [0,1]
when it is assembled, by casting the integers to float64 and dividing
by the file's maxval.

Reproducibility contract: a fixed TrainConfig and manifest produce
byte-identical metrics CSVs and checkpoints. All randomness flows from
``config.seed`` through three independent child streams (fold shuffle,
batch sampling, augmentation); metric floats are serialized with
``repr`` so the CSV captures them exactly. Each training step hands the
next batch's draw and assembly to the tensor module's helper thread
while it runs, one batch at a time, so the batch-sampling and
augmentation streams are drawn in the same order as in a serial loop;
an error raised there surfaces at the step that takes the batch.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import TrainConfig, config_from_text, config_to_text
from .data import (SampleManifest, augment, load_groups, load_manifest,
                   read_pgm, subject_kfold, uniform_class_iter)
from .errors import ConfigError, ContractError, FormatError, NumericsError, ValidationError
from .losses import objective
from .metrics import accuracy, macro_auc, routing_purity
from .model import HybridMoeNet
from .moe import RoutingRecord, write_routing_csv
from .optim import Adam, step_lr
from .serialize import load_checkpoint, load_into, save_checkpoint
from .tensor import GradCheckReport, Tensor, finite_diff_check

METRICS_NAME = "metrics.csv"
BEST_DIR = "checkpoint_best"
FINAL_DIR = "checkpoint_final"


# -- batching ---------------------------------------------------------------


def _load_pixels(rows: list[SampleManifest]) -> dict[str, tuple[tuple, tuple]]:
    """Decode every referenced PGM once; sample_id -> (image, heatmap), each
    kept as ``read_pgm``'s (integer array [H,W], maxval). Every file must
    match the first one's shape."""
    cache = {}
    first = None  # (path, shape) of the first file decoded
    for m in rows:
        pair = []
        for path in (m.image_path, m.heatmap_path):
            pixels, maxval = read_pgm(path)
            first = first or (path, pixels.shape)
            if pixels.shape != first[1]:
                raise ValidationError(
                    f"{path}: {pixels.shape[1]}x{pixels.shape[0]} pixels, but "
                    f"{first[0]} is {first[1][1]}x{first[1][0]}; every image "
                    f"and heatmap must share one size"
                )
            pair.append((pixels, maxval))
        cache[m.sample_id] = tuple(pair)
    return cache


def _scaled(pixels: list[tuple[np.ndarray, int]]) -> np.ndarray:
    """Cached (integers, maxval) pairs -> float64 [B,1,H,W] in [0,1].

    One float64 division per pixel (integer cast to float64, then divided
    by the file's maxval), in one pass over the whole batch.
    """
    ints = np.stack([p for p, _ in pixels])
    maxvals = np.array([m for _, m in pixels], dtype=np.float64)
    return np.divide(ints, maxvals[:, None, None], dtype=np.float64)[:, None]


def _assemble(rows, cache, dtype, augment_cfg=None, rng=None):
    """Scale cached pixels into model inputs, augmenting when configured."""
    images = _scaled([cache[m.sample_id][0] for m in rows])
    heatmaps = _scaled([cache[m.sample_id][1] for m in rows])
    if augment_cfg is not None:  # per sample, so the draws keep their order
        for i in range(len(rows)):
            images[i] = augment(images[i], heatmaps[i], augment_cfg, rng)[0]
    return (
        Tensor(images.astype(dtype, copy=False)),
        Tensor(heatmaps.astype(dtype, copy=False)),
        np.array([m.label for m in rows], dtype=np.int64),
    )


def _fold_rows(manifests: list[SampleManifest], config: TrainConfig, fold: int
               ) -> tuple[list[SampleManifest], list[SampleManifest]]:
    """(train rows, test rows) of one subject-wise fold of ``config``'s split."""
    if not 0 <= fold < config.folds:
        raise ConfigError(f"fold {fold} outside [0, {config.folds})")
    by_id = {m.sample_id: m for m in manifests}
    train_ids, test_ids = subject_kfold(manifests, config.folds, config.seed)[fold]
    return [by_id[i] for i in train_ids], [by_id[i] for i in test_ids]


# -- split evaluation --------------------------------------------------------


def _forward_split(model: HybridMoeNet, rows, cache, batch_size, lb_weight):
    """Forward a split in chunks, without gradients or augmentation.

    Returns logits and labels in row order, the mean cross-entropy and
    balance term, and one RoutingRecord per (block_id, branch) stitched
    from the chunks to cover every row.

    Cross-entropy is averaged per sample; the balance term is a
    batch-level quantity, so it is averaged over chunks weighted by
    chunk size.

    The chunks go to ``tensor._split_map``, so this thread and the helper
    each forward the next untaken chunk. Each chunk's result is its own,
    and the sums and concatenations below run on this thread in chunk
    order, so the floats are those of a serial loop.
    """
    if not rows:
        raise ConfigError("cannot evaluate an empty split")

    def forward(chunk):
        images, heatmaps, labels = _assemble(chunk, cache, model.dtype)
        with T.no_grad():
            logits, records = model(images, heatmaps)
            _, cls, lb = objective(logits, records, labels, lb_weight)
        return logits.data, labels, records, cls * len(chunk), lb * len(chunk)

    chunks = [rows[i : i + batch_size] for i in range(0, len(rows), batch_size)]
    logits, labels, records, cls, lb = zip(*T._split_map(forward, chunks))
    cls_sum = 0.0
    lb_sum = 0.0
    # a plain loop, not sum(): from Python 3.12 sum() compensates float error
    for chunk_cls, chunk_lb in zip(cls, lb):
        cls_sum += chunk_cls
        lb_sum += chunk_lb
    # every chunk returns its records in the model's fixed order
    stitched = [
        RoutingRecord(recs[0].block_id, recs[0].branch,
                      Tensor(np.concatenate([r.raw_scores.data for r in recs])),
                      np.concatenate([r.indices for r in recs]),
                      np.concatenate([r.gate_p for r in recs]))
        for recs in zip(*records)
    ]
    n = len(rows)
    return (np.concatenate(logits), np.concatenate(labels),
            cls_sum / n, lb_sum / n, stitched)


@dataclass
class SplitReport:
    """Aggregate metrics over one split, in manifest order."""

    loss_cls: float
    loss_lb: float
    loss_total: float
    acc: float
    auc: float
    # one stitched RoutingRecord per (block_id, branch), block by block, DD first
    records: list = field(default_factory=list)
    sample_ids: list = field(default_factory=list)

    @property
    def top1(self) -> dict:
        """(block_id, branch) -> per-sample top-1 expert over the split."""
        return {(r.block_id, r.branch): r.top1 for r in self.records}

    @property
    def expert_fracs(self) -> dict:
        """(block_id, branch) -> per-expert top-1 fraction over the split."""
        return {(r.block_id, r.branch): r.usage for r in self.records}


def evaluate_split(model: HybridMoeNet, rows, cache, batch_size,
                   lb_weight) -> SplitReport:
    """Metrics over a split from one ``_forward_split`` pass."""
    logits, labels, cls, lb, records = _forward_split(model, rows, cache,
                                                      batch_size, lb_weight)
    return SplitReport(
        loss_cls=cls,
        loss_lb=lb,
        loss_total=cls + lb_weight * lb,
        acc=accuracy(logits, labels),
        auc=macro_auc(T.softmax(Tensor(logits), axis=1).data, labels),
        records=records,
        sample_ids=[m.sample_id for m in rows],
    )


# -- metrics CSV -------------------------------------------------------------


def metrics_header(model: HybridMoeNet) -> list[str]:
    """Column names; the fraction columns follow the model's record order."""
    cols = ["epoch", "split", "loss_cls", "loss_lb", "loss_total", "acc", "auc"]
    for blk in model.hybrid_blocks():
        for branch in ("dd", "de"):
            cols += [f"f_b{blk.block_id}_{branch}_e{i}"
                     for i in range(model.config.num_experts)]
    return cols


def _metrics_row(epoch, split, report: SplitReport) -> list[str]:
    row = [str(epoch), split] + [
        repr(float(v))
        for v in (report.loss_cls, report.loss_lb, report.loss_total,
                  report.acc, report.auc)
    ]
    for rec in report.records:
        row += [repr(float(v)) for v in rec.usage]
    return row


# -- training -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainResult:
    metrics_path: str
    best_dir: str
    final_dir: str
    best_epoch: int
    best_auc: float
    final_train: SplitReport
    final_test: SplitReport


def train(config: TrainConfig, manifest_path, out_dir) -> TrainResult:
    """Train on one subject-wise fold; writes metrics.csv plus best/final
    checkpoints under out_dir and returns where everything landed."""
    config.validate()
    os.makedirs(out_dir, exist_ok=True)

    manifests = load_manifest(manifest_path, config.model.num_classes)
    train_rows, test_rows = _fold_rows(manifests, config, config.fold)
    cache = _load_pixels(manifests)

    model = HybridMoeNet(config.model, config.precision)
    config_text = config_to_text(config)

    # header now, then both rows of each epoch as soon as they exist, so a
    # run that dies mid-way keeps the epochs it finished
    metrics_path = os.path.join(out_dir, METRICS_NAME)
    with open(metrics_path, "w", newline="") as fh:
        csv.writer(fh).writerow(metrics_header(model))
    best_auc = -math.inf
    best_epoch = -1

    def log_epoch(epoch: int) -> tuple[SplitReport, SplitReport]:
        nonlocal best_auc, best_epoch
        train_rep = evaluate_split(model, train_rows, cache, config.batch_size,
                                   config.lb_weight)
        test_rep = evaluate_split(model, test_rows, cache, config.batch_size,
                                  config.lb_weight)
        with open(metrics_path, "a", newline="") as fh:
            csv.writer(fh).writerows([_metrics_row(epoch, "train", train_rep),
                                      _metrics_row(epoch, "test", test_rep)])
        if test_rep.auc > best_auc:
            best_auc = test_rep.auc
            best_epoch = epoch
            save_checkpoint(os.path.join(out_dir, BEST_DIR),
                            model.named_parameters(), config_text)
        return train_rep, test_rep

    train_rep, test_rep = log_epoch(0)

    opt = Adam(model.named_parameters(), lr=config.lr)
    batch_iter = uniform_class_iter(
        train_rows, config.batch_size,
        np.random.default_rng([config.seed, 1]), config.model.num_classes,
    )
    aug_rng = np.random.default_rng([config.seed, 2])
    steps_per_epoch = math.ceil(len(train_rows) / config.batch_size)

    def next_batch():
        """Draw the next training batch and assemble it, augmented."""
        return _assemble(next(batch_iter), cache, model.dtype, config.augment, aug_rng)

    # the first step assembles its own batch; each step hands the next one's
    # to the helper, one at a time, so both streams are drawn in the serial order
    pending = None
    try:
        for epoch in range(1, config.epochs + 1):
            opt.lr = step_lr(epoch - 1, config.lr, config.step_size, config.gamma)
            for step in range(steps_per_epoch):
                images, heatmaps, labels = next_batch() if pending is None else pending.result()
                last = epoch == config.epochs and step == steps_per_epoch - 1
                pending = None if last else T._on_helper(next_batch)
                total, _, _ = objective(*model(images, heatmaps), labels,
                                        config.lb_weight)
                if not math.isfinite(total.item()):
                    raise NumericsError(
                        f"non-finite loss {total.item()} at epoch {epoch}, step {step}"
                    )
                opt.zero_grad()
                T.backward(total)
                opt.step()
            train_rep, test_rep = log_epoch(epoch)
    finally:
        if pending is not None:  # raising: wait out the batch in flight, dropping its result
            futures.wait((pending,))

    final_dir = os.path.join(out_dir, FINAL_DIR)
    save_checkpoint(final_dir, model.named_parameters(), config_text)
    return TrainResult(
        metrics_path=metrics_path,
        best_dir=os.path.join(out_dir, BEST_DIR),
        final_dir=final_dir,
        best_epoch=best_epoch,
        best_auc=best_auc,
        final_train=train_rep,
        final_test=test_rep,
    )


# -- evaluation entry points ----------------------------------------------------


def load_model(checkpoint_dir) -> tuple[HybridMoeNet, TrainConfig]:
    """Rebuild the model a checkpoint was saved from and load its weights."""
    arrays, config_text = load_checkpoint(checkpoint_dir)
    if not config_text:  # the default config would rebuild some other model
        raise FormatError(f"checkpoint holds no training config: {checkpoint_dir}")
    config = config_from_text(config_text, TrainConfig)
    config.validate()
    model = HybridMoeNet(config.model, config.precision)
    load_into(model.named_parameters(), arrays)
    return model, config


@dataclass(frozen=True)
class EvalResult:
    report: SplitReport
    # (block_id, branch) -> routing purity; empty without a groups.csv
    purity: dict


def evaluate(checkpoint_dir, manifest_path, fold: int | None = None) -> EvalResult:
    """Metrics for a checkpoint on a manifest (optionally one fold's test
    split). Routing purity is added when a groups.csv sits next to the
    manifest."""
    model, config = load_model(checkpoint_dir)
    manifests = load_manifest(manifest_path, config.model.num_classes)
    rows = manifests if fold is None else _fold_rows(manifests, config, fold)[1]
    cache = _load_pixels(rows)
    report = evaluate_split(model, rows, cache, config.batch_size,
                            config.lb_weight)

    purity: dict = {}
    groups_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)),
                               "groups.csv")
    if os.path.isfile(groups_path) and report.top1:
        groups = load_groups(groups_path)
        missing = [sid for sid in report.sample_ids if sid not in groups]
        if missing:
            raise ContractError(
                f"groups.csv lacks {len(missing)} evaluated samples, "
                f"first {missing[0]!r}"
            )
        group_labels = np.array([groups[sid] for sid in report.sample_ids])
        for key, top1 in report.top1.items():
            purity[key] = routing_purity(top1, group_labels,
                                         model.config.num_experts)
    return EvalResult(report=report, purity=purity)


def run_gradcheck(config: TrainConfig, batch_size: int = 2, image_size: int = 16,
                  max_coords_per_param: int = 3, tol: float = 1e-4
                  ) -> GradCheckReport:
    """Finite-difference check of the full training loss on a random batch.

    Always runs in float64 (central differences need the headroom) and
    probes a seeded subset of coordinates per parameter.
    """
    if max_coords_per_param < 1:
        raise ConfigError(
            f"max_coords_per_param (--coords) must be >= 1, got {max_coords_per_param}"
        )
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol (--tol) must be finite and > 0, got {tol!r}")
    model = HybridMoeNet(config.model, "float64")
    rng = np.random.default_rng(config.seed)
    images = Tensor(rng.uniform(
        0, 1, (batch_size, config.model.in_channels, image_size, image_size)
    ))
    heatmaps = Tensor(rng.uniform(0, 1, (batch_size, 1, image_size, image_size)))
    labels = rng.integers(0, config.model.num_classes, batch_size)

    def f():
        return objective(*model(images, heatmaps), labels, config.lb_weight)[0]

    return finite_diff_check(
        f, model.named_parameters(), eps=1e-5, tol=tol,
        max_coords_per_param=max_coords_per_param,
        rng=np.random.default_rng(config.seed + 1),
    )


def route_dump(checkpoint_dir, manifest_path, out_path) -> str:
    """Write per-sample routing scores for every hybrid branch to CSV."""
    model, config = load_model(checkpoint_dir)
    if model.is_baseline:
        raise ConfigError("baseline model has no routing to dump")
    manifests = load_manifest(manifest_path, config.model.num_classes)
    *_, records = _forward_split(model, manifests, _load_pixels(manifests),
                                 config.batch_size, config.lb_weight)
    write_routing_csv(out_path, records, [m.sample_id for m in manifests])
    return out_path
