"""Configuration dataclasses and the flat key=value file codec.

Config files are plain text, one ``key=value`` per line, ``#`` comments
allowed. Nested sections use dotted keys (``model.top_k=1``). Every
field has a default, so a config file only lists overrides. Round-trips
are exact: ``config_from_text(config_to_text(cfg)) == cfg``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .errors import ConfigError

_INT_TUPLES = {
    "stage_channels", "blocks_per_stage", "stage_strides", "gaze_encoder_channels",
}
_FLOAT_TUPLES = {"blob_radii", "blob_intensities", "brightness_contrast_range"}
_PAIR_TUPLES = {"hybrid_positions"}

# numpy dtype names a model can be built and trained in
PRECISIONS = ("float32", "float64")

# shorthand keys accepted in config files
_ALIASES = {
    "lambda": "lb_weight",
    "n": "model.num_experts",
    "n_experts": "model.num_experts",
    "k": "model.top_k",
    "fold_index": "fold",
}


@dataclass
class AugmentConfig:
    """Brightness/contrast jitter plus pixel noise, images only."""

    brightness_contrast_range: tuple[float, float] = (0.8, 1.2)
    noise_sigma: float = 0.05
    enabled: bool = True

    def validate(self) -> None:
        if len(self.brightness_contrast_range) != 2:
            raise ConfigError(
                "brightness_contrast_range needs exactly 2 entries (lo,hi), "
                f"got {len(self.brightness_contrast_range)}"
            )
        lo, hi = self.brightness_contrast_range
        if lo > hi:
            raise ConfigError(f"brightness_contrast_range lo {lo} > hi {hi}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass
class ModelConfig:
    """Backbone architecture, expert counts, and init seed."""

    in_channels: int = 1
    stem_channels: int = 16
    stem_stride: int = 2
    stage_channels: tuple[int, ...] = (16, 32)
    blocks_per_stage: tuple[int, ...] = (2, 2)
    stage_strides: tuple[int, ...] = (1, 2)
    hybrid_positions: tuple[tuple[int, int], ...] = ((0, 1), (1, 1))
    num_experts: int = 4
    top_k: int = 1
    gaze_encoder_channels: tuple[int, ...] = (8, 16, 32)
    gaze_feature_width: int = 16
    num_classes: int = 3
    seed: int = 0

    def validate(self) -> None:
        for name in ("num_experts", "in_channels", "stem_channels", "stem_stride",
                     "gaze_feature_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.in_channels > 1:
            raise ConfigError(
                f"in_channels must be >= 1 and at most 1, since every input is "
                f"a 1-channel PGM; got {self.in_channels}"
            )
        for name in ("stage_channels", "blocks_per_stage", "stage_strides",
                     "gaze_encoder_channels"):
            if any(v < 1 for v in getattr(self, name)):
                raise ConfigError(
                    f"every {name} entry must be >= 1, got {getattr(self, name)}"
                )
        if not 1 <= self.top_k <= self.num_experts:
            raise ConfigError(
                f"top_k must be in [1, {self.num_experts}], got {self.top_k}"
            )
        if len(self.stage_channels) != len(self.blocks_per_stage):
            raise ConfigError(
                f"stage_channels has {len(self.stage_channels)} stages, "
                f"blocks_per_stage has {len(self.blocks_per_stage)}"
            )
        if len(self.stage_strides) != len(self.stage_channels):
            raise ConfigError(
                f"stage_strides has {len(self.stage_strides)} entries for "
                f"{len(self.stage_channels)} stages"
            )
        for stage, block in self.hybrid_positions:
            if not 0 <= stage < len(self.blocks_per_stage):
                raise ConfigError(f"hybrid position references stage {stage}")
            if not 0 <= block < self.blocks_per_stage[stage]:
                raise ConfigError(
                    f"hybrid position ({stage},{block}) exceeds "
                    f"{self.blocks_per_stage[stage]} blocks in stage {stage}"
                )
        if len(set(self.hybrid_positions)) != len(self.hybrid_positions):
            raise ConfigError("duplicate hybrid positions")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if len(self.gaze_encoder_channels) < 1:
            raise ConfigError("gaze encoder needs at least one conv layer")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainConfig:
    """Full training recipe: optimization, schedule, data handling, model."""

    lr: float = 5e-4
    step_size: int = 10
    gamma: float = 0.1
    epochs: int = 30
    batch_size: int = 64
    lb_weight: float = 0.01
    seed: int = 0
    fold: int = 0
    folds: int = 5
    precision: str = "float64"
    model: ModelConfig = field(default_factory=ModelConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def validate(self) -> None:
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0 < self.gamma <= 1:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.step_size < 1:
            raise ConfigError(f"step_size must be >= 1, got {self.step_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.lb_weight < 0:
            raise ConfigError(f"lb_weight must be >= 0, got {self.lb_weight}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if not 0 <= self.fold < self.folds:
            raise ConfigError(f"fold must be in [0, {self.folds}), got {self.fold}")
        if self.precision not in PRECISIONS:
            raise ConfigError(
                f"precision must be one of {', '.join(PRECISIONS)}, got {self.precision!r}"
            )
        self.model.validate()
        self.augment.validate()


@dataclass
class SyntheticSpec:
    """Recipe for the generated gaze-conditioned dataset.

    Tasks:
      blob      — label given by the Gaussian blob's (size, intensity).
      gaze      — 4 classes crossing a blob bit with a heatmap-only bit;
                  image alone caps out near 50% accuracy.
      patterns  — 4 equal gaze-style groups (fixation peak bit ×
                  fixation spread bit) with heatmap-only class signal,
                  plus a groups.csv sidecar for routing-purity
                  evaluation.
    """

    num_subjects: int = 20
    samples_per_subject: int = 20
    image_size: int = 64
    num_classes: int = 3
    task: str = "blob"
    blob_radii: tuple[float, ...] = (4.0, 7.0, 10.0)
    blob_intensities: tuple[float, ...] = (0.6, 0.8, 1.0)
    gaze_fidelity: float = 1.0
    heatmap_sigma: float = 6.0
    image_noise: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if self.num_subjects < 1 or self.samples_per_subject < 1:
            raise ConfigError("need at least one subject and one sample per subject")
        if self.image_size < 16:
            raise ConfigError(f"image_size must be >= 16, got {self.image_size}")
        if self.task not in ("blob", "gaze", "patterns"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.task in ("gaze", "patterns") and self.num_classes != 4:
            raise ConfigError(f"task {self.task!r} is 4-class, got {self.num_classes}")
        if self.task == "blob" and self.num_classes != len(self.blob_radii):
            raise ConfigError(
                f"blob task needs one radius per class: {self.num_classes} classes, "
                f"{len(self.blob_radii)} radii"
            )
        if len(self.blob_radii) != len(self.blob_intensities):
            raise ConfigError("blob_radii and blob_intensities lengths differ")
        # blob uses one radius per class, gaze the first two, patterns the first
        drawn = {"blob": len(self.blob_radii), "gaze": 2, "patterns": 1}[self.task]
        if len(self.blob_radii) < drawn:
            raise ConfigError(
                f"task {self.task!r} draws {drawn} blob radii, got {len(self.blob_radii)}"
            )
        for r in self.blob_radii[:drawn]:
            # a blob keeps 1.5 radii from each border, so 3 radii must fit
            if not 0 < 3 * r <= self.image_size:
                raise ConfigError(
                    f"blob radius {r} must be > 0 and at most image_size/3 "
                    f"({self.image_size}/3)"
                )
        if not 0.0 <= self.gaze_fidelity <= 1.0:
            raise ConfigError(f"gaze_fidelity must be in [0,1], got {self.gaze_fidelity}")
        if self.image_noise < 0 or self.heatmap_sigma <= 0:
            raise ConfigError("image_noise must be >= 0 and heatmap_sigma > 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# -- key=value codec -----------------------------------------------------


def _value_to_str(name: str, value) -> str:
    if name in _PAIR_TUPLES:
        return ",".join(f"{a}:{b}" for a, b in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not a finite number")
    return value


def _value_from_str(name: str, text: str, default):
    text = text.strip()
    try:
        if name in _PAIR_TUPLES:
            if not text:
                return ()
            pairs = []
            for chunk in text.split(","):
                a, b = chunk.split(":")
                pairs.append((int(a), int(b)))
            return tuple(pairs)
        if name in _INT_TUPLES:
            return tuple(int(v) for v in text.split(",")) if text else ()
        if name in _FLOAT_TUPLES:
            return tuple(_finite_float(v) for v in text.split(",")) if text else ()
        if isinstance(default, bool):
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return _finite_float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name}={text!r}: {exc}") from exc


def _flatten(cfg, prefix: str = "") -> list[tuple[str, str]]:
    out = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            out.extend(_flatten(value, prefix=f"{prefix}{f.name}."))
        else:
            out.append((f"{prefix}{f.name}", _value_to_str(f.name, value)))
    return out


def config_to_text(cfg) -> str:
    """Serialize any config dataclass to flat key=value lines."""
    return "\n".join(f"{k}={v}" for k, v in _flatten(cfg)) + "\n"


def _assign(cfg, dotted: str, text: str) -> None:
    head, _, rest = dotted.partition(".")
    names = {f.name: f for f in dataclasses.fields(cfg)}
    if head not in names:
        raise ConfigError(f"unknown config key {dotted!r}")
    current = getattr(cfg, head)
    if rest:
        if not dataclasses.is_dataclass(current):
            raise ConfigError(f"config key {head!r} is not a section")
        _assign(current, rest, text)
    else:
        if dataclasses.is_dataclass(current):
            raise ConfigError(f"config key {head!r} is a section, not a value")
        setattr(cfg, head, _value_from_str(head, text, current))


def config_from_text(text: str, cls=TrainConfig):
    """Parse key=value lines into a config, starting from defaults."""
    cfg = cls()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        key = _ALIASES.get(key, key)
        _assign(cfg, key, value)
    return cfg


def load_config(path, cls=TrainConfig, overrides=()):
    """Read a config file, append ``KEY=VALUE`` overrides (last wins) and
    validate the result."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for entry in overrides:
        if "=" not in entry:
            raise ConfigError(f"--set expects KEY=VALUE, got {entry!r}")
    cfg = config_from_text(text + "\n" + "\n".join(overrides) + "\n", cls)
    cfg.validate()
    return cfg
