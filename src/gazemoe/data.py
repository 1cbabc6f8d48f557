"""Dataset plumbing: manifests, PGM image I/O, augmentation, subject-wise
folds, uniform class sampling, and a synthetic gaze-conditioned generator.

The synthetic generator is the stand-in for a real mammography+gaze
corpus. Every image holds a Gaussian blob; the paired heatmap models a
reader's fixation, centered on the blob with probability
``gaze_fidelity`` and elsewhere otherwise. Three task flavors:

  blob      — class sets the blob's (radius, intensity); solvable from
              the image alone.
  gaze      — 4 classes crossing a blob-size bit with a heatmap-peak
              bit, so image-only models cap near 50%.
  patterns  — 4 equal gaze-style groups crossing a fixation-peak bit
              with a fixation-spread bit; the image blob is the same
              for every class, so the class is readable only from the
              heatmap. A groups.csv sidecar records the group of every
              sample for routing-purity evaluation.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .config import AugmentConfig, SyntheticSpec
from .errors import ConfigError, FormatError, ParseError

MANIFEST_HEADER = ["sample_id", "image_path", "heatmap_path", "label", "subject_id"]


@dataclass(frozen=True)
class SampleManifest:
    sample_id: str
    image_path: str
    heatmap_path: str
    label: int
    subject_id: str


# -- manifest I/O --------------------------------------------------------


def load_manifest(path, num_classes: int | None = None) -> list[SampleManifest]:
    """Read and validate a manifest CSV; paths resolve against its directory."""
    if not os.path.isfile(path):
        raise ParseError(f"manifest not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    rows: list[SampleManifest] = []
    seen: set[str] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}:1: empty manifest, expected header") from None
        if header != MANIFEST_HEADER:
            raise ParseError(
                f"{path}:1: bad header {header!r}, expected {','.join(MANIFEST_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ParseError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            sample_id, image_rel, heatmap_rel, label_txt, subject_id = row
            try:
                label = int(label_txt)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: label {label_txt!r} is not an integer"
                ) from None
            if label < 0 or (num_classes is not None and label >= num_classes):
                limit = num_classes if num_classes is not None else "inf"
                raise ParseError(
                    f"{path}:{lineno}: label {label} outside [0, {limit})"
                )
            if sample_id in seen:
                raise ParseError(f"{path}:{lineno}: duplicate sample_id {sample_id!r}")
            seen.add(sample_id)
            image_path = os.path.join(base, image_rel)
            heatmap_path = os.path.join(base, heatmap_rel)
            for p in (image_path, heatmap_path):
                if not os.path.isfile(p):
                    raise ParseError(f"{path}:{lineno}: file not found: {p}")
            rows.append(SampleManifest(sample_id, image_path, heatmap_path,
                                       label, subject_id))
    return rows


def write_manifest(path, rows: list[SampleManifest]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for r in rows:
            writer.writerow([r.sample_id, r.image_path, r.heatmap_path,
                             r.label, r.subject_id])


# -- PGM I/O ---------------------------------------------------------------


def write_pgm(path, values: np.ndarray, maxval: int = 255) -> None:
    """Write a [0,1] float array as binary PGM (P5); 16-bit is big-endian."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise FormatError(f"PGM writer expects a 2-d array, got shape {values.shape}")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"maxval must be in [1, 65535], got {maxval}")
    quantized = np.round(np.clip(values, 0.0, 1.0) * maxval)
    payload = quantized.astype(np.uint8 if maxval < 256 else ">u2")
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(payload.tobytes())


def _next_token(blob: bytes, pos: int, path) -> tuple[bytes, int]:
    while pos < len(blob):
        ch = blob[pos : pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(blob) and not blob[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError(f"{path}: truncated PGM header")
    return blob[start:pos], pos


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read binary PGM; returns (integer array [H,W], maxval), every sample <= maxval.

    The unbuffered binary file object skips the read buffer's copy (a 4 KB
    file reads in about two thirds of the buffered time), opens in binary
    mode on every platform and names the path in its errors.
    """
    with open(path, "rb", buffering=0) as fh:
        blob = fh.readall()
    magic, pos = _next_token(blob, 0, path)
    if magic != b"P5":
        raise FormatError(f"{path}: bad PGM magic {magic!r}, expected b'P5'")
    fields = []
    for _ in range(3):
        token, pos = _next_token(blob, pos, path)
        try:
            fields.append(int(token))
        except ValueError:
            raise FormatError(f"{path}: non-numeric PGM header field {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise FormatError(f"{path}: bad PGM dimensions {width}x{height}, maxval {maxval}")
    pos += 1  # exactly one whitespace byte separates header from payload
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    expected = width * height * dtype.itemsize
    payload = blob[pos:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    # a sample can exceed maxval only below the storage type's own maximum
    if maxval not in (255, 65535) and (top := int(data.max())) > maxval:
        raise FormatError(f"{path}: sample {top} exceeds maxval {maxval}")
    return data.astype(np.uint16 if maxval >= 256 else np.uint8), maxval


# -- augmentation ------------------------------------------------------------


def augment(image: np.ndarray, heatmap: np.ndarray, cfg: AugmentConfig,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Brightness/contrast jitter plus Gaussian pixel noise on the image.

    x' = clamp(contrast*(x-0.5) + 0.5 + (brightness-1)*0.5 + noise, 0, 1).
    The heatmap passes through untouched (it encodes where a reader
    looked, which jitter must not move).
    """
    cfg.validate()
    if not cfg.enabled:
        return image, heatmap
    lo, hi = cfg.brightness_contrast_range
    contrast = float(rng.uniform(lo, hi))
    brightness = float(rng.uniform(lo, hi))
    if contrast == 1.0 and brightness == 1.0:
        out = image
    else:
        out = contrast * (image - 0.5) + 0.5 + (brightness - 1.0) * 0.5
    if cfg.noise_sigma > 0:
        out = out + rng.normal(0.0, cfg.noise_sigma, size=image.shape)
    return np.clip(out, 0.0, 1.0), heatmap


# -- splits and sampling -------------------------------------------------------


def subject_kfold(manifests: list[SampleManifest], k: int,
                  seed: int) -> list[tuple[list[str], list[str]]]:
    """Partition subjects into k near-equal groups; fold i tests group i.

    Returns per fold (train sample_ids, test sample_ids), order following
    the input manifest order.
    """
    if k < 2:
        raise ConfigError(f"k-fold needs k >= 2, got {k}")
    subjects = sorted({m.subject_id for m in manifests})
    if len(subjects) < k:
        raise ConfigError(f"need at least {k} subjects for {k} folds, have {len(subjects)}")
    shuffled = np.array(subjects, dtype=object)
    np.random.default_rng(seed).shuffle(shuffled)
    groups = np.array_split(shuffled, k)
    folds = []
    for group in groups:
        test_subjects = set(group.tolist())
        train = [m.sample_id for m in manifests if m.subject_id not in test_subjects]
        test = [m.sample_id for m in manifests if m.subject_id in test_subjects]
        folds.append((train, test))
    return folds


def uniform_class_iter(manifests: list[SampleManifest], batch_size: int,
                       rng: np.random.Generator, num_classes: int | None = None):
    """Endless batch stream: draw a class uniformly, then a sample within it.

    Validation happens eagerly, before the first batch is requested.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if not manifests:
        raise ConfigError("cannot sample from an empty manifest list")
    if num_classes is None:
        num_classes = max(m.label for m in manifests) + 1
    buckets = [[] for _ in range(num_classes)]
    for m in manifests:
        buckets[m.label].append(m)
    for c, bucket in enumerate(buckets):
        if not bucket:
            raise ConfigError(f"class {c} has no samples; uniform sampling impossible")

    def batches():
        while True:
            batch = []
            for _ in range(batch_size):
                c = int(rng.integers(num_classes))
                i = int(rng.integers(len(buckets[c])))
                batch.append(buckets[c][i])
            yield batch

    return batches()


# -- synthetic dataset ----------------------------------------------------------


def _gaussian_blob(size: int, cx: float, cy: float, sigma: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    return np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sigma * sigma))


def _render_image(spec: SyntheticSpec, radius: float, intensity: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, float, float]:
    size = spec.image_size
    margin = max(radius * 1.5, size * 0.15)
    cx = float(rng.uniform(margin, size - margin))
    cy = float(rng.uniform(margin, size - margin))
    image = rng.uniform(0.0, spec.image_noise, size=(size, size)) if spec.image_noise > 0 \
        else np.zeros((size, size))
    image = image + intensity * _gaussian_blob(size, cx, cy, radius)
    return np.clip(image, 0.0, 1.0), cx, cy


def _heatmap_at(spec: SyntheticSpec, cx: float, cy: float, peak: float) -> np.ndarray:
    return peak * _gaussian_blob(spec.image_size, cx, cy, spec.heatmap_sigma)


def _fixation_center(spec: SyntheticSpec, cx: float, cy: float,
                     rng: np.random.Generator) -> tuple[float, float]:
    """Blob center with probability gaze_fidelity, else uniform random."""
    if rng.uniform() < spec.gaze_fidelity:
        return cx, cy
    return (float(rng.uniform(0, spec.image_size)),
            float(rng.uniform(0, spec.image_size)))


def _make_sample(spec: SyntheticSpec, label: int, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """Returns (image, heatmap, group) for one sample of the given class."""
    size = spec.image_size
    if spec.task == "blob":
        image, cx, cy = _render_image(
            spec, spec.blob_radii[label], spec.blob_intensities[label], rng
        )
        hx, hy = _fixation_center(spec, cx, cy, rng)
        heatmap = _heatmap_at(spec, hx, hy, 1.0)
        return image, np.clip(heatmap, 0.0, 1.0), label

    if spec.task == "gaze":
        blob_bit, gaze_bit = divmod(label, 2)
        image, cx, cy = _render_image(
            spec, spec.blob_radii[blob_bit], spec.blob_intensities[blob_bit], rng
        )
        hx, hy = _fixation_center(spec, cx, cy, rng)
        heatmap = _heatmap_at(spec, hx, hy, 0.45 if gaze_bit == 0 else 0.95)
        return image, np.clip(heatmap, 0.0, 1.0), label

    # patterns: image carries no class signal (one fixed blob at a random
    # spot). The class is a pair of gaze-style bits — fixation peak (soft
    # 0.45 vs saturated 0.95) crossed with fixation spread (narrow
    # sigma 4 vs wide sigma 10) — and doubles as the purity group. The
    # fixation lands anywhere; gaze_fidelity plays no role here.
    peak_bit, spread_bit = divmod(label, 2)
    image, _, _ = _render_image(spec, spec.blob_radii[0], spec.blob_intensities[0], rng)
    margin = size * 0.2
    hx = float(rng.uniform(margin, size - margin))
    hy = float(rng.uniform(margin, size - margin))
    heatmap = (0.45 if peak_bit == 0 else 0.95) * _gaussian_blob(
        size, hx, hy, 4.0 if spread_bit == 0 else 10.0
    )
    return image, np.clip(heatmap, 0.0, 1.0), label


def generate_synthetic(spec: SyntheticSpec, out_dir) -> str:
    """Write images/, heatmaps/, manifest.csv (and groups.csv for the
    patterns task) under ``out_dir``; returns the manifest path."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    images_dir = os.path.join(out_dir, "images")
    heatmaps_dir = os.path.join(out_dir, "heatmaps")
    os.makedirs(images_dir, exist_ok=True)
    os.makedirs(heatmaps_dir, exist_ok=True)
    rows: list[SampleManifest] = []
    groups: list[tuple[str, int]] = []
    index = 0
    for s in range(spec.num_subjects):
        subject_id = f"subj{s:03d}"
        for i in range(spec.samples_per_subject):
            label = index % spec.num_classes
            index += 1
            sample_id = f"{subject_id}_{i:03d}"
            image, heatmap, group = _make_sample(spec, label, rng)
            image_rel = os.path.join("images", f"{sample_id}.pgm")
            heatmap_rel = os.path.join("heatmaps", f"{sample_id}.pgm")
            write_pgm(os.path.join(out_dir, image_rel), image)
            write_pgm(os.path.join(out_dir, heatmap_rel), heatmap)
            rows.append(SampleManifest(sample_id, image_rel, heatmap_rel,
                                       label, subject_id))
            groups.append((sample_id, group))
    manifest_path = os.path.join(out_dir, "manifest.csv")
    write_manifest(manifest_path, rows)
    if spec.task == "patterns":
        with open(os.path.join(out_dir, "groups.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "group"])
            writer.writerows(groups)
    return manifest_path


def load_groups(path) -> dict[str, int]:
    """Read a groups.csv sidecar into sample_id -> group."""
    out: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sample_id", "group"]:
            raise ParseError(f"{path}:1: bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 fields")
            sample_id, group_txt = row
            try:
                group = int(group_txt)
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: group {group_txt!r} is not an integer"
                ) from None
            if sample_id in out:
                raise ParseError(f"{path}:{lineno}: duplicate sample_id {sample_id!r}")
            out[sample_id] = group
    return out
