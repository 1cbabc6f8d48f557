"""Binary tensor files and checkpoint directories.

Tensor file layout (all integers little-endian):

    magic   4 bytes  b"DKT1"
    dtype   u8       0 = float64, 1 = float32
    rank    u8
    dims    rank x u32
    payload row-major values, little-endian

A checkpoint is a directory of one tensor file per parameter plus a text
manifest mapping parameter names to files and shapes, plus the model
config that produced them. Round-trips are bit-exact.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from .errors import FormatError
from .tensor import Tensor

MAGIC = b"DKT1"
_DTYPE_TAGS = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_TAG_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}

MANIFEST_NAME = "manifest.txt"
CONFIG_NAME = "config.txt"


def write_tensor(path: str | os.PathLike, tensor: Tensor | np.ndarray) -> None:
    """Write a tensor to ``path`` in the DKT1 format."""
    arr = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
    if arr.dtype not in _DTYPE_TAGS:
        raise FormatError(f"unsupported dtype for tensor file: {arr.dtype}")
    if arr.ndim > 255:
        raise FormatError(f"rank {arr.ndim} exceeds format limit of 255")
    dims = np.asarray(arr.shape, dtype="<u4")
    if any(d > 0xFFFFFFFF for d in arr.shape):
        raise FormatError(f"dimension too large for u32: {arr.shape}")
    header = MAGIC + bytes([_DTYPE_TAGS[arr.dtype], arr.ndim]) + dims.tobytes()
    payload = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"), copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_tensor(path: str | os.PathLike) -> np.ndarray:
    """Read one DKT1 tensor file; raises ``FormatError`` on malformed input."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 6:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    tag, rank = blob[4], blob[5]
    if tag not in _TAG_DTYPES:
        raise FormatError(f"{path}: unknown dtype tag {tag}")
    dims_end = 6 + 4 * rank
    if len(blob) < dims_end:
        raise FormatError(f"{path}: truncated dims (rank {rank})")
    shape = tuple(int(d) for d in np.frombuffer(blob[6:dims_end], dtype="<u4"))
    dtype = _TAG_DTYPES[tag]
    expected = dims_end + int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if len(blob) != expected:
        raise FormatError(
            f"{path}: payload size mismatch, expected {expected} bytes total, got {len(blob)}"
        )
    data = np.frombuffer(blob[dims_end:], dtype=dtype)
    # astype copies out of the read-only buffer and restores native byte order
    return data.astype(dtype.newbyteorder("=")).reshape(shape)


def save_checkpoint(
    out_dir: str | os.PathLike,
    params: Iterable[tuple[str, Tensor]],
    config_text: str = "",
) -> None:
    """Write every named parameter plus a manifest and the config text."""
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for i, (name, p) in enumerate(params):
        fname = f"param_{i:04d}.dkt"
        write_tensor(os.path.join(out_dir, fname), p)
        shape_txt = "x".join(str(d) for d in p.shape) if p.ndim else "scalar"
        lines.append(f"{name}\t{shape_txt}\t{fname}")
    with open(os.path.join(out_dir, MANIFEST_NAME), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, CONFIG_NAME), "w") as fh:
        fh.write(config_text)


def load_checkpoint(ckpt_dir: str | os.PathLike) -> tuple[dict[str, np.ndarray], str]:
    """Read a checkpoint directory back into name->array plus the config text."""
    manifest_path = os.path.join(ckpt_dir, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise FormatError(f"not a checkpoint directory (no {MANIFEST_NAME}): {ckpt_dir}")
    arrays: dict[str, np.ndarray] = {}
    with open(manifest_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{manifest_path}:{lineno}: expected 3 tab-separated fields")
            name, shape_txt, fname = parts
            if name in arrays:
                raise FormatError(f"{manifest_path}:{lineno}: duplicate parameter {name!r}")
            arr = read_tensor(os.path.join(ckpt_dir, fname))
            declared = () if shape_txt == "scalar" else tuple(int(s) for s in shape_txt.split("x"))
            if arr.shape != declared:
                raise FormatError(
                    f"{manifest_path}:{lineno}: {name} declared shape {declared}, "
                    f"file has {arr.shape}"
                )
            arrays[name] = arr
    config_path = os.path.join(ckpt_dir, CONFIG_NAME)
    if not os.path.isfile(config_path):
        raise FormatError(f"checkpoint has no {CONFIG_NAME}: {config_path}")
    with open(config_path) as fh:
        return arrays, fh.read()


def load_into(params: Iterable[tuple[str, Tensor]],
              arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into live (name, tensor) parameters, in place."""
    items = list(params)
    names = {name for name, _ in items}
    # missing keeps model parameter order, extra keeps manifest line order
    missing = [name for name, _ in items if name not in arrays]
    extra = [name for name in arrays if name not in names]
    if missing or extra:
        raise FormatError(
            f"checkpoint/model parameter mismatch: {len(missing)} missing "
            f"(first {missing[0] if missing else None!r}), {len(extra)} unexpected "
            f"(first {extra[0] if extra else None!r})"
        )
    for name, p in items:
        arr = arrays[name]
        if arr.shape != p.shape:
            raise FormatError(f"parameter {name}: checkpoint shape {arr.shape} != model {p.shape}")
        p.data[...] = arr.astype(p.dtype, copy=False)
