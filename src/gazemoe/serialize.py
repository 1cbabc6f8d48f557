"""Checkpoint files: a checkpoint directory holds one ``checkpoint.dkt``.

Layout, all integers little-endian:

    magic    b"DKC1"
    config   u32 byte length, then the config text in UTF-8
    count    u32 number of tensors
    per tensor:
      name     u16 byte length, then the name in UTF-8
      dtype    u8, 0 = float64, 1 = float32
      dims     u8 rank, then rank x u32
      payload  row-major values

A save writes a temporary file in the same directory and renames it over
the old one, so a process that dies mid-save leaves the previous
checkpoint or the new one, never a mix. Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Iterable

import numpy as np

from .errors import FormatError
from .tensor import Tensor

MAGIC = b"DKC1"
FILE_NAME = "checkpoint.dkt"
_DTYPE_TAGS = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_TAG_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


def _record(name: str, arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """One tensor's header bytes and its little-endian row-major payload."""
    if arr.dtype not in _DTYPE_TAGS:
        raise FormatError(f"parameter {name}: unsupported dtype {arr.dtype}")
    if any(d > 0xFFFFFFFF for d in arr.shape):
        raise FormatError(f"parameter {name}: dimension too large for u32: {arr.shape}")
    key = name.encode()
    if len(key) > 0xFFFF:
        raise FormatError(f"parameter name of {len(key)} bytes exceeds format limit of 65535")
    header = struct.pack(f"<H{len(key)}sBB{arr.ndim}I", len(key), key,
                         _DTYPE_TAGS[arr.dtype], arr.ndim, *arr.shape)
    return header, np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))


def save_checkpoint(
    out_dir: str | os.PathLike,
    params: Iterable[tuple[str, Tensor]],
    config_text: str = "",
) -> None:
    """Write every named parameter and the config text to
    ``out_dir/checkpoint.dkt``, replacing any previous one atomically."""
    # every tensor is checked before a byte is written
    records = [_record(name, p.data) for name, p in params]
    config = config_text.encode()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, FILE_NAME)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack("<I", len(config)) + config
                     + struct.pack("<I", len(records)))
            fh.writelines(part for record in records for part in record)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only after a failure: a replaced tmp is gone
            os.remove(tmp)


def load_checkpoint(ckpt_dir: str | os.PathLike) -> tuple[dict[str, np.ndarray], str]:
    """Read a checkpoint directory back into name->array plus the config
    text; raises ``FormatError`` naming the file on malformed input."""
    path = os.path.join(ckpt_dir, FILE_NAME)
    if not os.path.isfile(path):
        raise FormatError(f"not a checkpoint directory, no such file: {path}")
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(blob):
            raise FormatError(f"{path}: file ends at byte {len(blob)}, inside {what}")
        pos += n
        return blob[pos - n:pos]

    def text(fmt: str, what: str) -> str:  # fmt: struct code of the length prefix
        (n,) = struct.unpack(fmt, take(struct.calcsize(fmt), what))
        try:
            return str(take(n, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {what} is not UTF-8: {exc}") from None

    if take(4, "magic") != MAGIC:
        raise FormatError(f"{path}: bad magic {bytes(blob[:4])!r}, expected {MAGIC!r}")
    config_text = text("<I", "config text")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    arrays: dict[str, np.ndarray] = {}
    for i in range(1, count + 1):
        name = text("<H", f"tensor {i} of {count}")
        if name in arrays:
            raise FormatError(f"{path}: duplicate tensor {name!r}")
        tag, rank = take(2, name)
        if tag not in _TAG_DTYPES:
            raise FormatError(f"{path}: {name}: unknown dtype tag {tag}")
        shape = struct.unpack(f"<{rank}I", take(4 * rank, name))
        dtype = _TAG_DTYPES[tag]
        data = np.frombuffer(take(math.prod(shape) * dtype.itemsize, name), dtype=dtype)
        # astype copies out of the read-only buffer and restores native byte order
        arrays[name] = data.astype(dtype.newbyteorder("=")).reshape(shape)
    if pos != len(blob):
        raise FormatError(f"{path}: {len(blob) - pos} bytes after the last of {count} tensors")
    return arrays, config_text


def load_into(params: Iterable[tuple[str, Tensor]],
              arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into live (name, tensor) parameters, in place."""
    items = list(params)
    names = {name for name, _ in items}
    # missing keeps model parameter order, extra keeps checkpoint file order
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
