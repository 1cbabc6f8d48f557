"""Tensor file format and checkpoint round-trips."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gazemoe import serialize
from gazemoe.errors import FormatError
from gazemoe.tensor import Tensor


def test_header_layout_is_exact(tmp_path):
    path = tmp_path / "t.dkt"
    serialize.write_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    blob = path.read_bytes()
    assert blob[:4] == b"DKT1"
    assert blob[4] == 1  # f32 tag
    assert blob[5] == 2  # rank
    assert struct.unpack("<II", blob[6:14]) == (2, 2)
    assert blob[14:] == struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)


def test_f64_tag_is_zero(tmp_path):
    path = tmp_path / "t.dkt"
    serialize.write_tensor(path, np.array([7.0]))
    blob = path.read_bytes()
    assert blob[4] == 0
    # header: magic(4) + tag(1) + rank(1) + one u32 dim(4) = 10 bytes
    assert blob[10:] == struct.pack("<d", 7.0)


@given(
    hnp.arrays(
        st.sampled_from([np.float64, np.float32]),
        hnp.array_shapes(min_dims=0, max_dims=4, max_side=5),
        elements=st.floats(-1e6, 1e6, allow_nan=False, width=32),
    )
)
def test_round_trip_bit_exact(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("rt") / "t.dkt"
    serialize.write_tensor(path, arr)
    back = serialize.read_tensor(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_round_trip_preserves_special_values(tmp_path):
    arr = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308])
    path = tmp_path / "t.dkt"
    serialize.write_tensor(path, arr)
    assert serialize.read_tensor(path).tobytes() == arr.tobytes()


def test_write_accepts_tensor_objects(tmp_path):
    t = Tensor([[1.5, -2.5]])
    path = tmp_path / "t.dkt"
    serialize.write_tensor(path, t)
    np.testing.assert_array_equal(serialize.read_tensor(path), t.data)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "t.dkt"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(FormatError, match="magic"):
        serialize.read_tensor(path)


def test_read_rejects_truncated_file(tmp_path):
    path = tmp_path / "t.dkt"
    serialize.write_tensor(path, np.ones(4))
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(FormatError, match="size mismatch"):
        serialize.read_tensor(path)
    path.write_bytes(blob[:5])
    with pytest.raises(FormatError):
        serialize.read_tensor(path)


def test_read_rejects_unknown_dtype_tag(tmp_path):
    path = tmp_path / "t.dkt"
    path.write_bytes(b"DKT1" + bytes([9, 1]) + struct.pack("<I", 1) + struct.pack("<d", 1.0))
    with pytest.raises(FormatError, match="dtype tag"):
        serialize.read_tensor(path)


def test_write_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(FormatError):
        serialize.write_tensor(tmp_path / "t.dkt", np.array([1, 2], dtype=np.int32))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    params = [
        ("stem.w", Tensor(rng.normal(size=(4, 1, 3, 3)))),
        ("head.w", Tensor(rng.normal(size=(4, 3)))),
        ("head.b", Tensor(rng.normal(size=(3,)))),
    ]
    ckpt = tmp_path / "ckpt"
    serialize.save_checkpoint(ckpt, params, config_text="num_classes=3\n")
    arrays, config_text = serialize.load_checkpoint(ckpt)
    assert config_text == "num_classes=3\n"
    assert set(arrays) == {"stem.w", "head.w", "head.b"}
    for name, p in params:
        assert arrays[name].tobytes() == p.data.tobytes()


def test_checkpoint_save_twice_is_byte_identical(tmp_path):
    params = [("w", Tensor(np.linspace(0, 1, 12).reshape(3, 4)))]
    a, b = tmp_path / "a", tmp_path / "b"
    serialize.save_checkpoint(a, params, "seed=1\n")
    serialize.save_checkpoint(b, params, "seed=1\n")
    for fname in sorted(os.listdir(a)):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()


def test_load_into_copies_values(tmp_path):
    src = [("w", Tensor(np.arange(6.0).reshape(2, 3)))]
    serialize.save_checkpoint(tmp_path / "c", src, "")
    arrays, _ = serialize.load_checkpoint(tmp_path / "c")
    live = {"w": Tensor(np.zeros((2, 3)), requires_grad=True)}
    serialize.load_into(list(live.items()), arrays)
    np.testing.assert_array_equal(live["w"].data, src[0][1].data)


def test_load_into_rejects_name_mismatch(tmp_path):
    serialize.save_checkpoint(tmp_path / "c", [("w", Tensor(np.zeros(2)))], "")
    arrays, _ = serialize.load_checkpoint(tmp_path / "c")
    with pytest.raises(FormatError, match="mismatch"):
        serialize.load_into(list({"other": Tensor(np.zeros(2))}.items()), arrays)


def test_load_into_rejects_shape_mismatch(tmp_path):
    serialize.save_checkpoint(tmp_path / "c", [("w", Tensor(np.zeros(2)))], "")
    arrays, _ = serialize.load_checkpoint(tmp_path / "c")
    with pytest.raises(FormatError, match="shape"):
        serialize.load_into(list({"w": Tensor(np.zeros(3))}.items()), arrays)


def test_load_checkpoint_rejects_non_checkpoint_dir(tmp_path):
    with pytest.raises(FormatError, match="manifest"):
        serialize.load_checkpoint(tmp_path)


def test_manifest_shape_cross_check(tmp_path):
    serialize.save_checkpoint(tmp_path / "c", [("w", Tensor(np.zeros((2, 3))))], "")
    manifest = tmp_path / "c" / serialize.MANIFEST_NAME
    text = manifest.read_text().replace("2x3", "3x2")
    manifest.write_text(text)
    with pytest.raises(FormatError, match="declared shape"):
        serialize.load_checkpoint(tmp_path / "c")
