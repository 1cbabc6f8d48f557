"""Checkpoint file format, round-trips and crash safety."""

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


def _blob(config: bytes, records, count=None) -> bytes:
    """A checkpoint file built by hand: records are (name, tag, shape, payload)."""
    out = b"DKC1" + struct.pack("<I", len(config)) + config
    out += struct.pack("<I", len(records) if count is None else count)
    for name, tag, shape, payload in records:
        key = name.encode()
        out += struct.pack(f"<H{len(key)}sBB{len(shape)}I", len(key), key, tag,
                           len(shape), *shape) + payload
    return out


def _write_blob(ckpt, blob: bytes) -> str:
    os.makedirs(ckpt, exist_ok=True)
    path = os.path.join(ckpt, serialize.FILE_NAME)
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


def _round_trip(ckpt, arr: np.ndarray) -> np.ndarray:
    serialize.save_checkpoint(ckpt, [("t", Tensor(arr))])
    arrays, _ = serialize.load_checkpoint(ckpt)
    return arrays["t"]


def test_header_layout_is_exact(tmp_path):
    w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    serialize.save_checkpoint(tmp_path, [("w", w)], "a=1\n")
    assert os.listdir(tmp_path) == ["checkpoint.dkt"]
    blob = (tmp_path / "checkpoint.dkt").read_bytes()
    assert blob == (b"DKC1" + struct.pack("<I", 4) + b"a=1\n" + struct.pack("<I", 1)
                    + struct.pack("<H", 1) + b"w"
                    + bytes([1, 2])  # f32 tag, rank
                    + struct.pack("<II", 2, 2) + struct.pack("<4f", 1.0, 2.0, 3.0, 4.0))


def test_f64_tag_is_zero(tmp_path):
    serialize.save_checkpoint(tmp_path, [("b", Tensor(np.array([7.0])))])
    blob = (tmp_path / "checkpoint.dkt").read_bytes()
    # magic(4) + config length(4) + count(4) + name length(2) + "b"(1) = 15 bytes
    assert blob[15] == 0
    # then tag(1) + rank(1) + one u32 dim(4)
    assert blob[21:] == struct.pack("<d", 7.0)


@given(
    hnp.arrays(
        st.sampled_from([np.float64, np.float32]),
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
        elements=st.floats(-1e6, 1e6, allow_nan=False, width=32),
    )
)
def test_round_trip_bit_exact(tmp_path_factory, arr):
    back = _round_trip(tmp_path_factory.mktemp("rt"), arr)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_round_trip_preserves_special_values(tmp_path):
    arr = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308])
    assert _round_trip(tmp_path, arr).tobytes() == arr.tobytes()


def test_write_accepts_tensor_objects(tmp_path):
    t = Tensor([[1.5, -2.5]], requires_grad=True)
    t.grad = np.full((1, 2), 9.0)
    serialize.save_checkpoint(tmp_path, [("t", t)])
    arrays, _ = serialize.load_checkpoint(tmp_path)
    np.testing.assert_array_equal(arrays["t"], t.data)  # the value, not the grad


def test_read_rejects_bad_magic(tmp_path):
    path = _write_blob(tmp_path, b"NOPE" + bytes(10))
    with pytest.raises(FormatError, match="magic") as err:
        serialize.load_checkpoint(tmp_path)
    assert path in str(err.value)


def test_read_rejects_truncated_file(tmp_path):
    serialize.save_checkpoint(tmp_path, [("w", Tensor(np.ones((2, 3)))),
                                         ("b", Tensor(np.ones(2, np.float32)))], "a=1\n")
    path = str(tmp_path / "checkpoint.dkt")
    blob = open(path, "rb").read()
    for size in range(len(blob)):
        _write_blob(tmp_path, blob[:size])
        with pytest.raises(FormatError) as err:
            serialize.load_checkpoint(tmp_path)
        assert path in str(err.value), size


def test_read_rejects_unknown_dtype_tag(tmp_path):
    _write_blob(tmp_path, _blob(b"", [("w", 9, (1,), struct.pack("<d", 1.0))]))
    with pytest.raises(FormatError, match="dtype tag 9"):
        serialize.load_checkpoint(tmp_path)


def test_write_rejects_unsupported_dtype(tmp_path):
    t = Tensor(np.zeros(2))
    t.data = np.array([1, 2], dtype=np.int32)
    with pytest.raises(FormatError, match="int32"):
        serialize.save_checkpoint(tmp_path / "c", [("w", t)])
    assert not os.path.exists(tmp_path / "c")


def test_write_rejects_dimension_beyond_u32_before_converting_it(tmp_path):
    # zero elements, so the array exists; the limit check must run before
    # the shape is packed, or numpy/struct raise their own errors
    arr = np.empty((0, 2**32))
    with pytest.raises(FormatError, match="too large for u32"):
        serialize.save_checkpoint(tmp_path, [("w", Tensor(arr))])


def test_read_rejects_bytes_after_last_tensor(tmp_path):
    blob = _blob(b"", [("w", 0, (1,), struct.pack("<d", 1.0))])
    path = _write_blob(tmp_path, blob + b"\0")
    with pytest.raises(FormatError, match="1 bytes after the last of 1 tensors") as err:
        serialize.load_checkpoint(tmp_path)
    assert path in str(err.value)


def test_read_rejects_duplicate_name(tmp_path):
    rec = ("w", 0, (1,), struct.pack("<d", 1.0))
    path = _write_blob(tmp_path, _blob(b"", [rec, rec]))
    with pytest.raises(FormatError, match="duplicate tensor 'w'") as err:
        serialize.load_checkpoint(tmp_path)
    assert path in str(err.value)


@pytest.mark.parametrize("count, message", [(3, "inside tensor 3 of 3"),
                                            (1, "bytes after the last of 1 tensors")])
def test_read_rejects_tensor_count_mismatch(tmp_path, count, message):
    recs = [(name, 0, (1,), struct.pack("<d", 1.0)) for name in ("a", "b")]
    path = _write_blob(tmp_path, _blob(b"", recs, count=count))
    with pytest.raises(FormatError, match=message) as err:
        serialize.load_checkpoint(tmp_path)
    assert path in str(err.value)


def test_read_rejects_config_that_is_not_utf8(tmp_path):
    _write_blob(tmp_path, _blob(b"\xff", []))
    with pytest.raises(FormatError, match="config text is not UTF-8"):
        serialize.load_checkpoint(tmp_path)


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
    assert list(arrays) == ["stem.w", "head.w", "head.b"]
    for name, p in params:
        assert arrays[name].tobytes() == p.data.tobytes()


def test_checkpoint_save_twice_is_byte_identical(tmp_path):
    params = [("w", Tensor(np.linspace(0, 1, 12).reshape(3, 4)))]
    a, b = tmp_path / "a", tmp_path / "b"
    serialize.save_checkpoint(a, params, "seed=1\n")
    serialize.save_checkpoint(b, params, "seed=1\n")
    assert os.listdir(a) == os.listdir(b) == ["checkpoint.dkt"]
    assert (a / "checkpoint.dkt").read_bytes() == (b / "checkpoint.dkt").read_bytes()


def test_save_replaces_previous_checkpoint(tmp_path):
    serialize.save_checkpoint(tmp_path, [("w", Tensor(np.zeros(3)))], "old\n")
    serialize.save_checkpoint(tmp_path, [("v", Tensor(np.ones(2)))], "new\n")
    arrays, text = serialize.load_checkpoint(tmp_path)
    assert text == "new\n"
    assert list(arrays) == ["v"]
    assert os.listdir(tmp_path) == ["checkpoint.dkt"]


def _save_previous(ckpt) -> bytes:
    serialize.save_checkpoint(ckpt, [("w", Tensor(np.arange(3.0)))], "old\n")
    return (ckpt / "checkpoint.dkt").read_bytes()


def _assert_previous_intact(ckpt, before: bytes) -> None:
    assert os.listdir(ckpt) == ["checkpoint.dkt"]  # no temp file left behind
    assert (ckpt / "checkpoint.dkt").read_bytes() == before
    arrays, text = serialize.load_checkpoint(ckpt)
    assert text == "old\n"
    np.testing.assert_array_equal(arrays["w"], np.arange(3.0))


def test_failed_save_on_bad_tensor_keeps_previous_checkpoint(tmp_path):
    before = _save_previous(tmp_path)
    bad = Tensor(np.zeros(2))
    bad.data = np.array([1, 2], dtype=np.int32)
    params = [("a", Tensor(np.ones(4))), ("b", Tensor(np.ones(2))), ("c", bad)]
    with pytest.raises(FormatError, match="parameter c"):
        serialize.save_checkpoint(tmp_path, params, "new\n")
    _assert_previous_intact(tmp_path, before)


def test_failed_replace_keeps_previous_checkpoint(tmp_path, monkeypatch):
    before = _save_previous(tmp_path)

    def fail(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(serialize.os, "replace", fail)
    with pytest.raises(OSError, match="simulated crash"):
        serialize.save_checkpoint(tmp_path, [("w", Tensor(np.ones(5)))], "new\n")
    monkeypatch.undo()
    _assert_previous_intact(tmp_path, before)


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
    # an empty directory, and one in the old manifest-plus-files layout
    (tmp_path / "old").mkdir()
    for name in ("manifest.txt", "config.txt", "param_0000.dkt"):
        (tmp_path / "old" / name).write_bytes(b"")
    for ckpt in (tmp_path, tmp_path / "old"):
        with pytest.raises(FormatError, match="no such file") as err:
            serialize.load_checkpoint(ckpt)
        assert os.path.join(ckpt, "checkpoint.dkt") in str(err.value)
