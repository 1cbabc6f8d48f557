"""Tensor engine: forward oracles, backward rules, finite-difference checks."""

import inspect
import os
import platform
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from gazemoe import tensor as T
from gazemoe.errors import ContractError, DimensionError
from gazemoe.tensor import Tensor, backward, finite_diff_check, no_grad


def sum_sq(y):
    return (y * y).sum()


def finite_floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# -- matmul --------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal((a @ b).data, b.data)


def test_matmul_zero():
    out = Tensor([[1.0, 2.0]]) @ Tensor([[0.0], [0.0]])
    assert np.array_equal(out.data, [[0.0]])


def test_matmul_hand_example():
    a = [[1.0, 2.0], [3.0, 4.0]]
    b = [[5.0], [6.0]]
    out = Tensor(a) @ Tensor(b)
    assert np.array_equal(out.data, [[17.0], [39.0]])
    assert np.array_equal(out.data, oracles.matmul_oracle(a, b))


def test_matmul_random_matches_oracle():
    rng = np.random.default_rng(7)
    for m, k, n in [(1, 1, 1), (2, 3, 4), (5, 2, 3)]:
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, oracles.matmul_oracle(a, b), rtol=1e-12)


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 5)))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_backward_exact():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = Tensor([[5.0], [6.0]], requires_grad=True)
    backward((a @ b).sum())
    # d sum(ab)/da = ones @ b.T ; d/db = a.T @ ones
    assert np.array_equal(a.grad, [[5.0, 6.0], [5.0, 6.0]])
    assert np.array_equal(b.grad, [[4.0], [6.0]])


# -- conv2d --------------------------------------------------------------


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 4, 5))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = T.conv2d(Tensor(x), Tensor(w))
    np.testing.assert_array_equal(out.data, x)


def test_conv2d_zero_input():
    out = T.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.ones((2, 1, 3, 3))))
    assert out.shape == (1, 2, 2, 2)
    assert np.all(out.data == 0.0)


def test_conv2d_window_sum_example():
    x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    w = np.ones((1, 1, 2, 2))
    out = T.conv2d(Tensor(x), Tensor(w))
    assert np.array_equal(out.data[0, 0], [[12.0, 16.0], [24.0, 28.0]])
    assert np.array_equal(out.data, oracles.conv2d_oracle(x, w))


# name -> (input shape, kernel shape, stride, pad). The named entries are the
# geometries the models build: residual 3x3 convs, strided 3x3 convs on odd
# and even sizes, the 1x1 strided projection, the one-channel stem and gaze
# encoder input, and a widening conv.
CONV_GEOMETRIES = {
    "1-0": ((2, 3, 7, 6), (4, 3, 3, 3), 1, 0),
    "1-1": ((2, 3, 7, 6), (4, 3, 3, 3), 1, 1),
    "2-0": ((2, 3, 7, 6), (4, 3, 3, 3), 2, 0),
    "2-1": ((2, 3, 7, 6), (4, 3, 3, 3), 2, 1),
    "3-2": ((2, 3, 7, 6), (4, 3, 3, 3), 3, 2),
    "3x3-s1-p1": ((2, 3, 6, 6), (3, 3, 3, 3), 1, 1),
    "3x3-s2-p1-odd": ((2, 2, 7, 5), (3, 2, 3, 3), 2, 1),
    "3x3-s2-p1-even": ((2, 2, 8, 6), (3, 2, 3, 3), 2, 1),
    "1x1-s2-p0": ((2, 3, 6, 7), (5, 3, 1, 1), 2, 0),
    "c1": ((3, 1, 8, 8), (4, 1, 3, 3), 2, 1),
    "o-gt-c": ((2, 2, 5, 5), (6, 2, 3, 3), 1, 1),
    # stride 1 with pad >= k: the input gradient takes the fold path
    "1x1-s1-p1": ((2, 3, 5, 4), (4, 3, 1, 1), 1, 1),
    # stride 1 with a non-square kernel also folds the input gradient
    "3x2-s1-p1": ((2, 3, 5, 6), (4, 3, 3, 2), 1, 1),
}
MODEL_CONV_GEOMETRIES = ["3x3-s1-p1", "3x3-s2-p1-odd", "3x3-s2-p1-even", "1x1-s2-p0", "c1",
                         "o-gt-c"]


@pytest.mark.parametrize("geometry", list(CONV_GEOMETRIES))
def test_conv2d_random_matches_oracle(geometry, monkeypatch):
    x_shape, w_shape, stride, pad = CONV_GEOMETRIES[geometry]
    # five samples at two per patch chunk: the chunk loop runs three times and
    # the last chunk is partial
    x_shape = (5,) + x_shape[1:]
    (_, C, H, W), (_, _, kh, kw) = x_shape, w_shape
    oh, ow = (H + 2 * pad - kh) // stride + 1, (W + 2 * pad - kw) // stride + 1
    monkeypatch.setattr(T, "_PATCH_BYTES", 2 * C * kh * kw * oh * ow * 8)
    rng = np.random.default_rng(stride * 10 + pad)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = T.conv2d(xt, wt, stride=stride, pad=pad)
    np.testing.assert_allclose(out.data, oracles.conv2d_oracle(x, w, stride, pad), atol=1e-12)
    g = rng.normal(size=out.shape)
    T.backward((out * Tensor(g)).sum())
    dx, dw = oracles.conv2d_grad_oracle(x, w, g, stride, pad)
    np.testing.assert_allclose(xt.grad, dx, atol=1e-12)
    np.testing.assert_allclose(wt.grad, dw, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geometry", list(CONV_GEOMETRIES))
def test_patch_chunks_match_slice_copy_oracle_bitwise(geometry, dtype, monkeypatch):
    x_shape, w_shape, stride, pad = CONV_GEOMETRIES[geometry]
    # five samples at two per chunk: the last chunk is partial, and with padding
    # the chunk buffer still holds a sample of the chunk before it
    x_shape = (5,) + x_shape[1:]
    (_, C, H, W), (_, _, kh, kw) = x_shape, w_shape
    oh, ow = (H + 2 * pad - kh) // stride + 1, (W + 2 * pad - kw) // stride + 1
    patch_bytes = 2 * C * kh * kw * oh * ow * np.dtype(dtype).itemsize
    monkeypatch.setattr(T, "_PATCH_BYTES", patch_bytes)
    x = np.random.default_rng(zlib.crc32(geometry.encode())).normal(size=x_shape).astype(dtype)
    # pad 0 gathers straight from the input, any other pad from the chunk buffer
    for p in sorted({0, pad}):
        ph, pw = (H + 2 * p - kh) // stride + 1, (W + 2 * p - kw) // stride + 1
        want = list(oracles.patch_chunks_oracle(x, kh, kw, stride, p, ph, pw, patch_bytes))
        got = [(b0, cols.copy()) for b0, cols in T._patch_chunks(x, kh, kw, stride, p, ph, pw)]
        assert [b0 for b0, _ in got] == [b0 for b0, _ in want]
        for (_, g), (_, w) in zip(got, want):
            assert g.dtype == dtype
            assert np.array_equal(g, w), (geometry, p)


def test_conv2d_float32_stays_float32():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(2, 3, 7, 6)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    # stride 2 folds the input gradient; stride 1 computes it as a transposed conv
    for stride, g_shape in ((2, (2, 4, 4, 3)), (1, (2, 4, 7, 6))):
        g = rng.normal(size=g_shape).astype(np.float32)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = T.conv2d(xt, wt, stride=stride, pad=1)
        T.backward((out * Tensor(g)).sum())
        assert out.dtype == xt.grad.dtype == wt.grad.dtype == np.float32
        dx, dw = oracles.conv2d_grad_oracle(x, w, g, stride=stride, pad=1)
        np.testing.assert_allclose(out.data, oracles.conv2d_oracle(x, w, stride, 1),
                                   rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(xt.grad, dx, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(wt.grad, dw, rtol=1e-5, atol=1e-5)


def test_conv2d_peak_memory_stays_near_input_size():
    # the dominant model conv; a whole [C*9, B*H*W] patch matrix is 9x the input
    rng = np.random.default_rng(64)
    x = Tensor(rng.normal(size=(64, 8, 32, 32)), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
    g = np.ones((64, 8, 32, 32))
    tracemalloc.start()
    try:
        out = T.conv2d(x, w, stride=1, pad=1)
        fwd_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        # the rule hands back the input and kernel gradients as functions
        dx, dw = (grad() for grad in out._backward(g))
        bwd_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # no whole-batch padded copy: the padded input is held one chunk at a time
    assert fwd_peak < 1.5 * x.data.nbytes, fwd_peak
    assert bwd_peak < 1.5 * x.data.nbytes, bwd_peak


def test_conv2d_input_without_grad_gets_none_and_same_kernel_grad():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 1, 8, 8))
    w = rng.normal(size=(4, 1, 3, 3))
    grads = []
    for x_requires_grad in (True, False):
        xt, wt = Tensor(x, requires_grad=x_requires_grad), Tensor(w, requires_grad=True)
        T.backward(sum_sq(T.conv2d(xt, wt, stride=2, pad=1)))
        grads.append(wt.grad)
    assert xt.grad is None
    np.testing.assert_array_equal(grads[0], grads[1])


def test_a_kernel_without_grad_gathers_no_patches_in_backward(monkeypatch, helper_jobs):
    # stride 2 folds the input gradient without patches; only a kernel
    # gradient would gather them, and this kernel needs none
    x, w, g, stride, pad = _three_chunk_case("2-1", np.float64, monkeypatch)
    want = _conv_run(x, w, g, stride, pad)[1]
    xt = Tensor(x, requires_grad=True)
    out = T.conv2d(xt, Tensor(w), stride=stride, pad=pad)
    gathers = []
    real = T._patch_chunks
    monkeypatch.setattr(T, "_patch_chunks", lambda *args: gathers.append(args) or real(*args))
    backward((out * Tensor(g)).sum())
    assert gathers == []
    assert xt.grad.tobytes() == want.tobytes()


def test_conv2d_kernel_too_large():
    with pytest.raises(DimensionError):
        T.conv2d(Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros((1, 1, 5, 5))))
    # padding can make the same kernel fit
    out = T.conv2d(Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros((1, 1, 5, 5))), pad=1)
    assert out.shape == (1, 1, 1, 1)


def test_conv2d_channel_mismatch():
    with pytest.raises(DimensionError):
        T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))))


# pad=-3 also leaves the kernel wider than the padded input; the pad is named first
@pytest.mark.parametrize("arg, value", [("stride", 0), ("stride", -1), ("pad", -1), ("pad", -3)],
                         ids=["stride=0", "stride=-1", "pad=-1", "pad=-3"])
def test_conv2d_bad_stride_or_pad(arg, value):
    with pytest.raises(DimensionError, match=f"conv2d {arg} must be >= [01], got {value}$"):
        T.conv2d(Tensor(np.zeros((2, 1, 6, 6))), Tensor(np.zeros((1, 1, 2, 2))), **{arg: value})


# subsets of the fused epilogue; the layers use bias, bias + relu and all three
EPILOGUES = [
    dict(bias=True, residual=False, relu=False),
    dict(bias=False, residual=False, relu=True),
    dict(bias=True, residual=False, relu=True),
    dict(bias=True, residual=True, relu=False),
    dict(bias=True, residual=True, relu=True),
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geometry", list(CONV_GEOMETRIES))
def test_conv2d_epilogue_matches_unfused_ops_bitwise(geometry, dtype, monkeypatch):
    x_shape, w_shape, stride, pad = CONV_GEOMETRIES[geometry]
    # five samples at two per patch chunk, as in the oracle test
    x_shape = (5,) + x_shape[1:]
    (B, C, H, W), (O, _, kh, kw) = x_shape, w_shape
    oh, ow = (H + 2 * pad - kh) // stride + 1, (W + 2 * pad - kw) // stride + 1
    monkeypatch.setattr(T, "_PATCH_BYTES", 2 * C * kh * kw * oh * ow * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(zlib.crc32(geometry.encode()))
    data = {name: rng.normal(size=shape).astype(dtype) for name, shape in
            (("x", x_shape), ("w", w_shape), ("b", (O,)), ("r", (B, O, oh, ow)))}
    g = Tensor(rng.normal(size=(B, O, oh, ow)).astype(dtype))

    def run(epilogue, fused):
        t = {name: Tensor(a, requires_grad=True) for name, a in data.items()}
        bias = t["b"] if epilogue["bias"] else None
        residual = t["r"] if epilogue["residual"] else None
        if fused:
            out = T.conv2d(t["x"], t["w"], stride, pad, bias=bias, residual=residual,
                           relu=epilogue["relu"])
        else:
            out = T.conv2d(t["x"], t["w"], stride=stride, pad=pad)
            if bias is not None:
                out = out + bias.reshape(1, O, 1, 1)
            if residual is not None:
                out = out + residual
            if epilogue["relu"]:
                out = T.relu(out)
        backward((out * g).sum())
        return out.data, {name: v.grad for name, v in t.items()}

    for epilogue in EPILOGUES:
        (fused, fused_grads), (plain, plain_grads) = run(epilogue, True), run(epilogue, False)
        assert fused.dtype == dtype
        assert np.array_equal(fused, plain), epilogue
        for name, grad in plain_grads.items():
            if grad is None:
                assert fused_grads[name] is None, (epilogue, name)
            else:
                assert fused_grads[name].dtype == dtype
                assert np.array_equal(fused_grads[name], grad), (epilogue, name)


def test_conv2d_epilogue_rejects_bad_bias_and_residual_shapes():
    x, w = Tensor(np.zeros((2, 3, 5, 5))), Tensor(np.zeros((4, 3, 3, 3)))
    for bias in (np.zeros(3), np.zeros(5), np.zeros((1, 4, 1, 1))):
        with pytest.raises(DimensionError, match="bias"):
            T.conv2d(x, w, pad=1, bias=Tensor(bias))
    # the output is [2, 4, 5, 5] at pad 1 and [2, 4, 3, 3] at pad 0
    for residual, pad in (((2, 4, 3, 3), 1), ((2, 4, 5, 5), 0), ((1, 4, 5, 5), 1),
                          ((2, 3, 5, 5), 1)):
        with pytest.raises(DimensionError, match="residual"):
            T.conv2d(x, w, pad=pad, residual=Tensor(np.zeros(residual)))


# -- conv2d and the helper thread ------------------------------------------


def _conv_run(x, w, g, stride, pad, b=None):
    """(output, dx, dw) of one conv2d forward and backward, then db if a bias ``b`` is given."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    out = T.conv2d(xt, wt, stride=stride, pad=pad, bias=bt)
    backward((out * Tensor(g)).sum())
    return (out.data, xt.grad, wt.grad) + (() if bt is None else (bt.grad,))


def _three_chunk_case(geometry, dtype, monkeypatch, seed=0):
    """(x, w, g, stride, pad) at B=5 with two samples per patch chunk: three chunks."""
    x_shape, w_shape, stride, pad = CONV_GEOMETRIES[geometry]
    x_shape = (5,) + x_shape[1:]
    (B, C, H, W), (O, _, kh, kw) = x_shape, w_shape
    oh, ow = (H + 2 * pad - kh) // stride + 1, (W + 2 * pad - kw) // stride + 1
    monkeypatch.setattr(T, "_PATCH_BYTES", 2 * C * kh * kw * oh * ow * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(zlib.crc32(geometry.encode()) + seed)
    return (rng.normal(size=x_shape).astype(dtype), rng.normal(size=w_shape).astype(dtype),
            rng.normal(size=(B, O, oh, ow)).astype(dtype), stride, pad)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("geometry", list(CONV_GEOMETRIES))
def test_conv2d_split_over_the_helper_matches_serial_bitwise(geometry, dtype, monkeypatch,
                                                             helper_jobs):
    x, w, g, stride, pad = _three_chunk_case(geometry, dtype, monkeypatch)
    b = np.random.default_rng(len(geometry)).normal(size=w.shape[0]).astype(dtype)
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(T, "usable_cpus", lambda: 1)
        serial = _conv_run(x, w, g, stride, pad, b)
    assert helper_jobs == []
    split = _conv_run(x, w, g, stride, pad, b)
    # the forward runs on the calling thread; the backward hands the helper
    # one job, its second walker
    assert helper_jobs == ["walker"] and helper_jobs.all_done()
    for got, want in zip(split, serial, strict=True):
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


# 3x3-s1-p1 takes the transposed-dx conv, 2-1 the strided fold
@pytest.mark.parametrize("geometry", ["3x3-s1-p1", "2-1"])
def test_a_backward_walk_hands_the_helper_one_walker_and_no_split_job(geometry, monkeypatch,
                                                                      helper_jobs):
    x, w, g, stride, pad = _three_chunk_case(geometry, np.float64, monkeypatch)
    b = np.random.default_rng(1).normal(size=w.shape[0])

    def run():
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = T.conv2d(xt, wt, stride=stride, pad=pad, bias=bt)
        assert helper_jobs == []  # the forward submits nothing
        backward((out * Tensor(g)).sum())
        return out.data, xt.grad, wt.grad, bt.grad

    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(T, "usable_cpus", lambda: 1)
        serial = run()
    split = run()
    # the input gradient's conv runs inline on whichever walker runs the rule
    assert helper_jobs == ["walker"] and helper_jobs.all_done()
    for got, want in zip(split, serial, strict=True):
        assert got.tobytes() == want.tobytes()


def _wrap_kernel_grad(out, wrap):
    """Make ``out``'s conv rule return ``wrap(fn)`` for its kernel-gradient function ``fn``."""
    rule = out._backward

    def back(g):
        grads = rule(g)
        grads[1] = wrap(grads[1])
        return grads

    out._backward = back


@pytest.mark.parametrize("weight", ["reshape", "scale"])
def test_a_non_leaf_conv_weight_gets_the_serial_gradient_bytes(weight, monkeypatch,
                                                               helper_jobs):
    # the kernel gradient is a queued item for a non-leaf weight too; the walk
    # adds its result into the weight's adjoint, and the weight's rule runs after
    x, w, g, stride, pad = _three_chunk_case("2-1", np.float64, monkeypatch)
    ran_on = []  # the thread that ran each queued kernel gradient

    def run():
        xt, wl = Tensor(x, requires_grad=True), Tensor(w.reshape(len(w), -1), requires_grad=True)
        wt = wl.reshape(w.shape) if weight == "reshape" else T.scale(wl, 0.5).reshape(w.shape)
        out = T.conv2d(xt, wt, stride=stride, pad=pad)
        _wrap_kernel_grad(out, lambda fn: lambda: ran_on.append(threading.current_thread()) or fn())
        backward((out * Tensor(g)).sum())
        return out.data, xt.grad, wl.grad

    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(T, "usable_cpus", lambda: 1)
        serial = run()
    split = run()
    # the forward submits nothing, and the walk hands the helper its second walker
    assert helper_jobs == ["walker"] and helper_jobs.all_done()
    # once per run, by a walker; on one CPU this thread walks alone
    assert len(ran_on) == 2 and ran_on[0] is threading.current_thread()
    for got, want in zip(split, serial, strict=True):
        assert got.tobytes() == want.tobytes()


# a leaf's kernel gradient lands in ``grads``, a non-leaf's on an adjoint edge
@pytest.mark.parametrize("weight", ["leaf", "scale"])
def test_an_error_in_a_deferred_task_propagates_from_backward(weight, monkeypatch,
                                                              helper_jobs):
    x, w, g, stride, pad = _three_chunk_case("2-1", np.float64, monkeypatch)
    xt, wl = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    bt = Tensor(np.ones(len(w)), requires_grad=True)
    wt = wl if weight == "leaf" else T.scale(wl, 1.0)
    out = T.conv2d(xt, wt, stride=stride, pad=pad, bias=bt)
    real = T._patch_chunks

    def chunks(*args):
        # the strided fold gathers no patches: only the kernel-gradient task
        # calls this in the backward, on whichever walker takes it
        time.sleep(0.05)  # the other walker has moved on
        raise RuntimeError("kernel gradient failed")

    monkeypatch.setattr(T, "_patch_chunks", chunks)
    with pytest.raises(RuntimeError, match="kernel gradient failed"):
        backward((out * Tensor(g)).sum())
    assert helper_jobs[-1] == "walker"
    assert helper_jobs.all_done()  # nothing queued or running on the helper
    assert xt.grad is None and wl.grad is None and bt.grad is None  # no .grad changed
    monkeypatch.setattr(T, "_patch_chunks", real)
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(T, "usable_cpus", lambda: 1)
        want = _conv_run(x, w, g, stride, pad)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(_conv_run(x, w, g, stride, pad), want))


def test_a_rule_that_raises_mid_walk_waits_for_the_forked_tasks(monkeypatch, helper_jobs):
    x, w, g, stride, pad = _three_chunk_case("3x3-s1-p1", np.float64, monkeypatch)
    x0, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    xt = T.scale(x0, 1.0)
    out = T.conv2d(xt, wt, stride=stride, pad=pad)
    finished = []

    def slowly(fn):
        def slow():
            time.sleep(0.1)  # the kernel gradient is still running when the walk fails
            grad = fn()
            finished.append(threading.current_thread())
            return grad

        return slow

    def fail(g):
        raise RuntimeError("rule failed")

    _wrap_kernel_grad(out, slowly)
    xt._backward = fail  # ranked after the conv's kernel-gradient task
    with pytest.raises(RuntimeError, match="rule failed"):
        backward((out * Tensor(g)).sum())
    assert helper_jobs == ["walker"]
    assert helper_jobs.all_done() and len(finished) == 1
    assert x0.grad is None and wt.grad is None


def _fan_out_grads(x0, w0, k0, walk=backward):
    """The leaves' gradients of a graph where ``h`` feeds seven ops, ``h * h`` among them,
    the leaves ``x`` and ``w`` get four and three gradients, ``x * x`` among them, and
    ``k`` is one conv's kernel and, scaled, another's."""
    x, w, k = (Tensor(a, requires_grad=True) for a in (x0, w0, k0))
    h = x @ w
    conv = T.conv2d(h.reshape(4, 4, 8, 8), k, pad=1)  # a leaf kernel
    # a non-leaf kernel: its queued gradient and ``ks * ks``'s two share one adjoint
    ks = T.scale(k, 0.5)
    conv_ks = T.conv2d(h.reshape(4, 4, 8, 8), ks, pad=1)
    parts = [h * h, T.relu(h) @ w, T.sigmoid(h) * x, T.softmax(h, axis=1) * h.sum(axis=0),
             conv.reshape(16, 48) * 1e3, (x * x) @ w, conv_ks.reshape(16, 48), ks * ks]
    loss = parts[0].sum()
    for part in parts[1:]:
        loss = loss + part.sum()
    walk(loss)
    return x.grad, w.grad, k.grad


def test_fan_out_walks_on_one_or_two_threads_give_the_serial_bytes(monkeypatch, helper_jobs):
    rng = np.random.default_rng(4)
    # magnitudes far apart, so adding the contributions in another order shows
    w = rng.normal(size=(64, 64)) * 10.0 ** rng.integers(-4, 4, (64, 64))
    leaves = (rng.normal(size=(16, 64)), w, rng.normal(size=(3, 4, 3, 3)))
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(T, "usable_cpus", lambda: 1)
        want = _fan_out_grads(*leaves, walk=oracles.serial_backward_oracle)
        one = _fan_out_grads(*leaves)
    assert helper_jobs == []
    assert all(a.tobytes() == b.tobytes() for a, b in zip(one, want, strict=True))
    ran_on = set()  # the threads that ran a node's rule
    real_run = T._Walk._run

    def run(walk, i, g):
        ran_on.add(threading.current_thread())
        real_run(walk, i, g)

    monkeypatch.setattr(T._Walk, "_run", run)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL between the walkers at every chance
    try:
        runs = [_fan_out_grads(*leaves) for _ in range(50)]
    finally:
        sys.setswitchinterval(interval)
    assert helper_jobs == ["walker"] * 50 and helper_jobs.all_done()
    assert len(ran_on) == 2  # both walkers ran rules
    for got in runs:
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_rule_that_raises_on_either_thread_changes_no_grad(failing, helper_jobs):
    rng = np.random.default_rng(5)
    x, y, c = (Tensor(rng.normal(size=(6, 5)), requires_grad=True) for _ in range(3))
    c.grad = np.ones((6, 5))
    before = c.grad.copy()
    p, q = T.scale(x, 2.0), T.scale(y, 3.0)
    # c gets its gradient before either branch's rule runs
    loss = T.sigmoid(p).sum() + (T.relu(q) * c).sum()
    both = threading.Barrier(2, timeout=10)  # each walker holds one branch's rule
    caller = threading.current_thread()

    def gate(back):
        def rule(g):
            both.wait()
            if (threading.current_thread() is caller) == (failing == "caller"):
                raise RuntimeError(f"rule failed on the {failing}")
            return back(g)

        return rule

    p._backward, q._backward = gate(p._backward), gate(q._backward)
    with pytest.raises(RuntimeError, match=f"failed on the {failing}"):
        backward(loss)
    assert helper_jobs == ["walker"] and helper_jobs.all_done()  # nothing queued
    assert x.grad is None and y.grad is None and loss.grad is None
    assert c.grad.tobytes() == before.tobytes()
    assert T._state.shares


def _within(seconds, fn):
    """``fn()``, run on a thread of its own that must finish within ``seconds``."""
    out = []
    runner = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "backward did not finish"
    assert out, "fn raised"
    return out[0]


def test_backward_on_the_helper_or_in_a_share_walks_alone(monkeypatch, helper_jobs):
    # the helper never waits for the helper: a walk there, or on a thread that
    # is draining a share, takes no second walker
    x, w, g, stride, pad = _three_chunk_case("3x3-s1-p1", np.float64, monkeypatch)

    def run(_=None):
        return _conv_run(x, w, g, stride, pad)[1:]

    want = run()
    del helper_jobs[:]
    on_helper = _within(30, lambda: T._helper.submit(run).result())
    in_share = _within(30, lambda: T._split_map(run, [0, 1, 2]))
    assert helper_jobs[0] == "run" and len(helper_jobs) == 2  # no walker from inside either
    for got in [on_helper] + in_share:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))


def test_split_map_returns_results_in_item_order(helper_jobs):
    def slow_square(i):
        time.sleep(0.002 * (i % 3))  # items finish out of order
        return i * i

    assert T._split_map(slow_square, range(12)) == [i * i for i in range(12)]
    assert len(helper_jobs) == 1 and helper_jobs[0][0] == 0
    assert T._state.shares


def test_a_nested_split_map_runs_inline(helper_jobs):
    def outer(i):
        ran_on = []

        def inner(j):
            ran_on.append(threading.current_thread())
            return 10 * i + j

        results = T._split_map(inner, [0, 1, 2])
        assert ran_on == [threading.current_thread()] * 3
        time.sleep(0.05)  # so both threads take an outer item
        return results

    assert T._split_map(outer, [1, 2, 3]) == [[10, 11, 12], [20, 21, 22], [30, 31, 32]]
    # one job, the outer one; the helper ran item 1 and its inner items itself
    assert len(helper_jobs) == 1 and helper_jobs[0][0] == 1
    assert T._state.shares


def test_split_map_raises_the_error_a_serial_loop_would(helper_jobs):
    # the helper takes item 0 and fails late; this thread fails item 1 at once
    def fail(i):
        time.sleep(0.05 * (i == 0))
        raise RuntimeError(f"item {i} failed")

    with pytest.raises(RuntimeError, match="item 0 failed"):
        T._split_map(fail, [0, 1, 2])
    assert helper_jobs[0][0] == 0 and helper_jobs.all_done()
    assert T._state.shares


def test_a_share_queued_behind_a_busy_helper_runs_here_without_waiting(helper_jobs):
    # this thread takes both items while the helper is busy, then cancels the
    # helper's still-queued run rather than wait for the helper to get to it
    release = threading.Event()
    busy = T._helper.submit(release.wait, 10)
    try:
        got = T._split_map(lambda i: (i * i, threading.current_thread()), [3, 4])
        assert not busy.done()
    finally:
        release.set()
    assert busy.result()
    assert got == [(9, threading.current_thread()), (16, threading.current_thread())]
    assert helper_jobs == ["wait", []] and helper_jobs.all_done()  # the helper ran no item


def test_on_helper_runs_inline_where_a_share_would_not(monkeypatch, helper_jobs):
    here = threading.current_thread
    assert T._on_helper(here).result() is not here()
    # from the helper, and from this thread inside a share, the job runs inline
    assert T._split_map(lambda _: T._on_helper(here).result() is here(), [0, 1]) == [True, True]
    monkeypatch.setattr(T, "usable_cpus", lambda: 1)
    ran = T._on_helper(here)
    assert ran.done() and ran.result() is here()
    failed = T._on_helper(int, "x")  # the error waits in the future
    with pytest.raises(ValueError, match="invalid literal"):
        failed.result()
    assert helper_jobs[0] == "current_thread" and len(helper_jobs) == 2


def test_split_map_of_one_item_or_on_one_cpu_never_submits(monkeypatch, helper_jobs):
    assert T._split_map(str, [7]) == ["7"]
    assert T._split_map(str, []) == []
    monkeypatch.setattr(T, "usable_cpus", lambda: 1)
    assert T._split_map(str, [1, 2, 3]) == ["1", "2", "3"]
    assert helper_jobs == []


def test_one_chunk_conv_shares_only_its_backward_walk_with_the_helper(monkeypatch, helper_jobs):
    rng = np.random.default_rng(1)
    # one patch chunk, then one sample per chunk; stride 2 folds the input
    # gradient, stride 1 runs it as a transposed conv
    for patch_bytes in (1 << 20, 1):
        monkeypatch.setattr(T, "_PATCH_BYTES", patch_bytes)
        for stride in (1, 2):
            _conv_run(rng.normal(size=(4, 3, 8, 8)), rng.normal(size=(5, 3, 3, 3)),
                      rng.normal(size=(4, 5, 8 // stride, 8 // stride)), stride, 1)
    assert helper_jobs == ["walker"] * 4


def test_two_threads_calling_conv2d_at_once_both_get_serial_results(monkeypatch,
                                                                     helper_jobs):
    # the 3x3-s1-p1 geometry takes the transposed-dx path, 2-1 the fold
    cases = [_three_chunk_case(name, np.float64, monkeypatch, seed)
             for seed, name in enumerate(("3x3-s1-p1", "2-1"))]
    monkeypatch.setattr(T, "_PATCH_BYTES", 1)  # one sample per chunk for both
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(T, "usable_cpus", lambda: 1)
        want = [_conv_run(*case) for case in cases]
    start = threading.Barrier(2)
    got = [[], []]

    def work(i):
        start.wait(10)
        for _ in range(20):
            got[i].append(_conv_run(*cases[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over at every chance
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # the forwards submit nothing; each backward hands the helper one second
    # walker, which joins the walk if the helper is free before it ends
    assert helper_jobs == ["walker"] * (2 * 20)
    for runs, ref in zip(got, want):
        assert len(runs) == 20
        for run in runs:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(run, ref))


def test_a_forked_child_starts_a_helper_of_its_own():
    if not hasattr(os, "fork"):
        pytest.skip("os.fork is POSIX-only")
    # the parent's helper thread is not copied into a child; a child that used
    # the parent's pool object would wait for it forever
    code = textwrap.dedent("""
        import os, signal, threading, warnings
        from gazemoe import tensor as T

        T.usable_cpus = lambda: 2

        def ran_on(_):
            # each thread holds one of the two items, so each runs one
            both.wait()
            return threading.get_ident()

        def helper_ran_one():  # a two-item _split_map ran one item off this thread
            global both
            both = threading.Barrier(2, timeout=10)
            return len(set(T._split_map(ran_on, [0, 1])) - {threading.get_ident()}) == 1

        assert helper_ran_one()  # the parent's helper thread has started
        parent_pool = T._helper
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:
            signal.alarm(30)  # a hung child dies, rather than outlive the test
            ok = T._helper is not parent_pool and helper_ran_one()
            os._exit(0 if ok else 1)
        print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """)
    proc = _python(code)
    assert proc.stdout.strip() == "0", proc.stderr


def test_importing_the_engine_starts_no_thread():
    # the helper's pool is built at import; its thread starts at the first submit
    code = """
import threading
from gazemoe import tensor as T
before = threading.active_count()
T._helper.submit(int).result()
print(before, threading.active_count())
"""
    proc = _python(code)
    assert proc.stdout.strip() == "1 2", proc.stderr


def _python(code: str) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter that imports this tree's gazemoe."""
    src = os.path.dirname(os.path.dirname(T.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60)


# -- pooling -------------------------------------------------------------


def test_global_avg_pool_values():
    # the model pools [B,C,H,W] feature maps as a mean over the spatial axes
    assert np.all(Tensor(np.full((2, 3, 4, 4), 7.0)).mean(axis=(2, 3)).data == 7.0)
    assert np.all(Tensor(np.zeros((1, 2, 3, 3))).mean(axis=(2, 3)).data == 0.0)
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2))
    assert x.mean(axis=(2, 3)).item() == 2.5


# -- activations ---------------------------------------------------------


def test_sigmoid_at_zero():
    assert T.sigmoid(Tensor(0.0)).item() == 0.5


def test_sigmoid_extreme_inputs_stay_finite():
    out = T.sigmoid(Tensor([-1e3, -50.0, 50.0, 1e3])).data
    assert np.all(np.isfinite(out))
    assert np.all((out >= 0.0) & (out <= 1.0))
    np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 1.0], atol=1e-20)


def test_softmax_uniform_rows():
    out = T.softmax(Tensor([[3.0, 3.0, 3.0, 3.0]])).data
    np.testing.assert_array_equal(out, [[0.25, 0.25, 0.25, 0.25]])


def test_softmax_two_logit_example():
    out = T.softmax(Tensor([[1.0, 2.0]])).data[0]
    np.testing.assert_allclose(out, [0.26894, 0.73106], atol=1e-5)
    np.testing.assert_allclose(out, oracles.softmax_oracle([1.0, 2.0]), rtol=1e-12)


def test_softmax_no_overflow_at_1e3():
    out = T.softmax(Tensor([[1e3, -1e3, 0.0]])).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)


@pytest.mark.parametrize("op", [T.softmax, T.log_softmax], ids=lambda op: op.__name__)
@pytest.mark.parametrize("axis", [2, -3])
def test_softmax_bad_axis(op, axis):
    with pytest.raises(DimensionError, match=f"axis {axis} invalid"):
        op(Tensor([[1.0, 2.0]]), axis=axis)


def test_relu_forward():
    out = T.relu(Tensor([-2.0, 0.0, 3.0])).data
    np.testing.assert_array_equal(out, [0.0, 0.0, 3.0])


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    np.testing.assert_allclose(
        T.log_softmax(Tensor(x)).data, np.log(T.softmax(Tensor(x)).data), atol=1e-12
    )


# -- backward ------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True)
    backward(x.sum())
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_zero_loss_gives_zeros():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward((x * 0.0).sum())
    assert np.array_equal(x.grad, np.zeros(3))


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward((x * x).sum())
    assert np.array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        backward(x * 2.0)


def test_backward_rejects_detached_loss():
    with pytest.raises(ContractError):
        backward(Tensor(1.0))


def test_repeated_backward_accumulates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward((x * x).sum())
    backward((x * x).sum())
    assert np.array_equal(x.grad, [4.0, 8.0])
    x.zero_grad()
    assert x.grad is None


def test_backward_frees_the_graph_it_walks():
    x = Tensor(np.random.default_rng(2).normal(size=(256, 256)), requires_grad=True)
    tracemalloc.start()
    try:
        loss = ((x * 2.0) * (x + 1.0)).sum()
        backward(loss)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # x.grad is the only array left; a kept graph adds its three intermediates
    assert retained < 1.5 * x.data.nbytes, retained / x.data.nbytes


def test_second_backward_over_a_consumed_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    backward(loss)
    with pytest.raises(ContractError, match="already differentiated"):
        backward(loss)
    h = x * 3.0
    first = h.sum()
    backward(first)
    # a new graph built on a consumed intermediate cannot reach x through it
    with pytest.raises(ContractError, match="already differentiated"):
        backward((h * h).sum())
    # and is refused before any adjoint lands: x also feeds it directly, and
    # a walk that ran the product's rule first would add h to x.grad
    x_grad, first_grad = x.grad.tobytes(), first.grad.tobytes()
    loss = (h * x).sum()
    with pytest.raises(ContractError, match="already differentiated"):
        backward(loss)
    assert (x.grad.tobytes(), first.grad.tobytes()) == (x_grad, first_grad)
    assert loss.grad is None


def test_allocator_keeps_freed_pages_mapped():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the allocator policy is set through glibc's mallopt")
    code = textwrap.dedent("""
        import resource
        import numpy as np
        import gazemoe.tensor

        def churn(rounds):
            for _ in range(rounds):
                arrays = [np.ones(1 << 19) for _ in range(8)]  # eight 4 MiB arrays
                del arrays

        churn(1)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        churn(20)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = os.path.dirname(os.path.dirname(T.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    # glibc's defaults hand freed arrays' pages back to the kernel, so later
    # rounds fault them in again (about 81k faults over the 20 rounds)
    assert int(proc.stdout) < 1000, proc.stdout


def test_allocator_shares_one_arena_across_threads():
    if platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/status"):
        pytest.skip("the arena cap is set through glibc's mallopt; VmHWM is Linux's")
    code = textwrap.dedent("""
        import threading
        import numpy as np
        import gazemoe.tensor

        def peak_kb():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh
                            if line.startswith("VmHWM:"))

        def churn():
            for _ in range(5):
                arrays = [np.ones(1 << 19) for _ in range(8)]  # eight 4 MiB arrays
                del arrays

        before = peak_kb()
        worker = threading.Thread(target=churn)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        churn()
        print(peak_kb() - before)
    """)
    src = os.path.dirname(os.path.dirname(T.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    # with an arena per thread, the worker's freed 32 MiB stays in its own
    # arena and the main thread's churn maps another 32 MiB (about 2x one churn)
    one_churn_kb = 8 * 4 * 1024
    assert int(proc.stdout) < 1.5 * one_churn_kb, proc.stdout


def test_backward_diamond_graph():
    x = Tensor([2.0], requires_grad=True)
    a = x + 1.0
    b = x * 2.0
    backward((a * b).sum())
    # d(ab)/dx = b + 2a = 4 + 6
    assert np.array_equal(x.grad, [10.0])


def test_backward_broadcast_add():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    bias = Tensor(np.zeros(3), requires_grad=True)
    backward((x + bias).sum())
    assert np.array_equal(x.grad, np.ones((2, 3)))
    assert np.array_equal(bias.grad, [2.0, 2.0, 2.0])


def test_no_grad_blocks_recording():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = x * 3.0
    assert not y.requires_grad and y.is_leaf


def test_no_grad_holds_only_on_its_own_thread():
    x = Tensor([1.0], requires_grad=True)
    held, release = threading.Event(), threading.Event()
    inside = []

    def hold():
        with no_grad():
            inside.append(x * 3.0)
            held.set()
            release.wait(10)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(10)
        y = x * 3.0  # thread A holds no_grad; this thread still records
    finally:
        release.set()
        holder.join(10)
    assert not holder.is_alive()
    assert y.requires_grad and not y.is_leaf
    assert not inside[0].requires_grad and inside[0].is_leaf

    # and a thread started under this thread's no_grad records
    with no_grad():
        fresh = []
        worker = threading.Thread(target=lambda: fresh.append(x * 3.0))
        worker.start()
        worker.join(10)
        assert not worker.is_alive()
        assert not (x * 3.0).requires_grad
    assert fresh[0].requires_grad and not fresh[0].is_leaf


# -- index ops -----------------------------------------------------------


def test_take_rows_forward_and_grad():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = T.take_rows(x, np.array([2, 0, 0]))
    assert np.array_equal(out.data, [[4.0, 5.0], [0.0, 1.0], [0.0, 1.0]])
    backward(out.sum())
    # row 0 selected twice -> gradient 2
    assert np.array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("idx", [[0, 2, 5], [5, 0, 2], [2, 2, 0], [-6, 0, 3], [1], []],
                         ids=["sorted", "unsorted", "repeated", "aliased-negative", "one",
                              "empty"])
def test_take_rows_grad_matches_add_at_bitwise(idx):
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(6, 2, 3)), requires_grad=True)
    idx = np.array(idx, dtype=np.int64)
    g = rng.normal(size=(len(idx), 2, 3))
    g[..., 0] = -0.0  # the sum must keep add.at's sign of zero too
    (gx,) = T.take_rows(x, idx)._backward(g)
    expected = np.zeros_like(x.data)
    np.add.at(expected, idx, g)
    assert np.array_equal(gx.view(np.uint64), expected.view(np.uint64))


def test_put_rows_forward_and_grad():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    out = T.put_rows([x], [np.array([2, 0])], num_rows=3)
    assert np.array_equal(out.data, [[3.0, 4.0], [0.0, 0.0], [1.0, 2.0]])
    backward((out * Tensor([[1.0, 1.0], [9.0, 9.0], [2.0, 2.0]])).sum())
    assert np.array_equal(x.grad, [[2.0, 2.0], [1.0, 1.0]])


def test_put_rows_sums_overlapping_blocks_in_list_order():
    rng = np.random.default_rng(11)
    rows = [np.array([0, 3, 4]), np.array([1, 3]), np.array([4, 0, 3, 5])]
    parts = [Tensor(rng.normal(size=(len(r), 2, 3)), requires_grad=True) for r in rows]
    out = T.put_rows(parts, rows, num_rows=7)
    want = np.zeros((7, 2, 3))
    for part, r in zip(parts, rows):
        want[r] += part.data
    assert out.data.tobytes() == want.tobytes()  # row 3 sums three blocks, row 6 none
    assert out._parents == tuple(parts)
    g = rng.normal(size=(7, 2, 3))
    grads = out._backward(g)
    assert len(grads) == len(parts)
    for grad, r in zip(grads, rows):
        assert grad.tobytes() == g[r].tobytes()


# -- shape ops -----------------------------------------------------------


def test_reshape_and_transpose_grads():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward((x.reshape(3, 2).T * Tensor(np.arange(6.0).reshape(2, 3))).sum())
    assert x.grad.shape == (2, 3)
    with pytest.raises(DimensionError):
        T.transpose(Tensor(np.zeros((2, 2, 2))))


def test_concat_forward_and_grad():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    b = Tensor([[3.0]], requires_grad=True)
    out = T.concat([a, b], axis=1)
    assert np.array_equal(out.data, [[1.0, 2.0, 3.0]])
    backward((out * Tensor([[10.0, 20.0, 30.0]])).sum())
    assert np.array_equal(a.grad, [[10.0, 20.0]])
    assert np.array_equal(b.grad, [[30.0]])


# -- finite differences --------------------------------------------------


def test_finite_diff_quadratic():
    theta = Tensor([1.0, 2.0], requires_grad=True)
    report = finite_diff_check(lambda: (theta * theta).sum(), [("theta", theta)], eps=1e-5)
    assert report.max_rel_err < 1e-8
    assert report.passed
    assert "PASS" in str(report)


def test_finite_diff_constant_function():
    theta = Tensor([1.0, 2.0], requires_grad=True)
    report = finite_diff_check(lambda: (theta * 0.0).sum(), [("theta", theta)])
    assert report.max_rel_err == 0.0


def test_finite_diff_rejects_nondeterministic_f():
    theta = Tensor([1.0], requires_grad=True)
    rng = np.random.default_rng(0)

    def f():
        return (theta * float(rng.normal())).sum()

    with pytest.raises(ContractError):
        finite_diff_check(f, [("theta", theta)])


def test_finite_diff_rejects_bad_eps():
    theta = Tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError):
        finite_diff_check(lambda: theta.sum(), [("theta", theta)], eps=0.0)


def test_finite_diff_report_flags_wrong_gradient():
    # a deliberately wrong "gradient": perturb f after autodiff ran
    theta = Tensor([1.0, 2.0], requires_grad=True)
    report = finite_diff_check(
        lambda: (theta * theta * theta).sum(), [("theta", theta)], tol=1e-30
    )
    assert not report.passed
    assert "FAIL" in str(report)


def test_finite_diff_report_shows_one_sided_differences_at_a_kink():
    # relu has slope 1 right of 0 and 0 left of it: the central difference
    # (0.5) matches neither side, and the report shows both
    x = Tensor([0.0, 0.5, -0.3], requires_grad=True)
    report = finite_diff_check(lambda: T.relu(x).sum(), [("x", x)])
    assert (report.worst_param, report.worst_coord) == ("x", 0)
    assert report.forward_diff == pytest.approx(1.0, abs=1e-9)
    assert report.backward_diff == 0.0
    assert "1.0000e+00 (forward), 0.0000e+00 (backward)" in str(report)


def test_finite_diff_fails_on_a_non_finite_loss_naming_it():
    # 10 * 1e308 overflows: the loss is inf, so every difference would be nan
    p = Tensor([1e308, 2.0], requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(ContractError, match="non-finite loss inf"):
        finite_diff_check(lambda: (p * 10.0).sum(), [("p", p)])
    p = Tensor([np.nan, 2.0], requires_grad=True)
    with pytest.raises(ContractError, match="non-finite loss nan"):
        finite_diff_check(lambda: p.sum(), [("p", p)])


def test_finite_diff_counts_a_non_finite_coordinate_as_the_worst():
    # f is finite at p but overflows at p[1] + eps: that coordinate's difference is inf
    p = Tensor([1.0, 8e307], requires_grad=True)
    weights = Tensor([1e-300, 2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        report = finite_diff_check(lambda: (p * weights).sum(), [("p", p)], eps=1e307)
    assert report.max_rel_err == np.inf and not report.passed
    assert (report.worst_param, report.worst_coord) == ("p", 1)
    assert str(report).startswith("FAIL: max rel err inf")
    # a non-finite analytic gradient: sqrt's slope at 0 is inf
    q = Tensor([0.0, 1.0], requires_grad=True)
    root = lambda: T._make_op(np.sqrt(q.data), (q,), lambda g: (g / (2 * np.sqrt(q.data)),))
    with np.errstate(divide="ignore", invalid="ignore"):
        report = finite_diff_check(lambda: root().sum(), [("q", q)], eps=1e-8)
    assert report.max_rel_err == np.inf and report.worst_coord == 0


def test_finite_diff_rejects_a_check_of_zero_coordinates():
    theta = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError, match="zero coordinates"):
        finite_diff_check(lambda: theta.sum(), [("theta", theta)], max_coords_per_param=0)
    with pytest.raises(ContractError, match="zero coordinates"):
        finite_diff_check(lambda: theta.sum(), [])


def _fd_case(name):
    # str hash() is salted per process; crc32 gives each case the same data every run
    rng = np.random.default_rng(zlib.crc32(name.encode()))

    def away_from_zero(shape):
        return Tensor(rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape),
                      requires_grad=True)

    if name == "add_broadcast":
        a, b = away_from_zero((2, 3)), away_from_zero((3,))
        return [("a", a), ("b", b)], lambda: ((a + b) * (a + b)).sum()
    if name == "mul_broadcast":
        a, b = away_from_zero((2, 3)), away_from_zero((2, 1))
        return [("a", a), ("b", b)], lambda: (a * b).sum()
    if name == "sub_neg_scale":
        a, b = away_from_zero((4,)), away_from_zero((4,))
        return [("a", a), ("b", b)], lambda: (T.scale(a - b, 3.0) * T.scale(a, -1.0)).sum()
    if name == "matmul":
        a, b = away_from_zero((3, 4)), away_from_zero((4, 2))
        return [("a", a), ("b", b)], lambda: ((a @ b) * (a @ b)).sum()
    if name == "relu":
        a = away_from_zero((3, 3))  # entries bounded away from the kink
        return [("a", a)], lambda: (T.relu(a) * T.relu(a)).sum()
    if name == "sigmoid":
        a = away_from_zero((2, 4))
        return [("a", a)], lambda: sum_sq(T.sigmoid(a))
    if name == "softmax":
        a = away_from_zero((3, 4))
        w = Tensor(rng.normal(size=(3, 4)))
        return [("a", a)], lambda: (T.softmax(a, axis=-1) * w).sum()
    if name == "log_softmax":
        a = away_from_zero((3, 4))
        w = Tensor(rng.normal(size=(3, 4)))
        return [("a", a)], lambda: (T.log_softmax(a, axis=-1) * w).sum()
    if name == "mean_axis":
        a = away_from_zero((3, 5))
        return [("a", a)], lambda: sum_sq(a.mean(axis=1))
    if name == "sum_broadcast":
        a = away_from_zero((3, 5))
        return [("a", a)], lambda: (a * a.sum(axis=0)).sum()
    if name == "conv2d-epilogue":
        x, w, b = away_from_zero((2, 3, 6, 6)), away_from_zero((4, 3, 3, 3)), away_from_zero((4,))
        with no_grad():
            pre = T.conv2d(x, w, stride=1, pad=1, bias=b).data
        # the residual puts every pre-activation 0.2 to 1.5 away from the relu kink
        r = away_from_zero(pre.shape)
        r.data -= pre
        return [("x", x), ("w", w), ("b", b), ("r", r)], lambda: sum_sq(
            T.conv2d(x, w, stride=1, pad=1, bias=b, residual=r, relu=True))
    if name == "conv2d" or name.startswith("conv2d-"):
        x_shape, w_shape, stride, pad = (
            ((2, 2, 5, 5), (3, 2, 3, 3), 2, 1) if name == "conv2d"
            else CONV_GEOMETRIES[name.removeprefix("conv2d-")]
        )
        x = away_from_zero(x_shape)
        w = away_from_zero(w_shape)
        return [("x", x), ("w", w)], lambda: sum_sq(
            T.conv2d(x, w, stride=stride, pad=pad))
    if name == "mean_spatial":
        x = away_from_zero((2, 3, 4, 4))
        return [("x", x)], lambda: sum_sq(T.tmean(x, axis=(2, 3)))
    if name == "concat_transpose":
        a, b = away_from_zero((2, 3)), away_from_zero((2, 2))
        return [("a", a), ("b", b)], lambda: sum_sq(T.concat([a, b], axis=1).T)
    if name == "index_ops":
        x = away_from_zero((4, 6))
        idx = np.array([[1, 4], [0, 2], [5, 3], [2, 2]])

        def f():
            # the routing gather: row b picks x[b, idx[b]] from the flattened x.
            # x[3, 2] is picked twice and row 3 is taken twice, so both gathers
            # must accumulate their gradients; the two put_rows blocks share
            # output rows 0 and 3, so each must get the gradient of the sum
            picked = T.take_rows(x.reshape(-1), np.arange(4)[:, None] * 6 + idx)
            blocks = [T.take_rows(picked, np.array([3, 0, 3, 2])), picked]
            return sum_sq(T.put_rows(blocks, [np.array([5, 1, 0, 3]), np.array([3, 0, 2, 4])],
                                     num_rows=6))
        return [("x", x)], f
    raise AssertionError(name)


FD_CASES = [
    "add_broadcast", "mul_broadcast", "sub_neg_scale",
    "matmul", "relu", "sigmoid", "softmax", "log_softmax", "mean_axis",
    "sum_broadcast", "conv2d", "conv2d-epilogue", "mean_spatial", "concat_transpose",
    "index_ops",
] + [f"conv2d-{geometry}" for geometry in MODEL_CONV_GEOMETRIES]


@pytest.mark.parametrize("case", FD_CASES)
def test_op_gradients_match_finite_differences(case):
    params, f = _fd_case(case)
    report = finite_diff_check(f, params, eps=1e-5, tol=1e-6)
    assert report.passed, str(report)


def test_every_graph_op_has_a_finite_difference_case(monkeypatch):
    ops = sorted(
        name for name, fn in vars(T).items()
        if inspect.isfunction(fn) and fn.__module__ == T.__name__
        and not name.startswith("_") and "_make_op(" in inspect.getsource(fn)
    )
    assert {"add", "tmean", "conv2d", "take_rows"} <= set(ops)
    called = set()

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapped

    # Tensor's operator sugar looks ops up in the module, so it is seen too
    for name in ops:
        monkeypatch.setattr(T, name, spy(name, getattr(T, name)))
    for case in FD_CASES:
        _, f = _fd_case(case)
        f()
    assert [name for name in ops if name not in called] == []


def test_finite_diff_sampled_coordinates():
    theta = Tensor(np.linspace(0.5, 2.0, 50), requires_grad=True)
    report = finite_diff_check(
        lambda: (theta * theta).sum(),
        [("theta", theta)],
        max_coords_per_param=10,
        rng=np.random.default_rng(5),
    )
    assert report.n_checked == 10
    assert report.passed


# -- property tests ------------------------------------------------------


@given(hnp.arrays(np.float64, (3, 5), elements=finite_floats(-1e3, 1e3)))
def test_softmax_rows_sum_to_one(x):
    sums = T.softmax(Tensor(x), axis=-1).data.sum(axis=-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


@given(
    hnp.arrays(np.float64, (2, 4), elements=finite_floats(-1e3, 1e3)),
    finite_floats(-1e3, 1e3),
)
def test_softmax_shift_invariance(x, c):
    base = T.softmax(Tensor(x), axis=-1).data
    shifted = T.softmax(Tensor(x + c), axis=-1).data
    np.testing.assert_allclose(shifted, base, atol=1e-12)


@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=4),
                  elements=finite_floats(-10.0, 10.0)))
def test_sum_of_leaves_grad_is_exactly_ones(x):
    t = Tensor(x, requires_grad=True)
    backward(t.sum())
    assert np.array_equal(t.grad, np.ones_like(x))


@given(
    hnp.arrays(np.float64, (2, 3), elements=finite_floats(-2.0, 2.0)),
    hnp.arrays(np.float64, (3, 4), elements=finite_floats(-2.0, 2.0)),
)
def test_composite_gradient_matches_closed_form(theta_data, w_data):
    # a closed form, not central differences: those drown in roundoff where
    # the true gradient is near zero
    theta = Tensor(theta_data, requires_grad=True)
    w = Tensor(w_data, requires_grad=True)
    logits = theta @ w
    backward((T.log_softmax(logits, axis=-1) * T.sigmoid(logits)).mean())
    d_theta, d_w = oracles.composite_grad_oracle(theta_data, w_data)
    np.testing.assert_allclose(theta.grad, d_theta, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(w.grad, d_w, rtol=1e-9, atol=1e-12)


# -- construction --------------------------------------------------------


def test_tensor_defaults_to_float64():
    assert Tensor([1, 2, 3]).dtype == np.float64
    assert Tensor(np.array([1.0], dtype=np.float32)).dtype == np.float32


def test_tensor_keeps_zero_dim_arrays_zero_dim():
    assert Tensor(2.0).shape == ()
    assert Tensor(np.arange(3.0)).sum().shape == ()
    assert Tensor(2.0).item() == 2.0


def test_item_requires_scalar():
    with pytest.raises(ContractError):
        Tensor([1.0, 2.0]).item()
