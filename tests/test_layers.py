"""Layer forwards against straight-line compositions and finite differences."""

import tracemalloc

import numpy as np
import pytest

from gazemoe import tensor as T
from gazemoe.errors import ContractError, DimensionError
from gazemoe.layers import Conv2d, Linear, Mlp, ResidualBasicBlock, kaiming_uniform, router_mlp
from gazemoe.tensor import Tensor, backward, finite_diff_check


def rng():
    return np.random.default_rng(42)


def sum_sq(y):
    return (y * y).sum()


# -- linear --------------------------------------------------------------


def test_linear_identity_weights():
    lin = Linear(3, 3, rng())
    lin.w.data[...] = np.eye(3)
    x = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(lin(Tensor(x)).data, x)


def test_linear_zero_input_gives_bias():
    lin = Linear(2, 4, rng())
    lin.b.data[...] = [1.0, 2.0, 3.0, 4.0]
    out = lin(Tensor(np.zeros((3, 2))))
    np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0, 4.0], (3, 1)))


def test_linear_hand_example():
    lin = Linear(2, 1, rng())
    lin.w.data[...] = [[1.0, 1.0]]
    lin.b.data[...] = [0.5]
    assert lin(Tensor([[2.0, 3.0]])).item() == 5.5


def test_linear_width_mismatch():
    with pytest.raises(DimensionError, match="linear"):
        Linear(3, 2, rng())(Tensor(np.zeros((1, 4))))


def test_linear_gradients():
    lin = Linear(3, 2, rng())
    x = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
    report = finite_diff_check(
        lambda: sum_sq(lin(x)), lin.named_parameters(), tol=1e-6
    )
    assert report.passed, str(report)


# -- conv layer ----------------------------------------------------------


def test_conv_layer_adds_bias_per_channel():
    conv = Conv2d(1, 2, 1, rng())
    conv.w.data[...] = 0.0
    conv.b.data[...] = [3.0, -1.0]
    out = conv(Tensor(np.zeros((2, 1, 4, 4))))
    assert np.all(out.data[:, 0] == 3.0) and np.all(out.data[:, 1] == -1.0)


def test_conv_layer_matches_raw_op_plus_bias():
    conv = Conv2d(2, 3, 3, rng(), stride=2, pad=1)
    x = Tensor(np.random.default_rng(2).normal(size=(2, 2, 5, 5)))
    expected = T.conv2d(x, conv.w, stride=2, pad=1).data + conv.b.data.reshape(1, 3, 1, 1)
    np.testing.assert_array_equal(conv(x).data, expected)


# -- residual block ------------------------------------------------------


def test_block_zero_branch_is_relu_of_input():
    blk = ResidualBasicBlock(2, 2, rng(), stride=1)
    blk.conv1.w.data[...] = 0.0
    blk.conv2.w.data[...] = 0.0
    x = np.random.default_rng(3).normal(size=(2, 2, 4, 4))
    np.testing.assert_array_equal(blk(Tensor(x)).data, np.maximum(x, 0.0))


def test_block_zero_input_zero_biases_gives_zero():
    blk = ResidualBasicBlock(2, 4, rng(), stride=2)
    out = blk(Tensor(np.zeros((1, 2, 6, 6))))
    assert out.shape == (1, 4, 3, 3)
    assert np.all(out.data == 0.0)


@pytest.mark.parametrize("in_ch,out_ch,stride", [(1, 1, 1), (1, 2, 1), (2, 3, 2)])
def test_block_equals_straight_line_composition(in_ch, out_ch, stride):
    blk = ResidualBasicBlock(in_ch, out_ch, rng(), stride=stride)
    x = Tensor(np.random.default_rng(4).normal(size=(2, in_ch, 4, 4)))

    h = T.conv2d(x, blk.conv1.w, stride=stride, pad=1) + blk.conv1.b.reshape(1, out_ch, 1, 1)
    h = T.conv2d(T.relu(h), blk.conv2.w, stride=1, pad=1) + blk.conv2.b.reshape(1, out_ch, 1, 1)
    if blk.proj is None:
        skip = x
    else:
        skip = T.conv2d(x, blk.proj.w, stride=stride, pad=0) + blk.proj.b.reshape(1, out_ch, 1, 1)
    expected = T.relu(h + skip)

    np.testing.assert_array_equal(blk(x).data, expected.data)


def test_block_identity_skip_has_no_projection():
    assert ResidualBasicBlock(3, 3, rng(), stride=1).proj is None
    assert ResidualBasicBlock(3, 4, rng(), stride=1).proj is not None
    assert ResidualBasicBlock(3, 3, rng(), stride=2).proj is not None


def test_block_gradients():
    blk = ResidualBasicBlock(1, 2, rng(), stride=1)
    x = Tensor(np.random.default_rng(5).normal(size=(2, 1, 4, 4)))
    report = finite_diff_check(
        lambda: sum_sq(blk(x)), blk.named_parameters(), tol=1e-6,
        max_coords_per_param=8,
    )
    assert report.passed, str(report)


@pytest.mark.parametrize("out_ch,stride,bound", [(8, 1, 2.5), (16, 2, 3.5)])
def test_block_forward_keeps_one_array_per_conv(out_ch, stride, bound):
    # conv, bias, residual add and relu run as one op, so a training forward
    # keeps each conv's output and nothing else: 2x the block output with an
    # identity skip, 3x with a projection (the unfused chain kept 7x and 9x)
    blk = ResidualBasicBlock(8, out_ch, rng(), stride=stride)
    x = Tensor(np.random.default_rng(6).normal(size=(64, 8, 32, 32)))
    tracemalloc.start()
    try:
        out = blk(x)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert kept < bound * out.data.nbytes, kept / out.data.nbytes


# -- mlp -----------------------------------------------------------------


def test_mlp_single_layer_is_linear():
    m = Mlp([3, 2], rng())
    x = Tensor(np.random.default_rng(6).normal(size=(4, 3)))
    np.testing.assert_array_equal(m(x).data, m.layers[0](x).data)


def test_mlp_zero_weights_zero_output():
    m = Mlp([3, 5, 2], rng())
    for layer in m.layers:
        layer.w.data[...] = 0.0
    out = m(Tensor(np.ones((2, 3))))
    assert np.all(out.data == 0.0)


def test_mlp_two_layer_hand_composition():
    m = Mlp([1, 2, 1], rng())
    m.layers[0].w.data[...] = [[2.0], [-3.0]]
    m.layers[0].b.data[...] = [1.0, 1.0]
    m.layers[1].w.data[...] = [[1.0, 1.0]]
    m.layers[1].b.data[...] = [0.25]
    # x=1 -> hidden pre-act [3, -2] -> relu [3, 0] -> out 3 + 0 + 0.25
    assert m(Tensor([[1.0]])).item() == 3.25


def test_mlp_no_activation_after_last_layer():
    m = Mlp([2, 2], rng())
    m.layers[0].w.data[...] = -np.eye(2)
    out = m(Tensor([[1.0, 2.0]]))
    np.testing.assert_array_equal(out.data, [[-1.0, -2.0]])


def test_mlp_rejects_single_width():
    with pytest.raises(ContractError):
        Mlp([4], rng())


def test_mlp_gradients():
    m = Mlp([3, 4, 2], rng())
    x = Tensor(np.random.default_rng(7).normal(size=(3, 3)))
    report = finite_diff_check(
        lambda: sum_sq(m(x)), m.named_parameters(), tol=1e-6
    )
    assert report.passed, str(report)


def test_router_mlp_widths():
    m = router_mlp(32, 4, rng())
    assert m.layers[0].in_features == 32
    assert m.layers[0].out_features == 16
    assert m.layers[1].out_features == 4
    # floor of 8 for narrow features
    assert router_mlp(6, 4, rng()).layers[0].out_features == 8


# -- init and parameter plumbing ------------------------------------------


def test_kaiming_uniform_bound_and_determinism():
    a = kaiming_uniform(np.random.default_rng(0), (50, 24), fan_in=24)
    b = kaiming_uniform(np.random.default_rng(0), (50, 24), fan_in=24)
    bound = np.sqrt(6.0 / 24)
    assert np.all(np.abs(a.data) <= bound)
    assert np.array_equal(a.data, b.data)
    # spread should roughly fill the interval, not collapse near zero
    assert np.abs(a.data).max() > 0.8 * bound


def test_biases_start_at_zero():
    lin = Linear(3, 2, rng())
    assert np.all(lin.b.data == 0.0)
    conv = Conv2d(1, 2, 3, rng())
    assert np.all(conv.b.data == 0.0)


def test_named_parameters_are_nested_and_ordered():
    blk = ResidualBasicBlock(1, 2, rng(), stride=2)
    names = [n for n, _ in blk.named_parameters()]
    assert names == ["conv1.w", "conv1.b", "conv2.w", "conv2.b", "proj.w", "proj.b"]
    m = Mlp([2, 3, 1], rng())
    assert [n for n, _ in m.named_parameters()] == [
        "layers.0.w", "layers.0.b", "layers.1.w", "layers.1.b",
    ]


def test_parameters_receive_gradients_through_block():
    blk = ResidualBasicBlock(1, 2, rng(), stride=1)
    x = Tensor(np.abs(np.random.default_rng(8).normal(size=(1, 1, 3, 3))) + 0.5)
    backward(sum_sq(blk(x)))
    for name, p in blk.named_parameters():
        assert p.grad is not None, name
        assert p.grad.shape == p.data.shape
