"""Gaze encoder and assembled network: shapes, modes, counters, gradients."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gazemoe import experiments
from gazemoe import tensor as T
from gazemoe.config import ModelConfig
from gazemoe.errors import ConfigError, ContractError, DimensionError, ValidationError
from gazemoe.layers import ResidualBasicBlock
from gazemoe.losses import objective
from gazemoe.model import GazeEncoder, HybridMoeNet
from gazemoe.moe import HybridMoeBlock
from gazemoe.optim import Adam
from gazemoe.tensor import Tensor, finite_diff_check


def toy_config(**overrides):
    base = dict(
        stem_channels=4, stage_channels=(4, 8), blocks_per_stage=(1, 1),
        stage_strides=(1, 2), hybrid_positions=((1, 0),), num_experts=2,
        top_k=1, gaze_encoder_channels=(4, 8), gaze_feature_width=8,
        num_classes=3, seed=7,
    )
    base.update(overrides)
    return ModelConfig(**base)


def batch(b=2, size=16, seed=123):
    rng = np.random.default_rng(seed)
    img = Tensor(rng.uniform(0, 1, size=(b, 1, size, size)))
    hm = Tensor(rng.uniform(0, 1, size=(b, 1, size, size)))
    return img, hm


# -- gaze encoder ----------------------------------------------------------


def test_encoder_zero_heatmap_zero_feature():
    enc = GazeEncoder(1, (4, 8), 6, np.random.default_rng(0))
    out = enc(Tensor(np.zeros((2, 1, 16, 16))))
    assert out.shape == (2, 6)
    np.testing.assert_array_equal(out.data, np.zeros((2, 6)))


def test_encoder_identical_heatmaps_identical_rows():
    enc = GazeEncoder(1, (4, 8), 6, np.random.default_rng(1))
    hm = np.random.default_rng(2).uniform(0, 1, size=(1, 1, 16, 16))
    out = enc(Tensor(np.concatenate([hm, hm], axis=0)))
    np.testing.assert_array_equal(out.data[0], out.data[1])


def test_encoder_matches_straight_line_composition():
    enc = GazeEncoder(1, (4, 8, 8), 5, np.random.default_rng(3))
    hm = Tensor(np.random.default_rng(4).uniform(0, 1, size=(2, 1, 16, 16)))
    x = hm
    for conv in enc.convs:
        x = T.relu(T.conv2d(x, conv.w, stride=2, pad=1)
                   + conv.b.reshape(1, conv.out_channels, 1, 1))
    expected = x.mean(axis=(2, 3)) @ enc.proj.w.T + enc.proj.b
    np.testing.assert_array_equal(enc(hm).data, expected.data)


def test_encoder_rejects_out_of_range_values():
    enc = GazeEncoder(1, (4,), 4, np.random.default_rng(5))
    with pytest.raises(ValidationError, match=r"\[0,1\]"):
        enc(Tensor(np.full((1, 1, 8, 8), 1.5)))
    with pytest.raises(ValidationError):
        enc(Tensor(np.full((1, 1, 8, 8), -0.1)))
    with pytest.raises(DimensionError):
        enc(Tensor(np.zeros((8, 8))))


# -- network forward -------------------------------------------------------


def test_golden_logits_are_stable():
    net = HybridMoeNet(toy_config())
    img, hm = batch()
    logits, records = net(img, hm)
    golden = np.array([
        [0.4706165350742231, -0.7129187263280925, -0.7961510045468002],
        [0.6487132589953788, -0.6515751550104932, -1.2172732520995362],
    ])
    np.testing.assert_allclose(logits.data, golden, atol=1e-9)
    assert [r.branch for r in records] == ["DD", "DE"]


def test_same_seed_rebuild_is_bitwise_identical():
    a = HybridMoeNet(toy_config())
    b = HybridMoeNet(toy_config())
    for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert name_a == name_b
        assert pa.data.tobytes() == pb.data.tobytes()
    assert HybridMoeNet(toy_config(seed=8)).parameters()[0].data.tobytes() != \
        a.parameters()[0].data.tobytes()


def test_baseline_mode_ignores_heatmap():
    net = HybridMoeNet(toy_config(hybrid_positions=()))
    img, hm = batch()
    logits_none, records = net(img, None)
    logits_hm, _ = net(img, hm)
    logits_other, _ = net(img, Tensor(np.zeros_like(hm.data)))
    assert records == []
    assert logits_none.data.tobytes() == logits_hm.data.tobytes()
    assert logits_none.data.tobytes() == logits_other.data.tobytes()


def test_hybrid_mode_requires_heatmap():
    net = HybridMoeNet(toy_config())
    img, hm = batch()
    with pytest.raises(ContractError, match="heatmap"):
        net(img, None)
    with pytest.raises(ContractError, match="batch"):
        net(img, Tensor(hm.data[:1]))


def test_batch_independence():
    net = HybridMoeNet(toy_config())
    img, hm = batch(b=4)
    full, _ = net(img, hm)
    for b in range(4):
        single, _ = net(Tensor(img.data[b : b + 1]), Tensor(hm.data[b : b + 1]))
        np.testing.assert_allclose(single.data[0], full.data[b], atol=1e-9)


def test_block_layout_follows_config():
    net = HybridMoeNet(toy_config(
        stage_channels=(4, 8), blocks_per_stage=(2, 2),
        hybrid_positions=((0, 1), (1, 1)),
    ))
    assert [type(b) for b in net.blocks] == [
        ResidualBasicBlock, HybridMoeBlock, ResidualBasicBlock, HybridMoeBlock,
    ]
    assert [b.conv1.stride for b in (net.blocks[0], net.blocks[2])] == [1, 2]
    assert [b.block_id for b in net.hybrid_blocks()] == [0, 1]
    img, hm = batch(b=3)
    logits, records = net(img, hm)
    assert logits.shape == (3, 3)
    assert [(r.block_id, r.branch) for r in records] == [
        (0, "DD"), (0, "DE"), (1, "DD"), (1, "DE"),
    ]


def test_parameter_names_are_flat_attribute_paths():
    # these names are the checkpoint format: a wrapper layer would rename them
    names = [name for name, _ in HybridMoeNet(toy_config()).named_parameters()]
    assert "blocks.1.dd.router.layers.0.w" in names
    assert "blocks.1.de.experts.experts.1.conv2.b" in names
    assert not [n for n in names if "stages." in n or ".mlp." in n]
    assert list(dict.fromkeys(n.split(".")[0] for n in names)) == [
        "stem", "blocks", "gaze_encoder", "head",
    ]


@pytest.mark.parametrize(
    "b,k,n,blocks,expected",
    [(8, 1, 4, 1, 16), (8, 4, 4, 1, 64), (3, 1, 4, 2, 12), (5, 2, 3, 2, 40)],
)
def test_expert_eval_counts(b, k, n, blocks, expected):
    positions = ((0, 0),) if blocks == 1 else ((0, 0), (1, 0))
    net = HybridMoeNet(toy_config(
        num_experts=n, top_k=k, hybrid_positions=positions,
    ))
    img, hm = batch(b=b, size=8)
    assert net.count_expert_evals(img, hm) == expected
    assert expected == b * k * 2 * blocks


def test_parameter_count_matches_config_arithmetic():
    cfg = toy_config()
    net = HybridMoeNet(cfg)

    def conv_params(cin, cout, k):
        return cout * cin * k * k + cout

    def block_params(cin, cout, projected):
        total = conv_params(cin, cout, 3) + conv_params(cout, cout, 3)
        return total + (conv_params(cin, cout, 1) if projected else 0)

    def linear_params(din, dout):
        return dout * din + dout

    def mlp_params(din, dout):
        hidden = max(8, din // 2)
        return linear_params(din, hidden) + linear_params(hidden, dout)

    n, d2 = cfg.num_experts, cfg.gaze_feature_width
    stem = conv_params(1, 4, 3)
    stage0 = block_params(4, 4, projected=False)
    hybrid = (
        mlp_params(4, n) + n * block_params(4, 8, projected=True)  # DD
        + mlp_params(d2, n) + n * block_params(4, 8, projected=True)  # DE
        + linear_params(4 + d2, 1)  # gate
    )
    encoder = conv_params(1, 4, 3) + conv_params(4, 8, 3) + linear_params(8, d2)
    projection = linear_params(d2, d2)
    head = linear_params(8, cfg.num_classes)
    total = sum(p.size for p in net.parameters())
    assert total == stem + stage0 + hybrid + encoder + projection + head


def test_float32_switch():
    net = HybridMoeNet(toy_config(), precision="float32")
    assert net.dtype == np.float32
    assert all(p.dtype == np.float32 for p in net.parameters())
    img, hm = batch(size=8)
    logits, _ = net(
        Tensor(img.data.astype(np.float32)), Tensor(hm.data.astype(np.float32))
    )
    assert logits.dtype == np.float32


def test_float32_weights_are_float64_weights_rounded_once():
    cfg = toy_config(num_experts=3, top_k=2)
    wide = HybridMoeNet(cfg).named_parameters()
    narrow = HybridMoeNet(cfg, precision="float32").named_parameters()
    assert [n for n, _ in narrow] == [n for n, _ in wide]
    for (name, p32), (_, p64) in zip(narrow, wide):
        assert p32.data.tobytes() == p64.data.astype(np.float32).tobytes(), name


def test_float32_training_step_stays_float32(monkeypatch):
    net = HybridMoeNet(toy_config(top_k=2), precision="float32")
    img, hm = batch(b=4, size=8)
    images = Tensor(img.data.astype(np.float32))
    heatmaps = Tensor(hm.data.astype(np.float32))
    total, _, _ = objective(*net(images, heatmaps), np.array([0, 1, 2, 0]), 0.01)
    assert total.dtype == np.float32

    params = {id(p): name for name, p in net.named_parameters()}
    seen = []
    accumulate = Tensor.accumulate_grad

    def record(self, g):
        if id(self) in params:
            seen.append((params[id(self)], g.dtype))
        accumulate(self, g)

    monkeypatch.setattr(Tensor, "accumulate_grad", record)
    T.backward(total)
    assert {name for name, _ in seen} >= {"stem.w", "head.w", "gaze_encoder.proj.w"}
    assert [(n, d) for n, d in seen if d != np.float32] == []


def test_next_forward_starts_without_the_previous_graph():
    net = HybridMoeNet(replace(experiments.TOY_MODEL, top_k=2))
    opt = Adam(net.named_parameters(), lr=1e-3)
    img, hm = batch(b=16, size=32, seed=5)
    labels = np.random.default_rng(5).integers(0, 3, size=16)
    forward_peaks = []
    tracemalloc.start()
    try:
        for _ in range(3):
            tracemalloc.reset_peak()
            # rebinding the loss is all train() does with the last step's graph
            total, _, _ = objective(*net(img, hm), labels, 0.01)
            forward_peaks.append(tracemalloc.get_traced_memory()[1])
            opt.zero_grad()
            T.backward(total)
            opt.step()
    finally:
        tracemalloc.stop()
    # a graph kept alive through the loss doubles the second forward's peak
    assert forward_peaks[1] < 1.3 * forward_peaks[0], [p / forward_peaks[0]
                                                        for p in forward_peaks]


def test_a_no_grad_forward_on_two_threads_records_no_graph(helper_jobs):
    # the helper takes the first item of each share: the gaze encoder, then
    # the DD branch, both under this thread's no_grad
    net = HybridMoeNet(toy_config())
    img, hm = batch(b=4, size=16)
    with T.no_grad():
        logits, records = net(img, hm)
    assert len(helper_jobs) == 2 and helper_jobs.all_done()
    assert [item[2] for item in helper_jobs[1]][0] == "DD"
    for t in [logits] + [rec.raw_scores for rec in records]:
        assert not t.requires_grad and t.is_leaf
    # with grad on, both branches record their graphs
    logits, records = net(img, hm)
    assert [rec.branch for rec in records] == ["DD", "DE"]
    assert logits.requires_grad and all(rec.raw_scores.requires_grad for rec in records)


def _quickstart_step_peaks(steps):
    """tracemalloc peaks of ``steps`` README quickstart model training steps, B64 at 64^2."""
    net = HybridMoeNet(ModelConfig(
        stem_channels=8, stage_channels=(8, 16), blocks_per_stage=(1, 1), stage_strides=(1, 2),
        hybrid_positions=((1, 0),), num_experts=4, top_k=1, gaze_encoder_channels=(4, 8, 16)))
    opt = Adam(net.named_parameters(), lr=2e-3)
    img, hm = batch(b=64, size=64, seed=6)
    labels = np.random.default_rng(6).integers(0, 3, size=64)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(steps + 1):  # the first step allocates the gradients and moments
            tracemalloc.reset_peak()
            opt.zero_grad()
            total, _, _ = objective(*net(img, hm), labels, 0.01)
            T.backward(total)
            opt.step()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peaks[1:]


def test_two_walkers_keep_a_training_step_within_a_tenth_of_one_walkers_peak(monkeypatch):
    # each step's peak depends on how the two threads interleave (one step in
    # 150 measured 1.16x on a 2-vCPU Xeon), so the median step is compared
    monkeypatch.setattr(T, "usable_cpus", lambda: 1)
    one = np.median(_quickstart_step_peaks(3))
    monkeypatch.setattr(T, "usable_cpus", lambda: 2)
    two = np.median(_quickstart_step_peaks(3))
    assert two <= 1.10 * one, two / one


def test_unknown_precision_is_a_config_error():
    with pytest.raises(ConfigError, match="float16"):
        HybridMoeNet(toy_config(), precision="float16")


@pytest.mark.parametrize("k", [1, 2])
def test_end_to_end_gradient_check(k):
    from gazemoe.losses import cross_entropy

    net = HybridMoeNet(toy_config(top_k=k, seed=11))
    img, hm = batch(b=2, size=8, seed=55)
    labels = np.array([0, 2])

    def f():
        logits, _ = net(img, hm)
        return cross_entropy(logits, labels)

    report = finite_diff_check(
        f, net.named_parameters(), eps=1e-5, tol=1e-4,
        max_coords_per_param=4, rng=np.random.default_rng(9),
    )
    assert report.passed, str(report)


@pytest.mark.parametrize("k", [
    pytest.param(1, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP 'Routers that learn from the task': at top_k=1 the softmax "
        "over the one selected score is the constant 1.0, so cross-entropy "
        "gives every router tensor exactly zero gradient"))),
    2,
])
def test_every_router_gets_a_task_loss_gradient(k):
    net = HybridMoeNet(replace(experiments.TOY_MODEL, top_k=k))
    img, hm = batch(b=4, size=16)
    total, _, _ = objective(*net(img, hm), np.array([0, 1, 2, 0]), lb_weight=0.0)
    T.backward(total)
    routers = {name: p.grad for name, p in net.named_parameters() if ".router." in name}
    assert len(routers) == 8
    assert [name for name, g in routers.items() if g is None or not np.any(g)] == []
