"""Routing, expert dispatch, fusion gate, and the assembled hybrid block."""

import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from gazemoe import tensor as T
from gazemoe.errors import ConfigError, ContractError
from gazemoe.layers import router_mlp
from gazemoe.losses import objective
from gazemoe.moe import (
    ExpertBank,
    FusionGate,
    HybridMoeBlock,
    MoeBranch,
    write_routing_csv,
)
from gazemoe.tensor import Tensor, backward, finite_diff_check


def rng(seed=0):
    return np.random.default_rng(seed)


class StubRouter:
    """Returns fixed raw scores regardless of the routing feature."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)

    def __call__(self, feature):
        return Tensor(self.scores)


def stub_branch(scores, k, in_ch=1, out_ch=1, seed=0):
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    bank = ExpertBank(scores.shape[1], in_ch, out_ch, rng(seed))
    return MoeBranch(StubRouter(scores), bank, k), scores


# -- route ---------------------------------------------------------------


def test_route_k1_is_argmax_with_unit_weight():
    branch, scores = stub_branch([0.2, 0.9, 0.5, 0.1], k=1)
    idx, w, raw = branch.route(Tensor(np.zeros((1, 2))))
    assert idx.tolist() == [[1]]
    assert w.data.tolist() == [[1.0]]  # singleton softmax is exactly 1
    np.testing.assert_array_equal(raw.data, scores)


def test_route_equal_scores_full_k():
    branch, _ = stub_branch([3.0, 3.0, 3.0, 3.0], k=4)
    idx, w, _ = branch.route(Tensor(np.zeros((1, 2))))
    assert idx.tolist() == [[0, 1, 2, 3]]  # ties resolve to lowest index
    np.testing.assert_array_equal(w.data, [[0.25, 0.25, 0.25, 0.25]])


def test_route_k2_example():
    branch, _ = stub_branch([1.0, 2.0, 0.0, -1.0], k=2)
    idx, w, _ = branch.route(Tensor(np.zeros((1, 2))))
    assert idx.tolist() == [[1, 0]]
    np.testing.assert_allclose(w.data, [[0.73106, 0.26894]], atol=1e-5)
    np.testing.assert_allclose(w.data[0], oracles.softmax_oracle([2.0, 1.0]), rtol=1e-12)


def test_route_tie_breaks_to_lowest_index():
    branch, _ = stub_branch([[0.5, 0.9, 0.9], [0.7, 0.7, 0.1]], k=2)
    idx, _, _ = branch.route(Tensor(np.zeros((2, 2))))
    assert idx.tolist() == [[1, 2], [0, 1]]


def test_branch_rejects_bad_k():
    bank = ExpertBank(4, 1, 1, rng())
    with pytest.raises(ConfigError):
        MoeBranch(router_mlp(8, 4, rng()), bank, 5)
    with pytest.raises(ConfigError):
        MoeBranch(router_mlp(8, 4, rng()), bank, 0)


grid_scores = hnp.arrays(
    np.float64, (3, 4),
    elements=st.integers(-50000, 50000).map(lambda i: i / 1000.0),
)


@given(grid_scores, st.integers(1, 4))
def test_route_weights_positive_and_normalized(scores, k):
    branch, _ = stub_branch(scores, k)
    _, w, _ = branch.route(Tensor(np.zeros((3, 2))))
    assert np.all(w.data > 0.0)
    np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-9)


@given(grid_scores, st.integers(1, 4),
       st.integers(-100000, 100000).map(lambda i: i / 1000.0))
def test_route_invariant_to_score_shift(scores, k, c):
    base, _ = stub_branch(scores, k)
    shifted, _ = stub_branch(scores + c, k)
    feat = Tensor(np.zeros((3, 2)))
    idx_a, w_a, _ = base.route(feat)
    idx_b, w_b, _ = shifted.route(feat)
    np.testing.assert_array_equal(idx_a, idx_b)
    np.testing.assert_allclose(w_a.data, w_b.data, atol=1e-12)


# -- branch forward ------------------------------------------------------


def test_branch_k1_equals_argmax_expert():
    branch, _ = stub_branch([[0.1, 0.8], [0.9, 0.2]], k=1, in_ch=2, out_ch=2, seed=3)
    x = Tensor(rng(1).normal(size=(2, 2, 4, 4)))
    h, rec = branch(x, Tensor(np.zeros((2, 2))), block_id=0, branch="DD")
    e1 = branch.experts.experts[1](T.take_rows(x, np.array([0])))
    e0 = branch.experts.experts[0](T.take_rows(x, np.array([1])))
    np.testing.assert_array_equal(h.data[0], e1.data[0])
    np.testing.assert_array_equal(h.data[1], e0.data[0])
    assert rec.top1.tolist() == [1, 0]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_branch_identical_experts_collapse_to_one(k):
    branch, _ = stub_branch([[0.3, -0.2, 0.7], [0.0, 0.0, 0.0]], k=k, in_ch=2, out_ch=2)
    for expert in branch.experts.experts[1:]:
        for (_, src), (_, dst) in zip(
            branch.experts.experts[0].named_parameters(), expert.named_parameters()
        ):
            dst.data[...] = src.data
    x = Tensor(rng(2).normal(size=(2, 2, 3, 3)))
    h, _ = branch(x, Tensor(np.zeros((2, 2))), 0, "DD")
    single = branch.experts.experts[0](x)
    np.testing.assert_allclose(h.data, single.data, atol=1e-12)


def test_branch_two_expert_manual_combination():
    branch, scores = stub_branch([[1.5, 0.5]], k=2, in_ch=1, out_ch=1, seed=5)
    x = Tensor(rng(4).normal(size=(1, 1, 4, 4)))
    h, rec = branch(x, Tensor(np.zeros((1, 2))), 0, "DD")
    w = oracles.softmax_oracle([1.5, 0.5])
    manual = w[0] * branch.experts.experts[0](x).data + w[1] * branch.experts.experts[1](x).data
    np.testing.assert_allclose(h.data, manual, atol=1e-12)


def test_sparse_activation_counter():
    for k, expected in [(1, 8), (4, 32)]:
        branch, _ = stub_branch(rng(6).normal(size=(8, 4)), k=k, in_ch=1, out_ch=1)
        x = Tensor(rng(7).normal(size=(8, 1, 4, 4)))
        branch(x, Tensor(np.zeros((8, 2))), 0, "DD")
        assert branch.experts.eval_count == expected


def test_unselected_experts_get_no_gradient():
    # both samples route hard to expert 1
    branch, _ = stub_branch([[0.0, 5.0, -1.0], [0.1, 9.0, 0.2]], k=1, in_ch=1, out_ch=1)
    x = Tensor(rng(8).normal(size=(2, 1, 3, 3)))
    h, _ = branch(x, Tensor(np.zeros((2, 2))), 0, "DD")
    backward((h * h).sum())
    assert all(p.grad is None for _, p in branch.experts.experts[0].named_parameters())
    assert all(p.grad is not None for _, p in branch.experts.experts[1].named_parameters())
    assert all(p.grad is None for _, p in branch.experts.experts[2].named_parameters())


def chained_branch(branch, x, feature):
    """The combine as one single-block put_rows per expert plus a running add."""
    indices, weights, _ = branch.route(feature)
    batch, k = indices.shape
    flat = weights.reshape(batch * k, 1, 1, 1)
    out = None
    for i in range(branch.experts.num_experts):
        rows, slots = np.nonzero(indices == i)
        if rows.size == 0:
            continue
        h_i = branch.experts.run_expert(i, T.take_rows(x, rows))
        weighted = h_i * T.take_rows(flat, rows * k + slots)
        scattered = T.put_rows([weighted], [rows], num_rows=batch)
        out = scattered if out is None else out + scattered
    return out


class ExcludingRouter:
    """A router MLP whose last expert scores far below the others."""

    def __init__(self, width, num_experts, seed):
        self.mlp = router_mlp(width, num_experts, rng(seed))
        self.bias = Tensor(np.r_[np.zeros(num_experts - 1), -1e3])

    def __call__(self, feature):
        return self.mlp(feature) + self.bias


def excluding_branch(k, seed=50):  # seed 50: experts 0-3 all active at k = 1, 2, 3
    n, batch, width = 5, 7, 6
    bank = ExpertBank(n, 2, 3, rng(seed), stride=2)
    branch = MoeBranch(ExcludingRouter(width, n, seed + 1), bank, k)
    x = Tensor(rng(seed + 2).normal(size=(batch, 2, 6, 6)), requires_grad=True)
    feature = Tensor(rng(seed + 3).normal(size=(batch, width)), requires_grad=True)
    return branch, x, feature


@pytest.mark.parametrize("k", [1, 2, 3])
def test_branch_combine_is_bit_equal_to_the_per_expert_chain(k):
    branch, x, feature = excluding_branch(k)
    params = [p for _, p in branch.router.mlp.named_parameters()] + branch.experts.parameters()
    g = rng(40).normal(size=(7, 3, 3, 3))

    def run(forward):
        for t in [x, feature] + params:
            t.zero_grad()
        out = forward()
        backward((out * Tensor(g)).sum())
        return [out.data] + [t.grad for t in [x, feature] + params]

    want = run(lambda: chained_branch(branch, x, feature))
    got = run(lambda: branch(x, feature, 0, "DD")[0])
    indices = branch.route(feature)[0]
    assert 4 not in indices and len(np.unique(indices)) == 4
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # the never-selected expert gets no gradient, every other parameter does
    unselected = {id(p) for p in branch.experts.experts[4].parameters()}
    assert all((p.grad is None) == (id(p) in unselected) for p in params)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_branch_output_is_one_put_rows_over_the_weighted_parts(k, monkeypatch):
    branch, x, feature = excluding_branch(k)
    branch.router = StubRouter(branch.router(feature).data)  # no add inside routing
    calls = {"put_rows": [], "add": 0}
    put_rows, add = T.put_rows, T.add

    def spy_put_rows(parts, rows, num_rows):
        out = put_rows(parts, rows, num_rows)
        calls["put_rows"].append((list(parts), [np.asarray(r) for r in rows], out))
        return out

    def spy_add(a, b):
        calls["add"] += 1
        return add(a, b)

    monkeypatch.setattr(T, "put_rows", spy_put_rows)
    monkeypatch.setattr(T, "add", spy_add)
    h, rec = branch(x, feature, 0, "DD")
    assert calls["add"] == 0
    [(parts, rows, out)] = calls["put_rows"]
    assert out is h and h._parents == tuple(parts)
    active = np.unique(rec.indices)
    assert len(parts) == len(active) == 4
    for i, part, r in zip(active, parts, rows):
        assert np.array_equal(r, np.nonzero(rec.indices == i)[0])
        assert part.shape == (len(r), 3, 3, 3)
        assert part._backward.__qualname__.startswith("mul.")  # expert output times weight


# -- fusion gate ---------------------------------------------------------


def test_gate_zero_weights_give_half():
    gate = FusionGate(3, 2, rng())
    gate.proj.w.data[...] = 0.0
    p = gate(Tensor(rng(1).normal(size=(4, 3))), Tensor(rng(2).normal(size=(4, 2))))
    assert p.shape == (4, 1)
    np.testing.assert_array_equal(p.data, np.full((4, 1), 0.5))


def test_gate_saturates_with_large_bias():
    gate = FusionGate(2, 2, rng())
    gate.proj.w.data[...] = 0.0
    gate.proj.b.data[...] = 30.0
    p = gate(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))))
    assert p.item() > 1.0 - 1e-9
    gate.proj.b.data[...] = -30.0
    assert gate(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))).item() < 1e-9


def test_gate_ones_weights_on_balanced_concat():
    gate = FusionGate(2, 2, rng())
    gate.proj.w.data[...] = 1.0
    gate.proj.b.data[...] = 0.0
    # concat sums to zero -> logit 0 -> p = 0.5
    p = gate(Tensor([[1.0, -3.0]]), Tensor([[2.0, 0.0]]))
    assert p.item() == 0.5


def test_gate_output_strictly_inside_unit_interval():
    gate = FusionGate(4, 4, rng(9))
    x = rng(10).normal(size=(16, 4))
    p = gate(Tensor(x), Tensor(x[::-1].copy()))
    assert np.all((p.data > 0.0) & (p.data < 1.0))


# -- hybrid block --------------------------------------------------------


def make_block(k=1, num_experts=2, in_ch=2, out_ch=2, gaze_width=3, seed=0, stride=1):
    return HybridMoeBlock(in_ch, out_ch, num_experts, k, gaze_width, rng(seed),
                          stride=stride, block_id=0)


def test_block_gate_extremes_select_branches():
    for bias, attr in [(-30.0, "dd"), (30.0, "de")]:
        blk = make_block(k=2, seed=11)
        blk.gate.proj.b.data[...] = bias
        x = Tensor(rng(12).normal(size=(3, 2, 4, 4)))
        x_exp = Tensor(rng(13).normal(size=(3, 3)))
        out, _ = blk(x, x_exp)
        branch = getattr(blk, attr)
        feat = x.mean(axis=(2, 3)) if attr == "dd" else blk.gaze_proj(x_exp)
        h, _ = branch(x, feat, 0, attr.upper())
        np.testing.assert_allclose(out.data, h.data, atol=1e-9)


def test_block_midpoint_mixture():
    blk = make_block(k=1, num_experts=2, in_ch=1, out_ch=1, gaze_width=2)
    for branch, const in [(blk.dd, 2.0), (blk.de, 4.0)]:
        for expert in branch.experts.experts:
            expert.conv1.w.data[...] = 0.0
            expert.conv2.w.data[...] = 0.0
            expert.conv2.b.data[...] = const
    blk.gate.proj.w.data[...] = 0.0  # p = 0.5 exactly
    out, _ = blk(Tensor(np.zeros((2, 1, 4, 4))), Tensor(np.zeros((2, 2))))
    np.testing.assert_array_equal(out.data, np.full((2, 1, 4, 4), 3.0))


def test_block_output_is_convex_combination():
    blk = make_block(k=1, num_experts=3, seed=21)
    x = Tensor(rng(22).normal(size=(4, 2, 4, 4)))
    x_exp = Tensor(rng(23).normal(size=(4, 3)))
    out, _ = blk(x, x_exp)
    h_dd, _ = blk.dd(x, x.mean(axis=(2, 3)), 0, "DD")
    h_de, _ = blk.de(x, blk.gaze_proj(x_exp), 0, "DE")
    lo = np.minimum(h_dd.data, h_de.data)
    hi = np.maximum(h_dd.data, h_de.data)
    assert np.all(out.data >= lo - 1e-12)
    assert np.all(out.data <= hi + 1e-12)


def test_block_requires_gaze_feature():
    blk = make_block()
    x = Tensor(np.zeros((2, 2, 4, 4)))
    with pytest.raises(ContractError):
        blk(x, None)
    with pytest.raises(ContractError, match="batch"):
        blk(x, Tensor(np.zeros((3, 3))))


def test_block_records_carry_gate_and_branch_labels():
    blk = make_block(k=2, num_experts=3, seed=33)
    x = Tensor(rng(34).normal(size=(5, 2, 4, 4)))
    out, (rec_dd, rec_de) = blk(x, Tensor(rng(35).normal(size=(5, 3))))
    assert rec_dd.branch == "DD" and rec_de.branch == "DE"
    for rec in (rec_dd, rec_de):
        assert rec.raw_scores.shape == (5, 3)
        assert rec.indices.shape == (5, 2)
        assert np.all((rec.gate_p > 0) & (rec.gate_p < 1))
    np.testing.assert_array_equal(rec_dd.gate_p, rec_de.gate_p)


@pytest.mark.parametrize("k", [1, 2])
def test_block_gradients_match_finite_differences(k):
    blk = make_block(k=k, num_experts=2, in_ch=1, out_ch=1, gaze_width=2, seed=40)
    x = Tensor(rng(41).normal(size=(2, 1, 3, 3)))
    x_exp = Tensor(rng(42).normal(size=(2, 2)), requires_grad=True)
    mask = Tensor(rng(43).normal(size=(2, 1, 3, 3)))

    def f():
        out, (rec_dd, rec_de) = blk(x, x_exp)
        loss = (out * mask).mean()
        for rec in (rec_dd, rec_de):
            p_bar = T.softmax(rec.raw_scores, axis=1).mean(axis=0)
            loss = loss + T.scale((Tensor(rec.usage) * p_bar).sum(), 0.01)
        return loss

    params = blk.named_parameters() + [("x_exp", x_exp)]
    report = finite_diff_check(f, params, eps=1e-5, tol=1e-6, max_coords_per_param=6,
                               rng=rng(44))
    assert report.passed, str(report)


# -- routing stats and the balance term ------------------------------------


def record_from_scores(scores, k=1):
    branch, _ = stub_branch(scores, k)
    _, rec = branch(
        Tensor(np.zeros((np.atleast_2d(scores).shape[0], 1, 2, 2))),
        Tensor(np.zeros((np.atleast_2d(scores).shape[0], 2))),
        0,
        "DD",
    )
    return rec


def balance_term(rec):
    """The unweighted balance term ``objective`` reports for one record."""
    batch = rec.batch_size
    return objective(Tensor(np.zeros((batch, 2))), [rec], np.zeros(batch, int), 0.01)[2]


def test_stats_degenerate_routing():
    rec = record_from_scores([[9.0, 0.0, 0.0, 0.0]] * 5)
    np.testing.assert_array_equal(rec.usage, [1.0, 0.0, 0.0, 0.0])


def test_stats_uniform_scores():
    rec = record_from_scores(np.zeros((6, 4)))
    np.testing.assert_array_equal(rec.usage, [1.0, 0.0, 0.0, 0.0])  # ties all pick expert 0
    assert balance_term(rec) == 0.25  # p_bar is exactly uniform


def test_stats_counting_example():
    scores = np.full((4, 4), -1.0)
    for row, expert in enumerate([0, 0, 1, 3]):
        scores[row, expert] = 2.0
    np.testing.assert_array_equal(record_from_scores(scores).usage, [0.5, 0.25, 0.0, 0.25])


def test_stats_use_full_softmax_even_when_k1():
    # the softmax over the one selected score is 1.0; p_bar must not be
    rec = record_from_scores(np.array([[2.0, 1.0, 0.0]]), k=1)
    expected = oracles.softmax_oracle([2.0, 1.0, 0.0])[0]
    np.testing.assert_allclose(balance_term(rec), expected, rtol=1e-12)


@given(hnp.arrays(np.float64, (5, 4), elements=st.floats(-30, 30, allow_nan=False)))
def test_stats_sums(scores):
    rec = record_from_scores(scores, k=2)
    p_bar = T.softmax(rec.raw_scores, axis=1).mean(axis=0)
    assert abs(rec.usage.sum() - 1.0) < 1e-9
    assert abs(p_bar.data.sum() - 1.0) < 1e-9
    assert 0.0 <= balance_term(rec) <= 1.0 + 1e-12


def test_stats_reject_bad_inputs():
    rec = record_from_scores([[1.0, 0.0]])
    rec.indices = rec.indices[:0]
    with pytest.raises(ContractError, match="nonempty"):
        objective(Tensor(np.zeros((1, 2))), [rec], [0], 0.01)


def test_p_bar_is_differentiable_back_to_router():
    branch, _ = stub_branch([[1.0, 2.0]], k=1)
    router = router_mlp(2, 2, rng(50))
    branch.router = router
    _, rec = branch(Tensor(np.zeros((3, 1, 2, 2))), Tensor(rng(51).normal(size=(3, 2))), 0, "DD")
    total, _, _ = objective(Tensor(np.zeros((3, 2))), [rec], [0, 1, 0], 1.0)
    backward(total)
    assert all(p.grad is not None for _, p in router.named_parameters())


# -- csv export ----------------------------------------------------------


def test_routing_csv_schema(tmp_path):
    blk = make_block(k=1, num_experts=2, seed=60)
    x = Tensor(rng(61).normal(size=(3, 2, 4, 4)))
    _, recs = blk(x, Tensor(rng(62).normal(size=(3, 3))))
    path = tmp_path / "routes.csv"
    write_routing_csv(path, list(recs), ["s0", "s1", "s2"])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == [
        "sample_id", "block_id", "branch", "raw_score_0", "raw_score_1",
        "top1_index", "gate_p",
    ]
    assert len(rows) == 6  # 2 branches x 3 samples
    assert {r["branch"] for r in rows} == {"DD", "DE"}
    for row in rows:
        assert 0.0 < float(row["gate_p"]) < 1.0
        assert int(row["top1_index"]) in (0, 1)
    # raw scores round-trip through repr exactly
    rec_dd = recs[0]
    dd_rows = [r for r in rows if r["branch"] == "DD"]
    for b, row in enumerate(dd_rows):
        assert float(row["raw_score_0"]) == rec_dd.raw_scores.data[b, 0]


def test_routing_csv_rejects_mismatched_ids(tmp_path):
    blk = make_block(seed=63)
    _, recs = blk(Tensor(np.zeros((2, 2, 4, 4))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ContractError):
        write_routing_csv(tmp_path / "r.csv", list(recs), ["only-one"])
    with pytest.raises(ContractError):
        write_routing_csv(tmp_path / "r.csv", [], ["a"])
