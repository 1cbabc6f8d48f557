"""Objective terms and evaluation metrics against independent oracles."""

import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from gazemoe import losses
from gazemoe.errors import ContractError, MetricUndefinedError, ValidationError
from gazemoe.losses import cross_entropy, load_balance_loss, objective
from gazemoe.metrics import accuracy, macro_auc, routing_purity, usage_entropy
from gazemoe.moe import RoutingRecord
from gazemoe.tensor import Tensor, backward, finite_diff_check
from gazemoe import tensor as T


# -- cross entropy ---------------------------------------------------------


def test_ce_uniform_logits():
    loss = cross_entropy(Tensor(np.zeros((4, 3))), [0, 1, 2, 0])
    assert abs(loss.item() - math.log(3)) < 1e-5


def test_ce_saturated_logits():
    logits = np.zeros((2, 3))
    logits[0, 1] = 30.0
    logits[1, 2] = 30.0
    assert cross_entropy(Tensor(logits), [1, 2]).item() < 1e-9


def test_ce_hand_example():
    loss = cross_entropy(Tensor([[1.0, 2.0, 3.0]]), [0])
    assert abs(loss.item() - 2.40761) < 1e-4
    assert abs(loss.item() - oracles.cross_entropy_oracle([[1.0, 2.0, 3.0]], [0])) < 1e-10


def test_ce_matches_oracle_on_random_batches():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 4)) * 3
    labels = rng.integers(0, 4, size=6)
    ours = cross_entropy(Tensor(logits), labels).item()
    assert abs(ours - oracles.cross_entropy_oracle(logits, labels)) < 1e-10


def test_ce_is_stable_for_huge_logits():
    loss = cross_entropy(Tensor([[1000.0, -1000.0]]), [1])
    assert np.isfinite(loss.item())
    assert abs(loss.item() - 2000.0) < 1e-6


def test_ce_rejects_bad_labels():
    with pytest.raises(ValidationError, match="outside"):
        cross_entropy(Tensor(np.zeros((2, 3))), [0, 7])
    with pytest.raises(ValidationError):
        cross_entropy(Tensor(np.zeros((1, 3))), [-1])
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros((2, 3))), [0])


def test_ce_gradient():
    logits = Tensor(np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True)
    report = finite_diff_check(
        lambda: cross_entropy(logits, [1, 0, 3]), [("logits", logits)], tol=1e-6
    )
    assert report.passed, str(report)


@given(hnp.arrays(np.float64, (4, 3), elements=st.floats(-50, 50, allow_nan=False)),
       st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_ce_nonnegative(logits, labels):
    assert cross_entropy(Tensor(logits), labels).item() >= 0.0


# -- load balance loss -------------------------------------------------------


def test_lb_uniform_case():
    f = np.full(4, 0.25)
    assert load_balance_loss(f, Tensor(f.copy())).item() == 0.25


def test_lb_collapsed_case():
    f = np.array([1.0, 0.0, 0.0, 0.0])
    assert load_balance_loss(f, Tensor(f.copy())).item() == 1.0


def test_lb_dot_product_case():
    value = load_balance_loss(
        np.array([0.5, 0.5, 0.0, 0.0]), Tensor([0.4, 0.4, 0.1, 0.1])
    ).item()
    assert abs(value - 0.4) < 1e-12


def test_lb_rejects_unnormalized_inputs():
    with pytest.raises(ContractError, match="sum to 1"):
        load_balance_loss(np.array([0.5, 0.4]), Tensor([0.5, 0.5]))
    with pytest.raises(ContractError, match="sum to 1"):
        load_balance_loss(np.array([0.5, 0.5]), Tensor([0.7, 0.5]))
    with pytest.raises(ContractError, match="shape"):
        load_balance_loss(np.array([1.0]), Tensor([0.5, 0.5]))


def test_lb_rejects_nan_inputs():
    # abs(nan - 1) > tol is False, so a NaN sum must fail an `is within` test
    with pytest.raises(ContractError, match="usage frequencies must sum to 1"):
        load_balance_loss(np.array([np.nan, np.nan]), Tensor([0.5, 0.5]))
    with pytest.raises(ContractError, match="routing probabilities must sum to 1"):
        load_balance_loss(np.array([0.5, 0.5]), Tensor([np.nan, np.nan]))


def test_lb_gradient_flows_through_p_bar_only():
    scores = Tensor(np.random.default_rng(2).normal(size=(5, 4)), requires_grad=True)
    p_bar = T.softmax(scores, axis=1).mean(axis=0)
    f = np.full(4, 0.25)
    backward(load_balance_loss(f, p_bar))
    assert scores.grad is not None and np.any(scores.grad != 0)


@given(hnp.arrays(np.float64, (4,), elements=st.floats(0.01, 1.0)))
def test_lb_lower_bound_when_f_equals_p(raw):
    f = raw / raw.sum()
    value = load_balance_loss(f, Tensor(f.copy())).item()
    assert value >= 1.0 / 4 - 1e-12
    if abs(value - 0.25) < 1e-9:
        np.testing.assert_allclose(f, 0.25, atol=1e-4)


# -- objective ---------------------------------------------------------------


def routed(scores):
    """A top-1 routing record over fixed raw scores."""
    scores = np.asarray(scores, dtype=np.float64)
    return RoutingRecord(0, "DD", Tensor(scores, requires_grad=True),
                         np.argmax(scores, axis=1)[:, None])


def test_total_loss_lambda_zero_is_classification_only():
    logits = Tensor([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]], requires_grad=True)
    labels = [0, 2]
    rec = routed([[2.0, 0.0], [3.0, 1.0]])
    total, cls, lb = objective(logits, [rec], labels, lb_weight=0.0)
    assert total.item() == cls == cross_entropy(logits, labels).item()
    assert lb == load_balance_loss(rec.usage, T.softmax(rec.raw_scores, axis=1).mean(axis=0)).item()
    backward(total)
    assert rec.raw_scores.grad is None  # the balance term is not in the graph


def test_total_loss_arithmetic():
    # each record: f = [1, 0], p_bar = [0.75, 0.25] (scores ln 3 apart)
    recs = [routed([[math.log(3.0), 0.0]]) for _ in range(2)]
    total, cls, lb = objective(Tensor([[0.0, 0.0]]), recs, [1], lb_weight=0.01)
    assert abs(cls - math.log(2.0)) < 1e-12
    assert abs(lb - 1.5) < 1e-12
    assert abs(total.item() - (math.log(2.0) + 0.015)) < 1e-12


def test_total_loss_collapsed_routing_example():
    recs = [routed([[50.0, -50.0]]), routed([[-50.0, 50.0]])]
    total, _, _ = objective(Tensor([[1000.0, -1000.0]]), recs, [0], lb_weight=0.01)
    assert abs(total.item() - 0.02) < 1e-12


def test_total_loss_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        batch = int(rng.integers(1, 6))
        logits = Tensor(rng.normal(size=(batch, 3)))
        labels = rng.integers(0, 3, batch)
        recs = [routed(rng.normal(size=(batch, 4))) for _ in range(rng.integers(1, 5))]
        lam = float(rng.uniform(0, 0.1))
        total, cls, lb = objective(logits, recs, labels, lam)
        assert abs(total.item() - (cls + lam * lb)) < 1e-12


def test_balance_term_is_summed_left_to_right():
    # these four terms add to one float left to right and to another exactly
    # rounded (math.fsum), so a compensated sum would change the logged lb
    rng = np.random.default_rng(7)
    recs = [routed(rng.normal(size=(5, 4))) for _ in range(4)]
    terms = [load_balance_loss(r.usage, T.softmax(r.raw_scores, axis=1).mean(axis=0)).item()
             for r in recs]
    left_to_right = ((terms[0] + terms[1]) + terms[2]) + terms[3]
    assert left_to_right != math.fsum(terms)
    _, _, lb = objective(Tensor(rng.normal(size=(5, 3))), recs, [0, 1, 2, 0, 1], 0.01)
    assert lb == left_to_right


def test_total_loss_rejects_negative_weight():
    with pytest.raises(ContractError):
        objective(Tensor([[0.0, 0.0]]), [], [0], lb_weight=-0.1)


def test_objective_with_non_finite_logits_returns_non_finite_total():
    # a diverged forward: routing probabilities are NaN too, and the caller
    # (the train step) reports the non-finite total instead of a contract error
    rec = routed([[np.nan, 0.0]])
    total, cls, lb = objective(Tensor([[np.nan, 0.0]]), [rec], [0], lb_weight=0.01)
    assert math.isnan(total.item()) and math.isnan(cls) and math.isnan(lb)


def test_objective_is_written_once():
    """Only losses.py combines the loss terms; everything else calls objective."""
    term_call = re.compile(r"\b(cross_entropy|load_balance_loss)\(")
    sources = {path.name: path.read_text()
               for path in pathlib.Path(losses.__file__).parent.glob("*.py")}
    assert term_call.search(sources.pop("losses.py"))
    assert sorted(name for name, text in sources.items() if term_call.search(text)) == []


# -- accuracy ----------------------------------------------------------------


def test_accuracy_extremes_and_counting():
    logits = np.eye(3)[[0, 1, 2, 0]]
    assert accuracy(logits, [0, 1, 2, 0]) == 100.0
    assert accuracy(logits, [1, 2, 0, 1]) == 0.0
    assert accuracy(logits, [0, 1, 2, 1]) == 75.0


def test_accuracy_ties_pick_lowest_class():
    assert accuracy(np.zeros((2, 3)), [0, 1]) == 50.0


def test_accuracy_rejects_empty():
    with pytest.raises(ContractError):
        accuracy(np.zeros((0, 3)), [])


# -- macro AUC ---------------------------------------------------------------


def test_auc_perfect_separation():
    scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
    assert macro_auc(scores, [0, 0, 1, 1]) == 100.0


def test_auc_all_ties_is_half():
    assert macro_auc(np.ones((6, 3)), [0, 1, 2, 0, 1, 2]) == 50.0


def test_auc_fixed_table_matches_oracle():
    scores = np.array([
        [0.9, 0.1], [0.6, 0.4], [0.6, 0.4], [0.4, 0.6], [0.3, 0.7], [0.35, 0.65],
    ])
    labels = [0, 0, 1, 1, 1, 0]
    expected = oracles.macro_auc_oracle(labels, scores) * 100.0
    assert abs(macro_auc(scores, labels) - expected) < 1e-12


def test_auc_skips_absent_classes():
    scores = np.random.default_rng(4).uniform(size=(8, 3))
    labels = [0, 1, 0, 1, 1, 0, 0, 1]  # class 2 never appears
    expected = oracles.macro_auc_oracle(labels, scores) * 100.0
    assert abs(macro_auc(scores, labels) - expected) < 1e-12


def test_auc_undefined_for_single_class():
    with pytest.raises(MetricUndefinedError):
        macro_auc(np.random.default_rng(5).uniform(size=(4, 3)), [1, 1, 1, 1])


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(6)
    scores = rng.uniform(size=(10, 3))
    labels = rng.integers(0, 3, size=10)
    base = macro_auc(scores, labels)
    assert abs(macro_auc(np.exp(scores), labels) - base) < 1e-12
    assert abs(macro_auc(3.0 * scores + 7.0, labels) - base) < 1e-12


@given(
    st.integers(2, 8).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(0, 2), min_size=m, max_size=m).filter(
                lambda ls: len(set(ls)) >= 2
            ),
            hnp.arrays(np.float64, (m, 3),
                       elements=st.integers(0, 5).map(float)),
        )
    )
)
def test_auc_matches_pair_counting_oracle(case):
    labels, scores = case
    expected = oracles.macro_auc_oracle(labels, scores) * 100.0
    assert abs(macro_auc(scores, labels) - expected) < 1e-12


# -- routing purity ----------------------------------------------------------


def test_purity_perfect_specialization():
    top1 = [0, 0, 1, 1, 2, 2, 3, 3]
    groups = [0, 0, 1, 1, 2, 2, 3, 3]
    assert routing_purity(top1, groups, 4) == 1.0


def test_purity_single_group_split():
    assert routing_purity([0, 0, 1, 1], [0, 0, 0, 0], 2) == 0.5


def test_purity_weights_groups_by_size():
    # group 0 (4 samples) pure on expert 1; group 1 (2 samples) split
    top1 = [1, 1, 1, 1, 0, 1]
    groups = [0, 0, 0, 0, 1, 1]
    assert routing_purity(top1, groups, 2) == (4 + 1) / 6


def test_purity_uniform_routing_near_chance():
    rng = np.random.default_rng(7)
    m = 4000
    top1 = rng.integers(0, 4, size=m)
    groups = rng.integers(0, 4, size=m)
    p = routing_purity(top1, groups, 4)
    assert 0.25 <= p < 0.32  # 1/N plus sampling noise


def test_purity_rejects_bad_input():
    with pytest.raises(ContractError):
        routing_purity([], [], 4)
    with pytest.raises(ContractError):
        routing_purity([0, 5], [0, 0], 4)


def test_usage_entropy():
    assert abs(usage_entropy([0.25] * 4) - math.log(4)) < 1e-12
    assert usage_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0
    assert usage_entropy([0.5, 0.5, 0.0, 0.0]) < math.log(4)
