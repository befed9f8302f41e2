"""Loss oracles: cross-entropy values/gradients, orthogonality, weighting."""

import numpy as np
import pytest

from dtst import tensor as T
from dtst.errors import DimensionError, DomainError, NumericError
from dtst.losses import (ORTH_WEIGHT, VIEW_WEIGHT, cross_entropy_loss, orthogonal_loss,
                         total_loss)
from dtst.tensor import Tape, Tensor, backward

RNG = np.random.default_rng(7)


def test_uniform_logits_give_log_num_classes():
    logits = Tensor(np.zeros((3, 4)))
    loss = cross_entropy_loss(logits, np.array([0, 1, 3]))
    assert abs(loss.item() - np.log(4)) < 1e-12


def test_saturated_logits_give_near_zero_loss():
    logits = np.full((2, 5), -50.0)
    logits[0, 2] = 50.0
    logits[1, 0] = 50.0
    loss = cross_entropy_loss(Tensor(logits), np.array([2, 0]))
    assert loss.item() < 1e-8


def test_cross_entropy_matches_direct_formula():
    logits = RNG.normal(size=(6, 9))
    labels = RNG.integers(0, 9, size=6)
    loss = cross_entropy_loss(Tensor(logits), labels)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    want = -logp[np.arange(6), labels].mean()
    assert abs(loss.item() - want) < 1e-12


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = RNG.normal(size=(4, 6))
    labels = np.array([2, 0, 5, 1])
    t = Tensor(logits, requires_grad=True)
    with Tape() as tape:
        loss = cross_entropy_loss(t, labels)
    backward(loss, tape)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    p[np.arange(4), labels] -= 1.0
    assert np.allclose(t.grad, p / 4, atol=1e-12)


def test_cross_entropy_label_range_check():
    with pytest.raises(DomainError):
        cross_entropy_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(DomainError):
        cross_entropy_loss(Tensor(np.zeros((2, 3))), np.array([-1, 0]))


@pytest.mark.parametrize("logits, labels, error, match", [
    ((2, 3), np.array([[0], [1]]), DimensionError,
     r"expected 2 labels, one per row, got shape \(2, 1\)"),
    ((2, 3), np.array([0, 1, 2]), DimensionError, r"got shape \(3,\)"),
    ((2, 3), np.array([0.7, 1.2]), DomainError, "labels must be integers, got dtype float64"),
    ((2, 3), np.array([True, False]), DomainError, "labels must be integers, got dtype bool"),
    ((), np.array([0, 1]), DimensionError, r"logits must be \[B, C\], got shape \(\)"),
    ((3,), np.array([0, 1]), DimensionError, r"logits must be \[B, C\], got shape \(3,\)"),
    ((2, 3, 1), np.array([0, 1]), DimensionError, r"logits must be \[B, C\], got shape"),
], ids=["column", "extra_row", "float", "bool", "scalar_logits", "vector_logits",
        "three_dim_logits"])
def test_cross_entropy_rejects_malformed_labels(logits, labels, error, match):
    with pytest.raises(error, match=match):
        cross_entropy_loss(Tensor(np.zeros(logits)), labels)


@pytest.mark.parametrize("shapes", [((3, 4), (1, 4)), ((3, 4), (3, 5)), ((2, 3, 4), (2, 3, 4))],
                         ids=["broadcast_rows", "widths", "three_dims"])
def test_orthogonal_loss_rejects_unequal_or_non_matrix_shapes(shapes):
    meta, view = (Tensor(RNG.normal(size=s)) for s in shapes)
    with pytest.raises(DimensionError, match="two equal"):
        orthogonal_loss(meta, view)


def test_orthogonal_loss_endpoints():
    a = RNG.normal(size=(3, 8))
    # orthogonal pairs -> 0
    b = np.zeros_like(a)
    b[:, 0] = 1.0
    a[:, 0] = 0.0
    assert orthogonal_loss(Tensor(a), Tensor(b)).item() < 1e-12
    # parallel (and anti-parallel) pairs -> 1
    c = a * np.array([[2.0], [-0.5], [3.0]])
    assert abs(orthogonal_loss(Tensor(a), Tensor(c)).item() - 1.0) < 1e-12


def test_orthogonal_loss_is_scale_invariant():
    a = RNG.normal(size=(4, 6))
    b = RNG.normal(size=(4, 6))
    base = orthogonal_loss(Tensor(a), Tensor(b)).item()
    scaled = orthogonal_loss(Tensor(7.0 * a), Tensor(0.01 * b)).item()
    assert abs(base - scaled) < 1e-12


def test_orthogonal_loss_matches_mean_squared_cosine():
    a = RNG.normal(size=(5, 4))
    b = RNG.normal(size=(5, 4))
    cos = (a * b).sum(-1) / (np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1))
    want = (cos ** 2).mean()
    assert abs(orthogonal_loss(Tensor(a), Tensor(b)).item() - want) < 1e-12


def test_total_loss_documented_example():
    # the weights configs/benchmark.cfg trained with: 1.0 + 1.0 * 1.0 + 3.0 * 1.0 = 5.0
    assert (VIEW_WEIGHT, ORTH_WEIGHT) == (1.0, 3.0)
    total = total_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0))
    assert abs(total.item() - 5.0) < 1e-15


def test_total_loss_is_linear_in_weights():
    parts = [Tensor(v, requires_grad=True) for v in (0.7, 0.3, 0.9)]
    with Tape() as tape:
        total = total_loss(*parts)
    backward(total, tape)
    assert abs(total.item() - (0.7 + VIEW_WEIGHT * 0.3 + ORTH_WEIGHT * 0.9)) < 1e-12
    assert [float(p.grad) for p in parts] == [1.0, VIEW_WEIGHT, ORTH_WEIGHT]


def test_non_finite_losses_are_rejected():
    with pytest.raises(NumericError, match="not finite"):
        total_loss(Tensor(float("inf")), Tensor(0.0), Tensor(0.0))


def test_orthogonal_descent_decorrelates_toy_features():
    """Minimizing the orthogonal loss alone drives |cos| below 0.05."""
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(8, 6)), requires_grad=True)
    b_fixed = Tensor(rng.normal(size=(8, 6)))
    for _ in range(500):
        with Tape() as tape:
            loss = orthogonal_loss(a, b_fixed)
        backward(loss, tape)
        a.data = a.data - 0.5 * a.grad
        a.grad = None
        if loss.item() < 0.05 ** 2:
            break
    cos = (a.data * b_fixed.data).sum(-1) / (
        np.linalg.norm(a.data, axis=-1) * np.linalg.norm(b_fixed.data, axis=-1))
    assert np.abs(cos).mean() < 0.05
