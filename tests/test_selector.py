"""Token selector: scoring oracle, hard top-k, Gumbel relaxation limits."""

import numpy as np
import pytest

from dtst.errors import ConfigError, ContractError
from dtst.selector import (SelectorConfig, hard_topk, perturbed_topk,
                           score_tokens, select_tokens)
from dtst.tensor import Tensor

RNG = np.random.default_rng(42)


def direct_scores(tokens, num_heads):
    """Independent numpy evaluation of the scoring formula: per-head
    self-dot-products scaled by 1/sqrt(d/H), averaged over the heads."""
    b, m, d = tokens.shape
    dh = d // num_heads
    raw = np.zeros((b, m))
    for h in range(num_heads):
        sl = slice(h * dh, (h + 1) * dh)
        raw += (tokens[..., sl] * tokens[..., sl]).sum(axis=-1) / np.sqrt(dh)
    raw /= num_heads
    e = np.exp(raw - raw.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_score_tokens_matches_direct_formula():
    b, m, d, h = 1, 4, 4, 1
    tokens = RNG.normal(size=(b, m, d))
    got = score_tokens(tokens, h)
    assert not got.requires_grad
    assert np.allclose(got.data, direct_scores(tokens, h), atol=1e-12)
    assert np.allclose(got.data.sum(axis=-1), 1.0, atol=1e-12)


def test_score_tokens_multihead_matches_direct_formula():
    b, m, d, h = 3, 7, 8, 2
    tokens = RNG.normal(size=(b, m, d))
    got = score_tokens(tokens, h).data
    assert np.allclose(got, direct_scores(tokens, h), atol=1e-12)


def test_score_tokens_head_mismatch():
    with pytest.raises(ConfigError, match="divide"):
        score_tokens(RNG.normal(size=(1, 3, 6)), 4)


def test_zero_tokens_give_uniform_scores():
    got = score_tokens(np.zeros((2, 5, 4)), 2).data
    assert np.allclose(got, 0.2, atol=1e-12)


def test_hard_topk_basic():
    assert hard_topk(np.array([0.1, 0.4, 0.3, 0.2]), 2).tolist() == [1, 2]


def test_hard_topk_tie_prefers_lower_index():
    assert hard_topk(np.array([0.5, 0.5]), 1).tolist() == [0]
    assert hard_topk(np.array([0.2, 0.3, 0.3, 0.2]), 2).tolist() == [1, 2]


def test_hard_topk_k_equals_m_and_overflow():
    assert hard_topk(np.array([0.3, 0.1, 0.6]), 3).tolist() == [0, 1, 2]
    with pytest.raises(ConfigError, match="exceeds"):
        hard_topk(np.array([0.3, 0.7]), 3)


def test_hard_topk_batched_rows_sorted_ascending():
    scores = np.array([[0.1, 0.9, 0.2, 0.8], [0.7, 0.1, 0.6, 0.3]])
    out = hard_topk(scores, 2)
    assert out.tolist() == [[1, 3], [0, 2]]
    assert (np.diff(out, axis=-1) > 0).all()


def _scores_from(probs):
    return Tensor(np.asarray(probs, dtype=np.float64))


def test_noise_off_reduces_to_hard_topk():
    probs = RNG.dirichlet(np.ones(8), size=4)
    cfg = SelectorConfig(k=3, noise_enabled=False)
    idx, _ = perturbed_topk(_scores_from(probs), cfg)
    assert np.array_equal(idx, hard_topk(probs, 3))


def test_noise_requires_rng():
    cfg = SelectorConfig(k=1, noise_enabled=True)
    with pytest.raises(ContractError, match="seeded rng"):
        perturbed_topk(_scores_from([[0.5, 0.5]]), cfg)


def test_low_temperature_concentrates_soft_mass():
    probs = np.array([[0.05, 0.7, 0.05, 0.2]])
    cfg = SelectorConfig(k=1, temperature=0.01, noise_enabled=False)
    idx, soft = perturbed_topk(_scores_from(probs), cfg)
    assert idx.tolist() == [[1]]
    assert soft.data[0, 1] >= 0.99


def test_temperature_monotonically_sharpens_soft_weights():
    probs = RNG.dirichlet(np.ones(6), size=3)
    # the tau -> 0 limit of the soft weights is one-hot at the argmax
    limit = np.zeros_like(probs)
    limit[np.arange(3), probs.argmax(axis=-1)] = 1.0
    dists = []
    for tau in (1.0, 0.1, 0.01):
        cfg = SelectorConfig(k=2, temperature=tau, noise_enabled=False)
        _, soft = perturbed_topk(_scores_from(probs), cfg)
        dists.append(0.5 * np.abs(soft.data - limit).sum(axis=-1).mean())
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 0.01


def test_unit_temperature_noise_off_soft_equals_scores():
    probs = RNG.dirichlet(np.ones(5), size=2)
    cfg = SelectorConfig(k=2, temperature=1.0, noise_enabled=False)
    _, soft = perturbed_topk(_scores_from(probs), cfg)
    assert np.allclose(soft.data, probs, atol=1e-9)


def test_gumbel_marginal_matches_scores():
    # With K=1 and tau=1 the chosen index follows the score distribution
    # exactly (Gumbel-max trick); check the empirical frequency.
    probs = np.array([[0.5, 0.3, 0.15, 0.05]])
    cfg = SelectorConfig(k=1, temperature=1.0, noise_enabled=True)
    rng = np.random.default_rng(7)
    n = 20000
    counts = np.zeros(4)
    for _ in range(n):
        idx, _ = perturbed_topk(_scores_from(probs), cfg, rng)
        counts[idx[0, 0]] += 1
    assert np.abs(counts / n - probs[0]).max() < 0.02


def test_score_floor_protects_log_of_zero():
    probs = np.array([[1.0, 0.0, 0.0]])
    cfg = SelectorConfig(k=2, noise_enabled=False)
    idx, soft = perturbed_topk(_scores_from(probs), cfg)
    assert np.isfinite(soft.data).all()
    assert idx.tolist() == [[0, 1]]


def _toy_sequence(b=2, m=5, d=3):
    """(tokens [B, 2 + M, d], origin [B, M]) with origin 10 + slot."""
    tokens = Tensor(RNG.normal(size=(b, m + 2, d)))
    return tokens, np.broadcast_to(10 + np.arange(m), (b, m)).copy()


def test_select_tokens_keeps_specials_and_order():
    tokens, origin = _toy_sequence()
    idx = np.array([[0, 3], [4, 1]])
    kept, kept_origin = select_tokens(tokens, origin, idx)
    assert kept.shape == (2, 4, 3)
    assert np.allclose(kept.data[:, :2], tokens.data[:, :2])
    # selected patches appear in the order given per row
    assert np.allclose(kept.data[0, 2:], tokens.data[0, [2, 5]])
    assert np.allclose(kept.data[1, 2:], tokens.data[1, [6, 3]])
    assert kept_origin.tolist() == [[10, 13], [14, 11]]


def test_select_tokens_rejects_bad_indices():
    tokens, origin = _toy_sequence()
    with pytest.raises(ContractError, match="duplicate"):
        select_tokens(tokens, origin, np.array([[1, 1], [0, 2]]))
    with pytest.raises(ContractError, match="out of range"):
        select_tokens(tokens, origin, np.array([[0, 5], [0, 1]]))


def test_selector_config_validation_messages():
    with pytest.raises(ConfigError, match="K must be >= 1"):
        SelectorConfig(k=0)
    with pytest.raises(ConfigError, match="temperature must be > 0"):
        SelectorConfig(k=1, temperature=0.0)
    with pytest.raises(ConfigError, match="num_heads must be >= 1"):
        SelectorConfig(k=1, num_heads=0)
    with pytest.raises(ConfigError, match="position must be one of"):
        SelectorConfig(k=1, position="first")

